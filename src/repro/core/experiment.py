"""Pre-packaged experiment procedures.

Most of the paper's experiments are plain campaigns over different
:class:`~repro.workload.spec.WorkloadSpec` values (the benches build those
directly).  Two procedures need bespoke control flow and live here:

- :func:`run_post_ack_sweep` — §IV-A: inject the fault at a controlled
  interval *after a request's ACK* and measure whether the already-completed
  request still loses data (the ~700 ms vulnerability window);
- :func:`run_discharge_capture` — Fig. 4: capture the PSU output waveform
  with and without a device on the rail.

The registry at the bottom indexes every reproduced table/figure to its
bench target (mirrored in DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core import calibration
from repro.core.platform import TestPlatform
from repro.errors import CampaignError
from repro.host.system import HostSystem
from repro.power.rails import RailProbe
from repro.ssd.device import SsdConfig
from repro.units import MSEC, SEC
from repro.workload.spec import WorkloadSpec


@dataclass(frozen=True)
class PostAckPoint:
    """One interval of the §IV-A sweep."""

    interval_ms: int
    acked_requests: int
    lost_requests: int

    @property
    def loss_fraction(self) -> float:
        """Fraction of ACKed requests that still lost data."""
        if self.acked_requests == 0:
            return 0.0
        return self.lost_requests / self.acked_requests


def amplified_firmware_config(base: Optional[SsdConfig] = None) -> SsdConfig:
    """Device variant with a deliberately weak recovery scan.

    The *position* of the §IV-A window is set by the journal commit interval
    (calibrated to the paper's 700 ms); the per-request loss probability on
    real drives is small, so resolving the window's shape would need
    thousands of trials.  Dropping the scan success amplifies the magnitude
    without moving the boundary — benches state this substitution.
    """
    import dataclasses

    base = base or SsdConfig()
    return dataclasses.replace(
        base,
        name=f"{base.name}-amplified",
        ftl=dataclasses.replace(
            base.ftl, page_recovery_prob=0.35, extent_recovery_prob=0.35
        ),
    )


def run_post_ack_sweep(
    intervals_ms: List[int],
    cycles_per_point: int = 6,
    burst_requests: int = 40,
    seed: int = 1,
    config: Optional[SsdConfig] = None,
    spec: Optional[WorkloadSpec] = None,
) -> List[PostAckPoint]:
    """§IV-A: fault at a fixed interval after the last ACK of a write burst.

    Each cycle issues ``burst_requests`` random writes (4 KiB - 1 MiB unless
    ``spec`` overrides), waits for every ACK, idles exactly ``interval_ms``,
    cuts power, recovers and verifies the burst.  Returns one point per
    interval.  Note the window is anchored at the burst's *first* map
    update; pass a small-request spec when the interval under study is
    comparable to the burst duration.
    """
    if not intervals_ms:
        raise CampaignError("need at least one interval")
    config = config or amplified_firmware_config()
    if spec is None:
        spec = WorkloadSpec(
            wss_bytes=8 * 1024 * 1024 * 1024,
            read_fraction=0.0,
            outstanding=8,
        )
    points: List[PostAckPoint] = []
    for interval_index, interval_ms in enumerate(intervals_ms):
        platform = TestPlatform(
            spec, config=config, seed=seed * 1000 + interval_index
        )
        platform.boot()
        host = platform.host
        generator = platform.generator
        acked = 0
        lost = 0
        for _ in range(cycles_per_point):
            generator.start()
            deadline = host.kernel.now + 60 * SEC
            while len(generator.completed_writes) < burst_requests:
                if host.kernel.now >= deadline:
                    raise CampaignError("burst never completed")
                host.run_for(5 * MSEC)
            generator.stop()
            while generator.inflight > 0 and host.kernel.now < deadline:
                host.run_for(5 * MSEC)
            host.run_for(interval_ms * MSEC)
            host.cut_power()
            host.wait_until_dead()
            host.run_for(calibration.RECOVERY_SETTLE_US)
            host.restore_power()
            host.wait_until_ready()
            writes, _, failed = generator.drain_ledgers()
            generator.packets.clear()
            outcome = platform.analyzer.verify_cycle(0, writes, [])
            acked += len(writes)
            lost += sum(
                1
                for record in outcome.records
                if record.kind.value != "io_error"
            )
        points.append(
            PostAckPoint(
                interval_ms=interval_ms, acked_requests=acked, lost_requests=lost
            )
        )
    return points


def run_discharge_capture(
    with_device: bool, seed: int = 2, sample_interval_us: int = 2 * MSEC
) -> List[Tuple[float, float]]:
    """Fig. 4: capture the 5 V rail waveform during one discharge.

    Returns ``(ms since cut, volts)`` samples.  ``with_device`` reproduces
    Fig. 4b (one SSD on the rail), otherwise Fig. 4a (unloaded).
    """
    if with_device:
        host = HostSystem(seed=seed)
        host.boot()
        kernel, psu = host.kernel, host.power.psu
        cut = host.cut_power
    else:
        from repro.power.controller import PowerController
        from repro.sim import Kernel

        kernel = Kernel()
        power = PowerController(kernel)
        power.power_on()
        kernel.run(until=kernel.now + 50 * MSEC)
        psu = power.psu
        cut = power.power_off
    probe = RailProbe(kernel, psu, interval_us=sample_interval_us)
    probe.start_capture(duration_us=1600 * MSEC)
    cut()
    kernel.run(until=kernel.now + 1700 * MSEC)
    return probe.waveform_ms()


# ---------------------------------------------------------------------------
# Experiment registry (mirrors DESIGN.md's per-experiment index).
# ---------------------------------------------------------------------------

EXPERIMENTS: Dict[str, str] = {
    "fig4_psu_discharge": "benchmarks/bench_fig4_psu_discharge.py",
    "sec4a_post_ack_window": "benchmarks/bench_sec4a_post_ack_window.py",
    "fig5_request_type": "benchmarks/bench_fig5_request_type.py",
    "fig6_working_set_size": "benchmarks/bench_fig6_working_set_size.py",
    "sec4d_access_pattern": "benchmarks/bench_sec4d_access_pattern.py",
    "fig7_request_size": "benchmarks/bench_fig7_request_size.py",
    "fig8_iops": "benchmarks/bench_fig8_iops.py",
    "fig9_access_sequence": "benchmarks/bench_fig9_access_sequence.py",
    "table1_devices": "benchmarks/bench_table1_devices.py",
    "ablation_cache": "benchmarks/bench_ablation_cache.py",
    "ablation_discharge": "benchmarks/bench_ablation_discharge.py",
    "ablation_journal_interval": "benchmarks/bench_ablation_journal_interval.py",
    "stress_dirty_cycle": "benchmarks/bench_dirty_cycle.py",
}
