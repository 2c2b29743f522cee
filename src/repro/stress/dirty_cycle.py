"""The dirty-power-cycle stress harness.

One **dirty cycle** is the qualification loop real NVMe power-loss rigs
(pynvme's ``test_dirty_power_cycle_and_check_data``) run thousands of
times: drive traffic through the NVMe queue pair, drop the rail mid-burst,
power back on, replay the command log, re-read every *acknowledged* LBA and
classify it intact / flying-write-ACK / data-loss / IO-error, then assert
the drive's own SMART counters agree with the number of faults injected.

:class:`DirtyCyclePlan` packages the loop as a
:class:`~repro.engine.plan.CampaignPlan` subclass, so the entire engine
surface — sharding, worker processes, checkpoint/resume, retry, quarantine,
tracing — applies to stress runs unchanged, and ``jobs=1`` and ``jobs=N``
produce bit-identical merged summaries by construction (executors only ever
call :meth:`DirtyCyclePlan.run_shard`).

Recovery-path faults are first-class: with ``recovery_fault_every=N`` set,
every Nth cycle of a shard cuts power a *second* time while the device is
mid-FTL-recovery (state ``RECOVERING``), exercising the
power-loss-during-power-loss-recovery path the paper's §V calls out as the
hardest consistency case.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

from repro.core import calibration
from repro.core.analyzer import Analyzer
from repro.core.results import CampaignResult, FaultCycleResult
from repro.engine.plan import CampaignPlan, ShardSpec
from repro.errors import CampaignError, StressAuditError
from repro.host.system import READY_TIMEOUT_US, HostSystem
from repro.nvme.command import NvmeCommand, NvmeOpcode
from repro.nvme.controller import NvmeController
from repro.rand import uniform_int
from repro.ssd.device import SsdConfig
from repro.ssd.power_state import DevicePowerState
from repro.stress.cmdlog import CommandLog, audit_cycle
from repro.units import MSEC

DEFAULT_RECOVERY_TIME_US = 150 * MSEC
"""Recovery window applied when recovery faults are requested against a
config whose rebuild is instantaneous (``recovery_time_us == 0``) — without
wall time in RECOVERING there is nothing to interrupt.  The window must
comfortably exceed the rail's decay-to-detach time (tens of ms): the second
power cut only *interrupts* recovery if the rail reaches the detach
threshold while the device is still RECOVERING, and the shard audit
verifies that it did."""


@dataclass(frozen=True)
class DirtyCyclePlan(CampaignPlan):
    """A :class:`CampaignPlan` whose shards run NVMe dirty power cycles.

    ``faults`` is the number of dirty cycles (``--repeat``).  Extra knobs:

    - ``qdepth``: submission/completion queue depth of the IO queue pair;
    - ``flush_every``: chase every Nth write with a FLUSH (0 disables);
    - ``write_zeroes_frac``: fraction of writes issued as WRITE ZEROES;
    - ``recovery_fault_every``: every Nth cycle of a shard also cuts power
      mid-recovery (0 disables); configs with no recovery window get
      :data:`DEFAULT_RECOVERY_TIME_US` applied deterministically;
    - ``fault_window_us``: the fault instant is drawn uniformly from
      ``[warmup_us, warmup_us + fault_window_us)`` of each cycle's traffic;
    - ``cmdlog_dir``: directory for per-shard command logs (``None`` keeps
      the log in memory; the audit path is identical either way).
    """

    qdepth: int = 64
    flush_every: int = 0
    write_zeroes_frac: float = 0.0
    recovery_fault_every: int = 0
    fault_window_us: int = 400 * MSEC
    cmdlog_dir: Optional[str] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.qdepth <= 0:
            raise CampaignError("queue depth must be positive")
        if self.flush_every < 0 or self.recovery_fault_every < 0:
            raise CampaignError("every-Nth knobs must be non-negative")
        if not 0.0 <= self.write_zeroes_frac <= 1.0:
            raise CampaignError("write_zeroes_frac must be in [0, 1]")
        if self.fault_window_us <= 0:
            raise CampaignError("fault window must be positive")

    def display_label(self) -> str:
        if self.label:
            return self.label
        device = self.device.name if self.device is not None else "generic"
        return f"dirty-cycle device={device} qd={self.qdepth} [{self.spec.describe()}]"

    def device_config(self) -> SsdConfig:
        """The hydrated device config (recovery window applied if needed)."""
        config = self.device if self.device is not None else SsdConfig()
        if self.recovery_fault_every and config.recovery_time_us == 0:
            config = replace(config, recovery_time_us=DEFAULT_RECOVERY_TIME_US)
        return config

    def shard_cmdlog_path(self, shard: ShardSpec) -> Optional[Path]:
        """Where this shard's command log lives (None = memory only)."""
        if self.cmdlog_dir is None:
            return None
        return Path(self.cmdlog_dir) / f"shard{shard.index:04d}.cmdlog.jsonl"

    def run_shard(self, shard: ShardSpec) -> CampaignResult:
        return run_dirty_shard(self, shard)


def _wait_for_recovering(host: HostSystem) -> None:
    """Run until the device enters its recovery window (after restore)."""
    host.kernel.pump_until(
        lambda: host.ssd.state in (DevicePowerState.RECOVERING, DevicePowerState.READY),
        READY_TIMEOUT_US,
        "the recovery window",
    )
    if host.ssd.state is DevicePowerState.READY:
        raise StressAuditError(
            "device reached READY without a recovery window; "
            "recovery faults need recovery_time_us > 0"
        )


class _IoWorker:
    """Closed- or open-loop traffic source over one NVMe queue pair.

    Closed loop keeps the submission queue topped up (classic qd=N
    worker); open loop (``spec.requested_iops`` set) paces submissions
    with a fractional-credit accumulator so the long-run rate matches the
    request.  All randomness comes from one named stream of the host's
    seed tree, so traffic is a pure function of ``(plan, shard seed)``.
    """

    def __init__(self, plan: DirtyCyclePlan, host: HostSystem,
                 ctrl: NvmeController, qpair) -> None:
        self.plan = plan
        self.spec = plan.spec
        self.host = host
        self.ctrl = ctrl
        self.qpair = qpair
        self.rng = host.streams.stream("stress")
        self._credit = 0.0
        self._writes_since_flush = 0

    def _next_command(self) -> NvmeCommand:
        spec = self.spec
        rng = self.rng
        if self.plan.flush_every and self._writes_since_flush >= self.plan.flush_every:
            self._writes_since_flush = 0
            return NvmeCommand(NvmeOpcode.FLUSH)
        nlb = uniform_int(rng, spec.size_min_pages, spec.size_max_pages)
        slba = rng.randrange(spec.wss_pages - nlb + 1)
        if rng.random() < spec.read_fraction:
            return NvmeCommand(NvmeOpcode.READ, slba=slba, nlb=nlb)
        self._writes_since_flush += 1
        if self.plan.write_zeroes_frac and rng.random() < self.plan.write_zeroes_frac:
            return NvmeCommand(NvmeOpcode.WRITE_ZEROES, slba=slba, nlb=nlb)
        return NvmeCommand(NvmeOpcode.WRITE, slba=slba, nlb=nlb)

    def _submission_budget(self, quantum_us: int) -> int:
        if not self.spec.open_loop:
            return self.qpair.depth  # closed loop: top up to the SQ limit
        self._credit += self.spec.requested_iops * quantum_us / 1_000_000.0
        budget = int(self._credit)
        self._credit -= budget
        return budget

    def run(self, duration_us: int, quantum_us: int = 1 * MSEC) -> None:
        """Drive traffic for ``duration_us`` of simulated time."""
        kernel = self.host.kernel
        deadline = kernel.now + duration_us
        while kernel.now < deadline:
            budget = self._submission_budget(min(quantum_us, deadline - kernel.now))
            while budget > 0 and not self.qpair.sq.full:
                self.ctrl.submit(self.qpair, self._next_command())
                budget -= 1
            self.ctrl.ring_doorbell(self.qpair)
            kernel.run(until=min(deadline, kernel.now + quantum_us))
            self.ctrl.reap(self.qpair)


def run_dirty_shard(plan: DirtyCyclePlan, shard: ShardSpec) -> CampaignResult:
    """Execute one shard's dirty cycles; the engine's worker entry point.

    Cycle indices in the result (and in the command log) are shard-local;
    :func:`repro.engine.plan.merge_shard_results` renumbers them into one
    campaign-wide sequence, exactly as for ordinary fault campaigns.
    """
    config = plan.device_config()
    host = HostSystem(config, seed=shard.seed)
    ctrl = NvmeController(host.ssd)
    qpair = ctrl.create_io_qpair(depth=plan.qdepth)
    analyzer = Analyzer.from_peek(host.ssd.peek)
    cmdlog = CommandLog(plan.shard_cmdlog_path(shard))
    current_cycle = [0]
    ctrl.on_submission = lambda cmd: cmdlog.log_submission(current_cycle[0], cmd)
    ctrl.on_completion = lambda cpl: cmdlog.log_completion(current_cycle[0], cpl)

    result = CampaignResult(label=plan.shard_label(shard))
    worker = _IoWorker(plan, host, ctrl, qpair)
    kernel = host.kernel
    traffic_time = 0
    # Recovery faults key on the *campaign-wide* cycle number, so which
    # cycles get a second fault depends only on the plan — not on how the
    # budget was sharded or how many workers executed it.
    cycle_offset = sum(s.faults for s in plan.shards()[: shard.index])

    host.boot()
    try:
        for cycle_index in range(shard.faults):
            current_cycle[0] = cycle_index

            # 1. Traffic until the drawn fault instant.
            fault_delay = plan.warmup_us + worker.rng.randrange(plan.fault_window_us)
            worker.run(fault_delay)
            fault_time = kernel.now
            health_before = ctrl.get_log_page_smart()
            cmdlog.mark(cycle_index, "power_fault", fault_time)

            # 2. Dirty power cycle: rail falls, device detaches and browns
            # out mid-IO; the host stack aborts whatever never left the SQ.
            host.cut_power()
            host.wait_until_dead()
            ctrl.abort_backlog(qpair)
            ctrl.reap(qpair)  # error CQEs posted at link-down
            host.run_for(calibration.RECOVERY_SETTLE_US)
            host.restore_power()

            # 3. Optional second fault inside the FTL recovery window.
            recovery_faults = 0
            if plan.recovery_fault_every and (
                cycle_offset + cycle_index + 1
            ) % plan.recovery_fault_every == 0:
                _wait_for_recovering(host)
                # Cut early in the window: the rail needs tens of ms to
                # decay to the detach threshold, and only a detach that
                # lands while still RECOVERING interrupts the rebuild.
                host.run_for(max(1, config.recovery_time_us // 8))
                interruptions_before = host.ssd.recovery_interruptions
                cmdlog.mark(cycle_index, "recovery_fault", kernel.now)
                host.cut_power()
                host.wait_until_dead()
                if host.ssd.recovery_interruptions != interruptions_before + 1:
                    raise StressAuditError(
                        f"cycle {cycle_index}: recovery fault did not land "
                        f"inside the recovery window (recovery_time_us="
                        f"{config.recovery_time_us} is shorter than the "
                        "rail's decay-to-detach time)"
                    )
                host.run_for(calibration.RECOVERY_SETTLE_US)
                host.restore_power()
                recovery_faults = 1

            host.wait_until_ready()
            cmdlog.mark(cycle_index, "power_on", kernel.now)

            # 4. SMART audit: the drive's own health log must agree with
            # the faults this harness injected, cycle by cycle.
            faults_injected = 1 + recovery_faults
            health = ctrl.get_log_page_smart()
            if health.unsafe_shutdowns != health_before.unsafe_shutdowns + faults_injected:
                raise StressAuditError(
                    f"cycle {cycle_index}: unsafe shutdowns "
                    f"{health.unsafe_shutdowns} != "
                    f"{health_before.unsafe_shutdowns} + {faults_injected}"
                )
            if health.power_cycles != health_before.power_cycles + faults_injected:
                raise StressAuditError(
                    f"cycle {cycle_index}: power cycles {health.power_cycles} != "
                    f"{health_before.power_cycles} + {faults_injected}"
                )

            # 5. Acked-write audit via command-log replay.
            replayed = cmdlog.replayed()
            audit = audit_cycle(analyzer, replayed.for_cycle(cycle_index), cycle_index)
            cmdlog.mark(cycle_index, "verified", kernel.now)

            damage = host.ssd.last_damage
            result.add_cycle(
                FaultCycleResult(
                    cycle_index=cycle_index,
                    fault_time_us=fault_time,
                    requests_completed=audit.requests_completed,
                    writes_completed=audit.acked_writes,
                    reads_completed=audit.reads_completed,
                    data_failures=audit.data_failures,
                    fwa_failures=audit.fwa,
                    io_errors=audit.io_errors + audit.flush_errors,
                    stranded_map_updates=damage.stranded_map_updates if damage else 0,
                    dirty_pages_lost=damage.dirty_pages_lost if damage else 0,
                    collateral_pages=damage.collateral_pages_corrupted if damage else 0,
                    supercap_pages_saved=damage.supercap_pages_saved if damage else 0,
                    unsafe_shutdowns=faults_injected,
                    intact_writes=audit.intact,
                )
            )
            traffic_time += fault_delay
    finally:
        cmdlog.close()

    result.requests_issued = qpair.submitted
    result.traffic_time_us = traffic_time
    return result
