"""Calibration constants and their paper anchors.

Every number the simulation cannot derive from first principles is fitted to
a measurement the paper reports.  This module is the single registry: each
constant says *what the paper measured* and *which component consumes it*.
Benches print these anchors next to reproduced values so drift is visible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.units import MSEC, SEC


@dataclass(frozen=True)
class Anchor:
    """One calibrated constant with its provenance."""

    value: float
    unit: str
    paper_anchor: str
    consumer: str


ANCHORS: Dict[str, Anchor] = {
    "psu_unloaded_discharge_ms": Anchor(
        1400,
        "ms",
        "Fig. 4a: unloaded PSU discharges within ~1400 ms",
        "repro.power.psu.DischargeProfile (UNLOADED_HOLDUP_US/UNLOADED_TAU_US)",
    ),
    "psu_loaded_discharge_ms": Anchor(
        900,
        "ms",
        "Fig. 4b / §III-A2: with one SSD the discharge takes ~900 ms",
        "repro.power.psu.DischargeProfile.for_load(1.0)",
    ),
    "host_detach_ms": Anchor(
        40,
        "ms",
        "Fig. 4b / §III-A2: SSD unavailable at 4.5 V after ~40 ms",
        "repro.ssd.power_state.PowerThresholds.detach_volts + PSU waveform",
    ),
    "detach_voltage": Anchor(
        4.5,
        "V",
        "§III-A2: 'SSD turns off in 4.5 V'",
        "repro.ssd.power_state.PowerThresholds.detach_volts",
    ),
    "post_ack_window_ms": Anchor(
        700,
        "ms",
        "§IV-A: corruption observed up to ~700 ms after the request's ACK",
        "repro.ftl.FtlConfig.journal_commit_interval_us (map staleness bound)",
    ),
    "failures_per_fault_write_mixed": Anchor(
        2.0,
        "failures/fault",
        "§IV-B: 'about two data failure per power fault' (write-heavy, 4K-1M)",
        "FtlConfig.page_recovery_prob (per-update loss ~1.5%) x update rate",
    ),
    "responded_iops_saturation": Anchor(
        6900,
        "IOPS",
        "§IV-F: responded IOPS saturates around 6900",
        "SsdConfig.interface_overhead_us=140 + link transfer time (4 KiB)",
    ),
    "sequential_excess_percent": Anchor(
        14,
        "%",
        "§IV-D: sequential workloads show ~14% more data failures",
        "FtlConfig.extent_recovery_prob vs page_recovery_prob (shared-entry loss)",
    ),
    "request_timeout_s": Anchor(
        30,
        "s",
        "§III-B: '30 seconds timeout for delayed requests'",
        "repro.trace.btt.DELAYED_REQUEST_TIMEOUT_US (Btt and BlockLayer)",
    ),
    "unsafe_shutdowns_per_dirty_cycle": Anchor(
        1,
        "count/cycle",
        "NVMe SMART/Health log: each dirty power cycle increments the "
        "Unsafe Shutdowns field by exactly one (qualification-rig invariant)",
        "repro.ssd.device unsafe_shutdowns counter + repro.stress SMART audit",
    ),
    "wt_zero_app_loss": Anchor(
        0,
        "writes/campaign",
        "Ahmadian et al. (arXiv:1912.01555): a write-through cache "
        "acknowledges only after the durable tier commits, so cache-tier "
        "power faults cannot lose acknowledged writes",
        "repro.topology audit: WT campaigns must report zero app-visible loss",
    ),
    "wb_mirror_recovers_all_fwa": Anchor(
        0,
        "writes/campaign",
        "Ahmadian et al. (arXiv:1912.01555): mirrored write-back cache legs "
        "on independent power rails keep a surviving copy of every acked "
        "write a faulted leg loses",
        "repro.topology audit: device FWAs classify topology-recovered, not lost",
    ),
    "wal_fsync_zero_commit_loss": Anchor(
        0,
        "commits/campaign",
        "§IV-A remedy, application-level: a WAL that acks COMMIT only after "
        "fsync never loses an acknowledged transaction to a power fault — "
        "the FWA failures the paper measures all live in the post-ack, "
        "pre-flush window",
        "repro.apps semantic audit: fsync WAL campaigns report zero committed loss",
    ),
}


# ---------------------------------------------------------------------------
# Canonical campaign scales.  The paper's experiments use 200-800+ faults
# over 16k-64k+ requests.  A fault cycle must run longer than the journal
# commit interval so the stranded-update population reaches steady state;
# benches scale the *fault count* down (REPRO_BENCH_SCALE), never the cycle
# length, so per-fault statistics stay calibrated.
# ---------------------------------------------------------------------------

CYCLE_MIN_US = 750 * MSEC
"""Earliest fault instant after traffic starts (just past one commit)."""

CYCLE_MAX_US = 1_500 * MSEC
"""Latest fault instant — keeps the fault uniform over the commit phase."""

RECOVERY_SETTLE_US = 1_000 * MSEC
"""Rail-discharge settle time before power is restored (paper: 900 ms+)."""

READY_TIMEOUT_US = 10 * SEC
"""Deadline for a device to come READY once power is restored."""

PAPER_FAULTS = {
    "fig5_request_type": 300,
    "fig6_wss": 200,
    "fig7_request_size": 800,
    "fig8_iops": 600,
    "fig9_sequences": 300,
    "sec4d_pattern": 300,
    "dirty_cycle": 300,
    "cache_topology": 300,
    "apps_wal": 300,
}
"""Fault counts the paper reports per experiment family."""


def scaled_faults(paper_count: int, scale: float) -> int:
    """Fault budget for a bench run at ``scale`` of the paper's campaign."""
    return max(4, round(paper_count * scale))
