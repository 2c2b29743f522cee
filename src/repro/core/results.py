"""Result records for fault-injection campaigns."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

from repro.units import to_sec


@dataclass
class FaultCycleResult:
    """Outcome of one injection cycle (one power fault)."""

    cycle_index: int
    fault_time_us: int
    requests_completed: int
    writes_completed: int
    reads_completed: int
    data_failures: int
    fwa_failures: int
    io_errors: int
    stranded_map_updates: int = 0
    dirty_pages_lost: int = 0
    collateral_pages: int = 0
    supercap_pages_saved: int = 0
    unsafe_shutdowns: int = 0
    intact_writes: int = 0
    topology_recovered: int = 0
    # Semantic (application-level) outcome counters, filled by app campaigns
    # (see repro.apps.audit): every acked application promise of the cycle is
    # classified into exactly one of the five verdict classes, so
    # app_promises == app_intact + app_torn_recovered + app_committed_loss
    #                 + app_silent_corruption + app_recovery_failed.
    app_promises: int = 0
    app_intact: int = 0
    app_torn_recovered: int = 0
    app_committed_loss: int = 0
    app_silent_corruption: int = 0
    app_recovery_failed: int = 0

    @property
    def total_data_loss(self) -> int:
        """Data failures + FWA (both are host-visible data loss)."""
        return self.data_failures + self.fwa_failures


@dataclass(frozen=True)
class ShardTiming:
    """Execution timing of one shard, as observed by the supervisor.

    ``pickup_latency_s`` is submit-to-pickup (how long the shard queued
    behind other work); ``duration_s`` is pickup-to-completion of the
    *successful* attempt.  Both are ``None`` when the execution path could
    not observe them (resumed shards never ran).  Timing never feeds result numbers — it exists so
    paper-scale sweeps can be profiled for stragglers.
    """

    shard_index: int
    status: str  # "completed" | "resumed" | "quarantined"
    attempts: int = 1
    pickup_latency_s: Optional[float] = None
    duration_s: Optional[float] = None


@dataclass
class ExecutionStats:
    """How a campaign's shards were *executed* (degraded-run accounting).

    Simulation outcomes (cycles, failure counts) are deterministic in the
    plan; execution is not — workers crash, time out, get retried, shards
    may be loaded from a checkpoint or quarantined.  This record keeps that
    operational story separate from :meth:`CampaignResult.summary`, so a
    resumed or retried run still produces *identical* result numbers while
    remaining auditable.  (``timings`` likewise stays out of ``summary()``:
    wall-clock varies run to run, result numbers must not.)
    """

    shards_completed: int = 0
    shards_resumed: int = 0
    shards_quarantined: int = 0
    retries: int = 0
    attempts: List[int] = field(default_factory=list)
    quarantined: List[str] = field(default_factory=list)
    timings: List[ShardTiming] = field(default_factory=list)

    @property
    def degraded(self) -> bool:
        """True when any shard was lost to quarantine."""
        return self.shards_quarantined > 0

    def copy(self) -> "ExecutionStats":
        """Independent copy (fresh lists)."""
        dup = replace(self)
        dup.attempts = list(self.attempts)
        dup.quarantined = list(self.quarantined)
        dup.timings = list(self.timings)
        return dup

    def merged_with(self, other: "ExecutionStats") -> "ExecutionStats":
        """Combine accounting of two merged campaigns."""
        merged = self.copy()
        merged.shards_completed += other.shards_completed
        merged.shards_resumed += other.shards_resumed
        merged.shards_quarantined += other.shards_quarantined
        merged.retries += other.retries
        merged.attempts.extend(other.attempts)
        merged.quarantined.extend(other.quarantined)
        merged.timings.extend(other.timings)
        return merged

    def summary(self) -> Dict[str, object]:
        """Flat dict for console reporting."""
        return {
            "shards_completed": self.shards_completed,
            "shards_resumed": self.shards_resumed,
            "shards_quarantined": self.shards_quarantined,
            "retries": self.retries,
            "quarantined": list(self.quarantined),
        }


@dataclass
class CampaignResult:
    """Aggregated outcome of a whole campaign."""

    label: str
    cycles: List[FaultCycleResult] = field(default_factory=list)
    traffic_time_us: int = 0
    requests_issued: int = 0
    execution: ExecutionStats = field(default_factory=ExecutionStats)

    # -- accumulation ---------------------------------------------------------------

    def add_cycle(self, cycle: FaultCycleResult) -> None:
        """Append one fault cycle's outcome."""
        self.cycles.append(cycle)

    # -- totals ----------------------------------------------------------------------

    @property
    def faults(self) -> int:
        """Number of injected faults."""
        return len(self.cycles)

    @property
    def requests_completed(self) -> int:
        """Requests acknowledged across all cycles."""
        return sum(c.requests_completed for c in self.cycles)

    @property
    def data_failures(self) -> int:
        """Outright corruption count (checksum mismatch, not old data)."""
        return sum(c.data_failures for c in self.cycles)

    @property
    def fwa_failures(self) -> int:
        """False Write-Acknowledge count (old data intact at the address)."""
        return sum(c.fwa_failures for c in self.cycles)

    @property
    def io_errors(self) -> int:
        """Commands lost to device unavailability."""
        return sum(c.io_errors for c in self.cycles)

    @property
    def total_data_loss(self) -> int:
        """Data failures + FWA."""
        return self.data_failures + self.fwa_failures

    @property
    def unsafe_shutdowns(self) -> int:
        """SMART unsafe-shutdown increments across all cycles (stress runs)."""
        return sum(c.unsafe_shutdowns for c in self.cycles)

    @property
    def intact_writes(self) -> int:
        """Acked writes verified intact across all cycles (stress runs)."""
        return sum(c.intact_writes for c in self.cycles)

    @property
    def topology_recovered(self) -> int:
        """Acked writes that lost their device copy but were recovered by
        topology redundancy (mirror leg / backing store) — topology runs."""
        return sum(c.topology_recovered for c in self.cycles)

    # -- semantic (application-level) totals — app campaigns ------------------------

    @property
    def app_promises(self) -> int:
        """Application promises audited across all cycles (app runs)."""
        return sum(c.app_promises for c in self.cycles)

    @property
    def app_intact(self) -> int:
        """Promises whose content was recovered exactly from the primary copy."""
        return sum(c.app_intact for c in self.cycles)

    @property
    def app_torn_recovered(self) -> int:
        """Promises whose primary on-disk record was damaged but whose content
        the app's own recovery restored from a redundant copy."""
        return sum(c.app_torn_recovered for c in self.cycles)

    @property
    def app_committed_loss(self) -> int:
        """Acked promises whose content is gone — and detectably so."""
        return sum(c.app_committed_loss for c in self.cycles)

    @property
    def app_silent_corruption(self) -> int:
        """Acked promises whose recovery served wrong content with no error."""
        return sum(c.app_silent_corruption for c in self.cycles)

    @property
    def app_recovery_failed(self) -> int:
        """Promises orphaned because the app's recovery path itself failed."""
        return sum(c.app_recovery_failed for c in self.cycles)

    # -- rates ------------------------------------------------------------------------

    @property
    def data_loss_per_fault(self) -> float:
        """The paper's headline ratio ('data failure per power fault')."""
        if not self.cycles:
            return 0.0
        return self.total_data_loss / len(self.cycles)

    @property
    def io_errors_per_fault(self) -> float:
        """IO errors per injected fault."""
        if not self.cycles:
            return 0.0
        return self.io_errors / len(self.cycles)

    @property
    def responded_iops(self) -> float:
        """Completed requests per second of traffic time (Fig. 8's y-axis)."""
        if self.traffic_time_us <= 0:
            return 0.0
        return self.requests_completed / to_sec(self.traffic_time_us)

    @property
    def fwa_fraction(self) -> float:
        """Share of data loss that is FWA (Fig. 7's stacked component)."""
        total = self.total_data_loss
        return self.fwa_failures / total if total else 0.0

    def summary(self) -> Dict[str, float]:
        """Flat dict for table rendering."""
        return {
            "faults": self.faults,
            "requests_completed": self.requests_completed,
            "data_failures": self.data_failures,
            "fwa": self.fwa_failures,
            "total_data_loss": self.total_data_loss,
            "io_errors": self.io_errors,
            "loss_per_fault": round(self.data_loss_per_fault, 3),
            "io_errors_per_fault": round(self.io_errors_per_fault, 3),
            "responded_iops": round(self.responded_iops, 1),
            "fwa_fraction": round(self.fwa_fraction, 3),
        }

    def clone(self, label: Optional[str] = None) -> "CampaignResult":
        """Field-complete copy (fresh cycle list, same cycle records).

        Built on :func:`dataclasses.replace` so a field added to this class
        is carried along automatically instead of being silently dropped by
        hand-written copies (merge code relies on this).
        """
        copy = replace(self, label=self.label if label is None else label)
        copy.cycles = list(self.cycles)
        copy.execution = self.execution.copy()
        return copy

    def merged_with(self, other: "CampaignResult") -> "CampaignResult":
        """Combine two campaigns (e.g. the two units of one Table I model)."""
        merged = self.clone()
        merged.cycles = list(self.cycles) + list(other.cycles)
        merged.traffic_time_us = self.traffic_time_us + other.traffic_time_us
        merged.requests_issued = self.requests_issued + other.requests_issued
        merged.execution = self.execution.merged_with(other.execution)
        return merged
