"""Application fault campaigns as engine plans.

:class:`AppPlan` packages repeated application power-fault cycles as a
:class:`~repro.engine.plan.CampaignPlan` subclass, so the entire engine
surface — sharding, ``--jobs`` worker processes, checkpoint/``--resume``,
retry, quarantine, ``--trace`` — applies to app campaigns unchanged, and
``jobs=1`` and ``jobs=N`` produce bit-identical merged results by
construction (executors only ever call :meth:`AppPlan.run_shard`).

One cycle: boot a fresh host + :class:`~repro.fs.FileSystem`, run the
app's operation loop, cut power at an instant drawn from a dedicated
fault stream, let the rails decay, power back on, remount a *fresh*
filesystem object over the surviving device state, run the app's own
recovery, and classify every acked promise with the semantic auditor
(:mod:`repro.apps.audit`).  Each cycle is a pure function of
``(shard seed, cycle index, fault delay)`` — a fresh host per cycle, the
fault delay drawn up front — which is also what makes
``repro apps run --explain N`` cheap: any single cycle can be replayed
in isolation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.apps.audit import SemanticAudit, audit_app
from repro.apps.base import AppRecorder, AppWorkload
from repro.apps.hpc import CheckpointLoop
from repro.apps.kv import KvStore
from repro.apps.wal import WalDatabase
from repro.core import calibration
from repro.core.results import CampaignResult, FaultCycleResult
from repro.engine.plan import CampaignPlan, ShardSpec, derive_shard_seed
from repro.errors import CampaignError, ReproError
from repro.fs import FileSystem, FsError
from repro.host.system import HostSystem
from repro.rand import RandomStreams
from repro.units import MSEC

APPS = ("wal", "kv", "hpc")


@dataclass(frozen=True)
class AppPlan(CampaignPlan):
    """A :class:`CampaignPlan` whose shards run application fault cycles.

    ``faults`` is the number of power-fault cycles.  Extra knobs:

    - ``app``: which workload model, one of ``wal`` / ``kv`` / ``hpc``;
    - ``journal_blocks``: filesystem journal size (small values exercise
      journal wrap + checkpoint durability under the apps);
    - ``app_fsync``: the app's durability discipline — ``False`` models
      the classic mis-configured application (ack before flush), the
      committed-loss contrast leg;
    - ``app_checksums``: KV record sealing — ``False`` models a store
      that trusts storage, the silent-corruption contrast leg;
    - ``fault_window_us``: the fault instant is drawn uniformly from
      ``[warmup_us, warmup_us + fault_window_us)`` of each cycle;
    - per-app shape knobs (``txn_rows`` … ``keep_generations``).

    The inherited ``spec`` is carried for engine bookkeeping (labels,
    fingerprints) but app cycles generate their own operation stream.
    """

    app: str = "wal"
    fault_window_us: int = 150 * MSEC
    journal_blocks: int = 64
    app_fsync: bool = True
    app_checksums: bool = True
    # WAL shape.
    txn_rows: int = 3
    snapshot_every: int = 8
    # KV shape.
    kv_keys: int = 48
    flush_every: int = 4
    compact_every: int = 40
    # HPC shape.
    state_blocks: int = 6
    keep_generations: int = 3

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.app not in APPS:
            raise CampaignError(
                f"app must be one of {'/'.join(APPS)}, got {self.app!r}"
            )
        if self.fault_window_us <= 0:
            raise CampaignError("fault window must be positive")
        if self.journal_blocks <= 0:
            raise CampaignError("journal_blocks must be positive")
        for name in (
            "txn_rows",
            "snapshot_every",
            "kv_keys",
            "flush_every",
            "compact_every",
            "state_blocks",
            "keep_generations",
        ):
            if getattr(self, name) <= 0:
                raise CampaignError(f"{name} must be positive")

    def display_label(self) -> str:
        if self.label:
            return self.label
        device = self.device.name if self.device is not None else "generic"
        fsync = "fsync" if self.app_fsync else "nofsync"
        return f"apps {self.app} {fsync} device={device}"

    def build_app(
        self, rng, run_id: str, recorder: Optional[AppRecorder] = None
    ) -> AppWorkload:
        """A fresh workload model instance for one cycle."""
        if self.app == "wal":
            return WalDatabase(
                rng,
                run_id,
                txn_rows=self.txn_rows,
                snapshot_every=self.snapshot_every,
                fsync_commits=self.app_fsync,
                recorder=recorder,
            )
        if self.app == "kv":
            return KvStore(
                rng,
                run_id,
                kv_keys=self.kv_keys,
                flush_every=self.flush_every,
                compact_every=self.compact_every,
                checksum_records=self.app_checksums,
                fsync_batches=self.app_fsync,
                recorder=recorder,
            )
        return CheckpointLoop(
            rng,
            run_id,
            state_blocks=self.state_blocks,
            keep_generations=self.keep_generations,
            fsync_data=self.app_fsync,
            recorder=recorder,
        )

    def run_shard(self, shard: ShardSpec) -> CampaignResult:
        return run_app_shard(self, shard)


@dataclass
class CycleDebris:
    """Post-cycle wreckage kept for ``--explain`` (never for results)."""

    app: AppWorkload
    audit: SemanticAudit
    fs: Optional[FileSystem]  # the recovery-mounted view (None if mount failed)
    mount_error: str = ""
    fault_time_us: int = 0


def run_app_cycle(
    plan: AppPlan,
    shard_seed: int,
    local_index: int,
    fault_delay: int,
    recorder: Optional[AppRecorder] = None,
) -> Tuple[FaultCycleResult, CycleDebris]:
    """One complete app fault cycle, a pure function of its arguments.

    ``fault_delay`` is the offset past warmup at which power is cut (the
    shard loop draws it from the shard's fault stream; ``--explain``
    replays the same draws to reproduce any one cycle in isolation).
    """
    host = HostSystem(
        config=plan.device,
        seed=derive_shard_seed(shard_seed, local_index + 1),
    )
    host.boot()
    fs = FileSystem(host, journal_blocks=plan.journal_blocks)
    fs.format()

    run_id = f"{shard_seed:x}.{local_index}"
    app = plan.build_app(host.streams.stream("apps-io"), run_id, recorder)
    app.setup(fs)

    fault_at = host.kernel.now + plan.warmup_us + fault_delay
    host.kernel.schedule_at(fault_at, host.cut_power)
    try:
        while True:
            app.step(fs)
    except ReproError:
        if host.kernel.now < fault_at:
            raise  # a real failure before the fault ever fired
    host.wait_until_dead()
    host.run_for(calibration.RECOVERY_SETTLE_US)
    host.restore_power()
    host.wait_until_ready()

    # The app's recovery sees only what survived on the device: a fresh
    # filesystem object (no volatile state carried over) sharing the CAS.
    recovered: Optional[FileSystem] = FileSystem(
        host, journal_blocks=plan.journal_blocks, cas=fs.cas
    )
    mount_error = ""
    try:
        recovered.mount()
    except FsError as exc:
        mount_error = str(exc)
        audit = SemanticAudit.all_failed(
            app.promises.outstanding(), f"mount failed: {exc}"
        )
        recovered = None
    else:
        audit = audit_app(app, recovered)

    cycle = FaultCycleResult(
        cycle_index=local_index,
        fault_time_us=fault_at,
        requests_completed=app.ops_completed,
        writes_completed=app.promises.acks,
        reads_completed=0,
        data_failures=audit.silent_corruption,
        fwa_failures=audit.committed_loss,
        io_errors=audit.recovery_failed,
        unsafe_shutdowns=1,
        intact_writes=audit.intact,
        topology_recovered=audit.torn_recovered,
        app_promises=audit.promises,
        app_intact=audit.intact,
        app_torn_recovered=audit.torn_recovered,
        app_committed_loss=audit.committed_loss,
        app_silent_corruption=audit.silent_corruption,
        app_recovery_failed=audit.recovery_failed,
    )
    debris = CycleDebris(
        app=app,
        audit=audit,
        fs=recovered,
        mount_error=mount_error,
        fault_time_us=fault_at,
    )
    return cycle, debris


def run_app_shard(plan: AppPlan, shard: ShardSpec) -> CampaignResult:
    """Execute one shard's app fault cycles; the engine's entry point.

    Cycle indices in the result are shard-local;
    :func:`repro.engine.plan.merge_shard_results` renumbers them into one
    campaign-wide sequence.  The fault schedule comes from a dedicated
    per-shard stream, so it is identical across app configurations for a
    given seed (the fsync/no-fsync contrast sees the same fault instants).
    """
    fault_rng = RandomStreams(shard.seed).stream("apps-fault")
    result = CampaignResult(label=plan.shard_label(shard))
    traffic_time = 0
    for local_index in range(shard.faults):
        fault_delay = fault_rng.randrange(plan.fault_window_us)
        cycle, _ = run_app_cycle(plan, shard.seed, local_index, fault_delay)
        result.add_cycle(cycle)
        result.requests_issued += cycle.requests_completed
        traffic_time += plan.warmup_us + fault_delay
    result.traffic_time_us = traffic_time
    return result
