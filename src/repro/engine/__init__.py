"""Sharded campaign execution engine.

Every campaign in the repo — CLI, fleet, benches, examples — runs through
this layer:

1. declare a :class:`CampaignPlan` (spec + device + fault budget + seed
   policy + label);
2. the plan splits its fault budget into deterministic shards
   (:meth:`CampaignPlan.shards`);
3. :func:`~repro.engine.supervisor.execute_shards`, the one shard
   driver, runs the shards in-process, on forked workers, or on ``repro
   worker`` processes it serves over TCP (bounded retries with backoff,
   per-shard timeouts that kill the wedged worker, poison-shard
   quarantine, optional write-ahead checkpoint journal with resume,
   graceful SIGINT/SIGTERM);
4. shard results merge in shard order via
   :meth:`~repro.core.results.CampaignResult.merged_with`, with execution
   accounting attached as
   :class:`~repro.core.results.ExecutionStats`.

Because the shard decomposition and per-shard seeds depend only on the
plan, the merged result is identical for any worker count, retry
pattern, or checkpoint/resume split — ``run_plan(plan, jobs=1)``
and a killed-and-resumed ``run_plan(plan, jobs=16)`` agree exactly.

Every engine event is one :class:`ProgressEvent`: the ``progress`` hook
receives it, a :class:`TraceWriter` writes it as one trace line, and
:func:`read_trace`, :class:`TraceCursor`, the live follower
(:mod:`repro.engine.live`) and :func:`submit_campaign`'s stream return
it, equal to what the hook saw.

Example
-------
>>> from repro.engine import CampaignPlan, run_plan
>>> from repro.workload.spec import WorkloadSpec
>>> plan = CampaignPlan(spec=WorkloadSpec(), faults=8, base_seed=7,
...                     shard_faults=2, label="demo")
>>> result = run_plan(plan, jobs=4)  # doctest: +SKIP
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, List, Optional, Sequence, Union

from repro.core.results import CampaignResult, ExecutionStats, ShardTiming
from repro.engine.cas import ResultCAS
from repro.engine.checkpoint import (
    CheckpointJournal,
    compact_journal,
    CompactionStats,
    load_resume_state,
    plans_fingerprint,
    result_schema_version,
    ResumeState,
)
from repro.engine.executors import ShardTask
from repro.engine.plan import (
    CampaignPlan,
    DEFAULT_SHARD_FAULTS,
    derive_shard_seed,
    merge_shard_results,
    ShardSpec,
)
from repro.engine.progress import (
    ConsoleProgress,
    EngineTelemetry,
    fanout_hooks,
    format_eta,
    PLAN_EVENT_INDEX,
    ProgressEvent,
    ProgressHook,
)
from repro.engine.remote import run_worker
from repro.engine.serve import (
    CampaignService,
    follow_campaign,
    run_serve,
    SubmissionOutcome,
    submit_campaign,
)
from repro.engine.supervisor import (
    execute_shards,
    merge_plan_runs,
    RetryPolicy,
    ShardRun,
)
from repro.engine.trace import (
    build_trace_report,
    read_trace,
    TraceCursor,
    TraceReport,
    TraceReportBuilder,
    TraceWriter,
)
from repro.engine.live import (
    FollowSession,
    follow_trace,
    LiveRenderer,
    TraceSource,
)
from repro.engine.wire import parse_address, worker_identity
from repro.errors import CampaignError

PlanDoneHook = Callable[[int, CampaignResult], None]


def run_plans(
    plans: Sequence[CampaignPlan],
    jobs: Optional[int] = None,
    progress: Optional[ProgressHook] = None,
    on_plan_done: Optional[PlanDoneHook] = None,
    checkpoint: Optional[Union[str, Path]] = None,
    resume: bool = False,
    shard_timeout_s: Optional[float] = None,
    quarantine: bool = False,
    retry_policy: Optional[RetryPolicy] = None,
    listen: Optional[str] = None,
    lease_timeout_s: Optional[float] = None,
) -> List[CampaignResult]:
    """Execute several plans as one supervised shard queue, merging per plan.

    Shards of all plans form a single work queue, so a parallel run
    overlaps shards *across* plans (a fleet of six one-shard devices keeps
    six workers busy).  Results come back in plan order; ``on_plan_done``
    fires as soon as each plan's last shard has merged.

    Fault tolerance: shards are executed by :func:`execute_shards` with
    ``retry_policy``'s bounded retries and exponential backoff (the
    :class:`RetryPolicy` defaults when ``None``), per-shard
    ``shard_timeout_s`` enforcement (``jobs > 1`` kills the wedged
    worker, ``listen`` requeues its shard, ``jobs=1`` cannot preempt
    itself), and — with ``quarantine=True`` — poison-shard quarantine
    instead of :class:`~repro.errors.ShardFailureError`.
    ``checkpoint`` names a write-ahead journal file; with ``resume=True``
    shards already journaled for this exact plan batch are loaded instead
    of re-executed, which yields a merged result identical to an
    uninterrupted run.

    Distributed execution: ``listen="HOST:PORT"`` serves the shard queue
    over TCP from an ephemeral
    :class:`~repro.engine.serve.CampaignService` instead of running
    shards locally — start ``repro worker --connect HOST:PORT``
    processes (any machine that can reach the coordinator) to execute
    them.  ``lease_timeout_s`` bounds how long a silent worker holds a
    shard before it is requeued.  Retries, quarantine, checkpoint and
    resume semantics are identical to local execution; ``jobs`` is
    ignored (the worker fleet is the parallelism).
    """
    if lease_timeout_s is not None and listen is None:
        raise CampaignError("lease_timeout_s requires listen=HOST:PORT")
    if resume and checkpoint is None:
        raise CampaignError("resume requires a checkpoint path")
    journal: Optional[CheckpointJournal] = None
    resume_state: Optional[ResumeState] = None
    if checkpoint is not None:
        fingerprint = plans_fingerprint(plans)
        if resume:
            resume_state = load_resume_state(checkpoint, fingerprint)
        journal = CheckpointJournal(checkpoint, fingerprint)
    tasks: List[ShardTask] = [
        (plan_index, plan, shard)
        for plan_index, plan in enumerate(plans)
        for shard in plan.shards()
    ]
    telemetry = EngineTelemetry(
        shards_total=len(tasks),
        cycles_total=sum(shard.faults for _, _, shard in tasks),
        hook=progress,
    )
    runs = execute_shards(
        tasks,
        telemetry,
        jobs=jobs if jobs else 1,
        policy=retry_policy,
        journal=journal,
        resume=resume_state,
        quarantine_enabled=quarantine,
        shard_timeout_s=shard_timeout_s,
        listen=listen,
        lease_timeout_s=lease_timeout_s,
    )
    shard_runs: List[dict] = [{} for _ in plans]
    merged: List[Optional[CampaignResult]] = [None for _ in plans]
    try:
        for (plan_index, shard_index), run in runs:
            plan = plans[plan_index]
            shard_runs[plan_index][shard_index] = run
            if len(shard_runs[plan_index]) == plan.shard_count():
                ordered = [
                    shard_runs[plan_index][i] for i in range(plan.shard_count())
                ]
                merged[plan_index] = merge_plan_runs(plan, ordered)
                telemetry.plan_finished(plan.display_label(), plan.shard_count())
                if on_plan_done is not None:
                    on_plan_done(plan_index, merged[plan_index])
    finally:
        if journal is not None:
            journal.close()
    missing = [index for index, result in enumerate(merged) if result is None]
    if missing:
        raise RuntimeError(f"executor returned no result for plans {missing}")
    return merged  # type: ignore[return-value]


def run_plan(
    plan: CampaignPlan,
    jobs: Optional[int] = None,
    progress: Optional[ProgressHook] = None,
    checkpoint: Optional[Union[str, Path]] = None,
    resume: bool = False,
    shard_timeout_s: Optional[float] = None,
    quarantine: bool = False,
    retry_policy: Optional[RetryPolicy] = None,
    listen: Optional[str] = None,
    lease_timeout_s: Optional[float] = None,
) -> CampaignResult:
    """Execute one plan and return its merged campaign result."""
    return run_plans(
        [plan],
        jobs=jobs,
        progress=progress,
        checkpoint=checkpoint,
        resume=resume,
        shard_timeout_s=shard_timeout_s,
        quarantine=quarantine,
        retry_policy=retry_policy,
        listen=listen,
        lease_timeout_s=lease_timeout_s,
    )[0]


__all__ = [
    "CampaignPlan",
    "CampaignService",
    "CheckpointJournal",
    "CompactionStats",
    "ConsoleProgress",
    "DEFAULT_SHARD_FAULTS",
    "EngineTelemetry",
    "ExecutionStats",
    "FollowSession",
    "LiveRenderer",
    "PLAN_EVENT_INDEX",
    "ProgressEvent",
    "ProgressHook",
    "ResultCAS",
    "ResumeState",
    "RetryPolicy",
    "ShardRun",
    "ShardSpec",
    "ShardTiming",
    "SubmissionOutcome",
    "TraceCursor",
    "TraceReport",
    "TraceReportBuilder",
    "TraceSource",
    "TraceWriter",
    "build_trace_report",
    "compact_journal",
    "derive_shard_seed",
    "fanout_hooks",
    "follow_campaign",
    "follow_trace",
    "format_eta",
    "load_resume_state",
    "merge_plan_runs",
    "merge_shard_results",
    "parse_address",
    "plans_fingerprint",
    "read_trace",
    "result_schema_version",
    "run_plan",
    "run_plans",
    "run_serve",
    "run_worker",
    "submit_campaign",
    "worker_identity",
]
