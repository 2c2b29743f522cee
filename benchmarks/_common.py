"""Shared helpers for the reproduction benches.

Every bench regenerates one table or figure of the paper: it runs the
corresponding campaign(s), prints the measured rows next to the paper's
anchors, and asserts the *shape* claims (who wins, roughly by what factor,
where crossovers fall) — absolute counts are not expected to match a
hardware testbed.

Scaling: the paper's campaigns run 200-800 faults per experiment.  Set
``REPRO_BENCH_SCALE`` (default 0.04) to scale the *fault count*; the cycle
length is never scaled because per-fault statistics need the stranded-update
population at steady state (see ``repro.core.calibration``).

Parallelism: campaigns execute through :mod:`repro.engine`.  Set
``REPRO_BENCH_JOBS=N`` to run each campaign's shards over N worker
processes (paper-scale budgets are embarrassingly parallel).  The shard
plan is fixed at ``BENCH_SHARD_FAULTS`` faults per shard regardless of
job count, so bench results depend only on the scale — never on how many
workers executed them.  Campaigns of ``<= BENCH_SHARD_FAULTS`` faults
(every family at the default smoke scale) are a single shard seeded
exactly like the legacy serial runner, so historical numbers are
unchanged.  ``REPRO_BENCH_WORKERS=HOST:PORT`` instead serves shards to
``repro worker`` processes over TCP (see :func:`bench_listen`) — same
numbers, other people's machines.

Fault tolerance: campaigns run under the engine's shard supervisor with
its default retry budget, and ``REPRO_BENCH_CHECKPOINT`` names a
directory of per-campaign shard journals so a killed paper-scale sweep
resumes instead of restarting — neither affects result numbers (retried
shards are deterministic).

Profiling: ``REPRO_BENCH_TRACE`` names a directory of per-campaign
telemetry traces (``<dir>/<label-slug>.trace.jsonl``, one JSONL record
per shard event); feed any of them to ``repro trace report`` to find the
stragglers, retries, and checkpoint lag of a paper-scale sweep — or
watch the whole sweep live from one terminal with ``repro trace report
--follow <dir>`` (directory mode multiplexes every trace and discovers
new campaigns as they start).
"""

from __future__ import annotations

import os
import sys
from pathlib import Path
from typing import Dict, List, Optional

from repro.core import calibration
from repro.core.results import CampaignResult
from repro.engine import CampaignPlan, run_plan, TraceWriter
from repro.ssd.device import SsdConfig
from repro.workload.spec import WorkloadSpec


def bench_scale() -> float:
    """Campaign scale factor from the environment (paper scale = 1.0)."""
    return float(os.environ.get("REPRO_BENCH_SCALE", "0.04"))


BENCH_SHARD_FAULTS = 25
"""Fixed engine shard size for benches (jobs-independent, so results are
identical for any ``REPRO_BENCH_JOBS``; paper-scale budgets of 200-800
faults split into 8-32 parallelisable shards)."""


def bench_jobs() -> int:
    """Engine worker count from the environment (default serial)."""
    return max(1, int(os.environ.get("REPRO_BENCH_JOBS", "1")))


def bench_listen() -> Optional[str]:
    """Distributed-coordinator address (``REPRO_BENCH_WORKERS``).

    Set ``REPRO_BENCH_WORKERS=HOST:PORT`` to serve every bench campaign's
    shards to ``repro worker --connect HOST:PORT`` processes over TCP
    instead of executing locally (port 0 picks a free port, printed to
    stderr).  Results are identical to local runs — the shard plan and
    seeds never depend on who executes them — so a paper-scale sweep can
    borrow machines without changing a single number.
    """
    return os.environ.get("REPRO_BENCH_WORKERS") or None


def bench_checkpoint_dir() -> Optional[str]:
    """Journal directory for paper-scale runs (``REPRO_BENCH_CHECKPOINT``).

    When set, every bench campaign journals its shards to
    ``<dir>/<label-slug>.jsonl`` and transparently resumes from it, so a
    killed paper-scale sweep (`REPRO_BENCH_SCALE=1.0` is hours of work)
    restarts from the last committed shard instead of from zero.
    """
    return os.environ.get("REPRO_BENCH_CHECKPOINT") or None


def bench_trace_dir() -> Optional[str]:
    """Telemetry trace directory (``REPRO_BENCH_TRACE``).

    When set, every bench campaign appends its per-shard engine events to
    ``<dir>/<label-slug>.trace.jsonl`` — profile them afterwards with
    ``repro trace report``, or watch the sweep live with
    ``repro trace report --follow <dir>``.
    """
    return os.environ.get("REPRO_BENCH_TRACE") or None


_follow_hint_emitted = False


def _emit_follow_hint(directory: str) -> None:
    """One stderr hint per process: a traced sweep can be watched live."""
    global _follow_hint_emitted
    if _follow_hint_emitted:
        return
    _follow_hint_emitted = True
    print(
        f"[trace] watch this sweep live: "
        f"python -m repro trace report --follow {directory}",
        file=sys.stderr,
    )


def _campaign_slug(label: str) -> str:
    return "".join(c if c.isalnum() or c in "-_" else "_" for c in label) or "campaign"


def _campaign_file(directory: Optional[str], label: str, suffix: str) -> Optional[str]:
    if directory is None:
        return None
    path = Path(directory)
    path.mkdir(parents=True, exist_ok=True)
    return str(path / f"{_campaign_slug(label)}{suffix}")


def _checkpoint_path(label: str) -> Optional[str]:
    return _campaign_file(bench_checkpoint_dir(), label, ".jsonl")


def _trace_path(label: str) -> Optional[str]:
    return _campaign_file(bench_trace_dir(), label, ".trace.jsonl")


def fault_budget(experiment_key: str) -> int:
    """Scaled fault count for one of the paper's experiment families."""
    paper = calibration.PAPER_FAULTS.get(experiment_key, 300)
    return calibration.scaled_faults(paper, bench_scale())


def run_campaign(
    spec: WorkloadSpec,
    faults: int,
    seed: int,
    config: Optional[SsdConfig] = None,
    label: str = "",
    jobs: Optional[int] = None,
) -> CampaignResult:
    """One engine-backed campaign (``REPRO_BENCH_JOBS`` controls workers).

    The shard plan is fixed (``BENCH_SHARD_FAULTS`` per shard) so the
    result is identical for any job count; budgets at or below the shard
    size run as one shard seeded exactly like the legacy serial runner.
    """
    plan = CampaignPlan(
        spec=spec,
        faults=faults,
        device=config,
        base_seed=seed,
        label=label or spec.describe(),
        shard_faults=BENCH_SHARD_FAULTS,
    )
    return run_engine_plan(plan, jobs=jobs)


def run_engine_plan(plan: CampaignPlan, jobs: Optional[int] = None) -> CampaignResult:
    """Run any engine plan under the bench environment knobs.

    Works for :class:`CampaignPlan` and its subclasses (the stress
    harness's ``DirtyCyclePlan`` runs through here unchanged): the
    checkpoint, trace and distributed-worker env vars all apply, and none
    of them affect result numbers.
    """
    jobs = bench_jobs() if jobs is None else max(1, jobs)
    checkpoint = _checkpoint_path(plan.label)
    trace = _trace_path(plan.label)
    if trace is not None:
        _emit_follow_hint(bench_trace_dir())
    tracer = TraceWriter(trace) if trace is not None else None
    try:
        return run_plan(
            plan,
            jobs=jobs,
            progress=tracer,
            checkpoint=checkpoint,
            resume=checkpoint is not None,
            listen=bench_listen(),
        )
    finally:
        if tracer is not None:
            tracer.close()


def print_banner(title: str, anchor_keys: List[str]) -> None:
    """Print the experiment header plus its calibration anchors."""
    print()
    print("=" * 78)
    print(title)
    print("=" * 78)
    for key in anchor_keys:
        anchor = calibration.ANCHORS[key]
        print(f"  paper anchor [{key}]: {anchor.value} {anchor.unit} — {anchor.paper_anchor}")


def summarize_rows(results: Dict[str, CampaignResult]) -> List[List]:
    """Standard result rows: label, faults, failures, rates."""
    rows = []
    for label, result in results.items():
        summary = result.summary()
        rows.append(
            [
                label,
                summary["faults"],
                summary["data_failures"],
                summary["fwa"],
                summary["io_errors"],
                summary["loss_per_fault"],
            ]
        )
    return rows


RESULT_HEADERS = ["workload", "faults", "data failures", "FWA", "IO errors", "loss/fault"]
