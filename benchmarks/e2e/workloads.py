"""The five benchmark workloads, built from the library's public API only.

Each workload function takes the seed (and, for tests, a smaller fault
count), runs its campaign to completion, re-checks the per-cycle identities
its plan kind promises, and returns an :class:`Outcome`.  Simulated data
loss is a measured result, never a failure; a failure is a cycle that
breaks an identity, a cycle lost to a failed or quarantined shard, or a
resubmission that does not come back whole from the result cache.

Nothing here imports the paper benches or ``benchmarks/_common.py``, so
edits to those cannot move this yardstick.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from repro.apps import AppPlan
from repro.core.results import CampaignResult
from repro import engine
from repro.engine import CampaignPlan, CampaignService
from repro.ftl import FtlConfig
from repro.ssd import models
from repro.ssd.device import SsdConfig
from repro.stress import DirtyCyclePlan
from repro.topology import TopologyPlan
from repro.units import GIB, KIB, MSEC
from repro.workload.spec import WorkloadSpec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

# Scratch space (the serve workload's result CAS) stays inside the checkout.
WORK_DIR = HERE / "_work"

RECOVERY_FAULT_EVERY = 5
RESUBMITS = 40
# Topology and dirty-cycle faults land 300-500 ms into each cycle's
# traffic: the same mean as the plans' default 200 ms warmup + 400 ms
# window, with half the spread, so host work per cycle depends less on the
# seed.
WARMUP_US = 300 * MSEC
FAULT_WINDOW_US = 200 * MSEC


@dataclass
class Outcome:
    """What one workload run produced, checked."""

    cycles: int
    attempted: int
    failed: int
    digest: str
    counts: Dict[str, int]
    # Set when throughput is measured on a narrower interval than the whole
    # rep (``serve``: the cold submit-to-summary wall time).
    cycle_wall_s: Optional[float] = None
    # ``serve`` only: setup time spent in its worker child, the child's
    # ledger when it was traced, and the median latency of the cache-hit
    # resubmissions.
    child_setup_s: float = 0.0
    child_layers: Optional[Dict[str, float]] = None
    resubmit_ms: float = 0.0


def result_digest(results: Sequence[CampaignResult]) -> str:
    """sha256 over every merged result's summary and per-cycle records."""
    blob = json.dumps(
        [
            {
                "label": result.label,
                "summary": result.summary(),
                "cycles": [asdict(cycle) for cycle in result.cycles],
                "requests_issued": result.requests_issued,
                "traffic_time_us": result.traffic_time_us,
            }
            for result in results
        ],
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _totals(results: Sequence[CampaignResult]) -> Dict[str, int]:
    """Exact simulated counts carried by the merged results."""
    keys = (
        "requests_completed",
        "writes_completed",
        "reads_completed",
        "data_failures",
        "fwa_failures",
        "io_errors",
        "intact_writes",
        "topology_recovered",
        "unsafe_shutdowns",
        "app_promises",
        "app_committed_loss",
    )
    return {
        f"result.{key}": sum(getattr(c, key) for r in results for c in r.cycles)
        for key in keys
    }


def _execute(
    plans: Sequence[CampaignPlan], check: Callable[[CampaignPlan, CampaignResult], int]
) -> Outcome:
    """Run plans one after another at ``jobs=1`` and check every result.

    ``check`` returns how many cycles of one merged result break an
    identity.  Quarantined shards do not stop the run; their cycles are
    missing from the merged result and count as failed.
    """
    results = []
    attempted = failed = 0
    for plan in plans:
        result = engine.run_plan(plan, jobs=1, quarantine=True)
        attempted += plan.faults
        failed += plan.faults - result.faults + check(plan, result)
        results.append(result)
    return Outcome(
        cycles=sum(r.faults for r in results),
        attempted=attempted,
        failed=failed,
        digest=result_digest(results),
        counts={"cycles": sum(r.faults for r in results), **_totals(results)},
    )


def _hostile(name: str, capacity_gib: int, init_ms: int) -> SsdConfig:
    """A zero-luck device: the map journal commits only at FLUSH and no
    torn page is ever recovered, so losses follow protocol, not fortune."""
    return SsdConfig(
        name=name,
        capacity_bytes=capacity_gib * GIB,
        init_time_us=init_ms * MSEC,
        ftl=FtlConfig(
            journal_commit_interval_us=10_000 * MSEC,
            page_recovery_prob=0.0,
            extent_recovery_prob=0.0,
        ),
    )


# -- campaign ----------------------------------------------------------------------


def campaign_plan(seed: int, faults: int, shard_faults: int) -> CampaignPlan:
    """The paper's loop as ``repro campaign`` runs it on ``ssd-a``."""
    return CampaignPlan(
        spec=WorkloadSpec(
            wss_bytes=4 * GIB,
            read_fraction=0.3,
            size_min_bytes=4 * KIB,
            size_max_bytes=128 * KIB,
        ),
        faults=faults,
        device=models.by_name("ssd-a"),
        base_seed=seed,
        label="e2e campaign ssd-a",
        shard_faults=shard_faults,
    )


def check_campaign(plan: CampaignPlan, result: CampaignResult) -> int:
    return sum(
        1
        for c in result.cycles
        if c.reads_completed + c.writes_completed != c.requests_completed
        or c.data_failures + c.fwa_failures > c.writes_completed
    )


def campaign(seed: int, faults: int = 10) -> Outcome:
    return _execute([campaign_plan(seed, faults, shard_faults=2)], check_campaign)


# -- topology ----------------------------------------------------------------------

TOPOLOGIES = {
    "wt": dict(policy="wt", mirror_cache=False, shared_power=True),
    "wb": dict(policy="wb", mirror_cache=False, shared_power=True),
    "wb-mirror": dict(policy="wb", mirror_cache=True, shared_power=False),
}


def check_topology(plan: TopologyPlan, result: CampaignResult) -> int:
    return sum(
        1
        for c in result.cycles
        if c.intact_writes + c.topology_recovered + c.fwa_failures
        != c.writes_completed
        or (plan.policy == "wt" and c.fwa_failures)
    )


def topology(seed: int, faults: int = 4) -> Outcome:
    spec = WorkloadSpec(
        wss_bytes=1 * GIB,
        read_fraction=0.0,
        size_min_bytes=4 * KIB,
        size_max_bytes=64 * KIB,
    )
    plans = [
        TopologyPlan(
            spec=spec,
            faults=faults,
            device=_hostile("cache-leg", 2, 50),
            base_seed=seed,
            label=f"e2e topology {name}",
            warmup_us=WARMUP_US,
            fault_window_us=FAULT_WINDOW_US,
            **knobs,
        )
        for name, knobs in TOPOLOGIES.items()
    ]
    return _execute(plans, check_topology)


# -- dirty_cycle -------------------------------------------------------------------


def check_dirty_cycle(plan: DirtyCyclePlan, result: CampaignResult) -> int:
    broken = sum(
        1
        for c in result.cycles
        if c.intact_writes + c.fwa_failures + c.data_failures != c.writes_completed
    )
    expected_unsafe = result.faults + result.faults // RECOVERY_FAULT_EVERY
    if result.faults == plan.faults and result.unsafe_shutdowns != expected_unsafe:
        broken += result.faults
    return broken


def dirty_cycle(seed: int, faults: int = 20) -> Outcome:
    plan = DirtyCyclePlan(
        spec=WorkloadSpec(
            wss_bytes=4 * GIB,
            read_fraction=0.0,
            size_min_bytes=4 * KIB,
            size_max_bytes=64 * KIB,
        ),
        faults=faults,
        device=models.by_name("ssd-a"),
        base_seed=seed,
        label="e2e dirty_cycle ssd-a",
        shard_faults=-(-faults // 2),
        warmup_us=WARMUP_US,
        fault_window_us=FAULT_WINDOW_US,
        qdepth=32,
        recovery_fault_every=RECOVERY_FAULT_EVERY,
    )
    return _execute([plan], check_dirty_cycle)


# -- apps_wal ----------------------------------------------------------------------


def check_apps_wal(plan: AppPlan, result: CampaignResult) -> int:
    return sum(
        1
        for c in result.cycles
        if c.app_intact
        + c.app_torn_recovered
        + c.app_committed_loss
        + c.app_silent_corruption
        + c.app_recovery_failed
        != c.app_promises
        or (plan.app_fsync and c.app_committed_loss)
    )


def apps_wal(seed: int, faults: int = 40) -> Outcome:
    plans = [
        AppPlan(
            spec=WorkloadSpec(),
            faults=faults,
            device=_hostile("hostile", 1, 30),
            base_seed=seed,
            label=f"e2e apps_wal {'fsync' if fsync else 'nofsync'}",
            shard_faults=25,
            warmup_us=40 * MSEC,
            fault_window_us=150 * MSEC,
            app="wal",
            app_fsync=fsync,
        )
        for fsync in (True, False)
    ]
    return _execute(plans, check_apps_wal)


# -- serve -------------------------------------------------------------------------


def spawn_worker(address: str, trace: bool) -> subprocess.Popen:
    """One persistent ``repro worker`` child, timed (or traced) by ``rep.py``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.Popen(
        [sys.executable, str(HERE / "rep.py"), "worker", address, str(int(trace))],
        cwd=str(ROOT),
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def serve(
    seed: int, faults: int = 6, resubmits: int = RESUBMITS, trace_worker: bool = False
) -> Outcome:
    """Cold submit to a fresh service and worker, then resubmit from the CAS.

    The cold submission is timed from the moment the worker child is
    spawned, so it includes the worker's start, as it does for a user who
    starts a service and a worker and submits.  ``trace_worker`` installs
    the full ledger in the worker too.
    """
    plan = campaign_plan(seed, faults, shard_faults=1)
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_DIR, prefix="serve-") as tmp:
        service = CampaignService(cas_root=Path(tmp) / "cas", announce=io.StringIO())
        service.start()
        worker = None
        try:
            started = time.perf_counter()
            worker = spawn_worker(f"{service.host}:{service.port}", trace_worker)
            cold = engine.submit_campaign(service.address, [plan])
            cold_s = time.perf_counter() - started
            digest = result_digest(cold.results)
            failed = plan.faults - cold.results[0].faults
            failed += check_campaign(plan, cold.results[0])
            latencies: List[float] = []
            for _ in range(resubmits):
                started = time.perf_counter()
                again = engine.submit_campaign(service.address, [plan])
                latencies.append(time.perf_counter() - started)
                if again.executed != 0 or result_digest(again.results) != digest:
                    failed += 1
            stats = service.cas.stats()
        finally:
            # Stopping the service is what ends the persistent worker.
            service.stop()
            if worker is not None:
                try:
                    out, err = worker.communicate(timeout=60)
                except subprocess.TimeoutExpired:
                    worker.kill()
                    worker.communicate()
                    raise
    if worker.returncode != 0:
        raise RuntimeError(f"benchmark worker exited {worker.returncode}: {err}")
    report = json.loads(out.strip().splitlines()[-1])
    counts = {"cycles": cold.results[0].faults, **_totals(cold.results)}
    counts["engine.cas_hits"] = stats["hits"]
    counts["engine.cas_misses"] = stats["misses"]
    return Outcome(
        cycles=cold.results[0].faults,
        attempted=plan.faults + resubmits,
        failed=failed,
        digest=digest,
        counts=counts,
        cycle_wall_s=cold_s,
        child_setup_s=report["setup_s"],
        child_layers=report.get("layers"),
        resubmit_ms=statistics.median(latencies) * 1000.0,
    )


WORKLOADS: Dict[str, Callable[..., Outcome]] = {
    "campaign": campaign,
    "topology": topology,
    "dirty_cycle": dirty_cycle,
    "apps_wal": apps_wal,
    "serve": serve,
}
