"""Multi-device campaign fleets.

The paper's population is six drives; campaigns across device zoos are a
recurring need (Table I regeneration, vendor comparisons, A/B firmware
studies).  ``run_fleet`` is a thin planner over :mod:`repro.engine`: it
builds one :class:`~repro.engine.plan.CampaignPlan` per device config with
disjoint seeds and hands the whole batch to an engine executor, so a fleet
parallelises across devices (and, with ``shard_faults``, within them) by
passing ``jobs``.  ``merge_by_model`` folds per-unit results into
per-model aggregates (the paper reports per model, two units each).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.core.results import CampaignResult
from repro.errors import CampaignError
from repro.ssd.device import SsdConfig
from repro.workload.spec import WorkloadSpec

FLEET_SEED_STRIDE = 101
"""Base-seed spacing between fleet devices (legacy-compatible)."""


def plan_fleet(
    configs: Dict[str, SsdConfig],
    spec: WorkloadSpec,
    faults: int,
    base_seed: int = 0,
    shard_faults: Optional[int] = None,
) -> list:
    """One :class:`CampaignPlan` per device, identical workload, disjoint seeds.

    Devices are planned in sorted-name order; device ``i`` gets base seed
    ``base_seed + i * FLEET_SEED_STRIDE``.  With ``shard_faults=None`` each
    device is a single shard, which reproduces the legacy serial fleet
    exactly while still letting a parallel executor overlap devices.
    """
    from repro.engine import CampaignPlan

    if not configs:
        raise CampaignError("fleet needs at least one device")
    if faults <= 0:
        raise CampaignError("fleet needs a positive fault budget")
    return [
        CampaignPlan(
            spec=spec,
            faults=faults,
            device=config,
            base_seed=base_seed + index * FLEET_SEED_STRIDE,
            label=name,
            shard_faults=shard_faults,
        )
        for index, (name, config) in enumerate(sorted(configs.items()))
    ]


def run_fleet(
    configs: Dict[str, SsdConfig],
    spec: WorkloadSpec,
    faults: int,
    base_seed: int = 0,
    progress: Optional[Callable[[str, CampaignResult], None]] = None,
    jobs: Optional[int] = None,
    shard_faults: Optional[int] = None,
    checkpoint=None,
    resume: bool = False,
    retry_policy=None,
    shard_timeout_s: Optional[float] = None,
    quarantine: bool = False,
    engine_progress=None,
    listen: Optional[str] = None,
    lease_timeout_s: Optional[float] = None,
) -> Dict[str, CampaignResult]:
    """One campaign per device through the execution engine.

    ``progress`` (if given) is invoked as each device's plan finishes —
    examples use it for console feedback on long fleets.
    ``engine_progress`` is the engine's per-shard telemetry hook
    (:data:`repro.engine.ProgressHook` — e.g. a ``ConsoleProgress`` or a
    ``TraceWriter``), distinct from the per-device ``progress`` callback.
    ``jobs > 1`` executes the fleet's shards on forked workers; results
    are identical to ``jobs=1`` because the plans (and their shard seeds)
    don't depend on the worker count.

    Fault tolerance: ``checkpoint``/``resume`` journal the whole fleet in
    one write-ahead file (records are keyed per plan, so a resumed fleet
    skips exactly the devices/shards that already committed);
    ``retry_policy``/``shard_timeout_s``/``quarantine`` configure the
    engine's retries — with quarantine on, a poisoned shard degrades one
    device's result (see ``result.execution``) instead of killing the
    whole fleet.

    ``listen="HOST:PORT"`` serves the fleet's shards to ``repro worker``
    processes over TCP instead of executing locally (``jobs`` is then
    ignored); ``lease_timeout_s`` bounds how long a silent worker keeps a
    shard before it is requeued.  Merged results are identical either way.
    """
    from repro.engine import run_plans

    plans = plan_fleet(
        configs,
        spec,
        faults,
        base_seed=base_seed,
        shard_faults=shard_faults,
    )
    results: Dict[str, CampaignResult] = {}

    def _plan_done(plan_index: int, result: CampaignResult) -> None:
        name = plans[plan_index].label
        results[name] = result
        if progress is not None:
            progress(name, result)

    run_plans(
        plans,
        jobs=jobs,
        progress=engine_progress,
        on_plan_done=_plan_done,
        checkpoint=checkpoint,
        resume=resume,
        retry_policy=retry_policy,
        shard_timeout_s=shard_timeout_s,
        quarantine=quarantine,
        listen=listen,
        lease_timeout_s=lease_timeout_s,
    )
    return {plan.label: results[plan.label] for plan in plans}


def merge_by_model(results: Dict[str, CampaignResult]) -> Dict[str, CampaignResult]:
    """Fold unit results (``model#N`` keys) into per-model aggregates.

    Keys without a ``#`` are passed through unchanged (already per-model).
    """
    merged: Dict[str, CampaignResult] = {}
    for name, result in sorted(results.items()):
        model = name.split("#")[0]
        if model in merged:
            merged[model] = merged[model].merged_with(result)
            merged[model].label = model
        else:
            merged[model] = result.clone(label=model)
    return merged


def rank_by_loss(results: Dict[str, CampaignResult]) -> list:
    """Device names ordered from most to least data loss per fault."""
    return sorted(
        results, key=lambda name: results[name].data_loss_per_fault, reverse=True
    )
