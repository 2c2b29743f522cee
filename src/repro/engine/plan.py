"""Declarative campaign plans and shard planning.

A :class:`CampaignPlan` captures *what* to run — workload spec, device
config, fault budget, seed policy, timing — without committing to *how* it
runs.  The shard supervisor (see :mod:`repro.engine.supervisor`) turns a
plan into one :class:`~repro.core.results.CampaignResult`, either serially
or across a process pool.

Fault-injection cycles are embarrassingly parallel: each cycle boots from a
seeded platform, and campaign results merge associatively through
:meth:`CampaignResult.merged_with`.  A plan therefore splits its fault
budget into independent **shards**, each a miniature campaign with its own
deterministic seed.  The shard decomposition depends only on the plan —
never on the worker count — which is what makes engine runs
reproducible: the same plan yields the same merged result whether it runs
on one process or sixteen.

Seed policy
-----------
Shard 0 always receives the plan's ``base_seed`` verbatim, so a
single-shard plan reproduces the legacy ``Campaign(TestPlatform(...)).run()``
result bit-for-bit.  Shards ``>= 1`` receive a SplitMix64-style mix of
``(base_seed, shard_index)``; the finalizer's avalanche behaviour keeps the
seeds of neighbouring shards (and of neighbouring fleet devices, which use
small base-seed strides) disjoint.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, replace
from functools import reduce
from typing import Optional, Tuple

from repro.core import calibration
from repro.core.campaign import Campaign, CampaignConfig
from repro.core.platform import TestPlatform
from repro.core.results import CampaignResult
from repro.errors import CampaignError
from repro.ssd.device import SsdConfig
from repro.units import MSEC, SEC
from repro.workload.spec import WorkloadSpec

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15

DEFAULT_SHARD_FAULTS = 2
"""Default shard granularity for sharded entry points (CLI ``campaign``)."""


def derive_shard_seed(base_seed: int, shard_index: int) -> int:
    """Deterministic, disjoint per-shard seed.

    Shard 0 keeps ``base_seed`` (legacy single-platform parity); later
    shards get a SplitMix64 finalizer over the pair, stable across
    processes and Python versions (no salted ``hash()``).
    """
    if shard_index < 0:
        raise CampaignError("shard index must be non-negative")
    if shard_index == 0:
        return int(base_seed)
    x = (int(base_seed) ^ (shard_index * _GOLDEN)) & _MASK64
    x = (x + _GOLDEN) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


@dataclass(frozen=True)
class ShardSpec:
    """One independently-executable slice of a plan's fault budget."""

    index: int
    count: int
    seed: int
    faults: int


@dataclass(frozen=True)
class CampaignPlan:
    """Everything needed to run (or re-run) one campaign, picklable.

    ``shard_faults`` is the maximum faults per shard; ``None`` keeps the
    whole budget in a single shard, which reproduces the legacy serial
    ``Campaign.run()`` exactly.  The shard split is balanced (sizes differ
    by at most one) and depends only on plan fields, so serial and parallel
    runs agree on it.

    Example
    -------
    >>> from repro.workload.spec import WorkloadSpec
    >>> plan = CampaignPlan(spec=WorkloadSpec(), faults=8, base_seed=7,
    ...                     shard_faults=2)
    >>> [shard.faults for shard in plan.shards()]
    [2, 2, 2, 2]
    >>> plan.shards()[0].seed  # shard 0 keeps the base seed
    7
    """

    spec: WorkloadSpec
    faults: int
    device: Optional[SsdConfig] = None
    base_seed: int = 0
    label: str = ""
    shard_faults: Optional[int] = None
    settle_us: int = calibration.RECOVERY_SETTLE_US
    ready_timeout_us: int = 10 * SEC
    warmup_us: int = 200 * MSEC
    max_segment_pages: int = 128

    def __post_init__(self) -> None:
        if self.faults <= 0:
            raise CampaignError("plan needs a positive fault budget")
        if self.shard_faults is not None and self.shard_faults <= 0:
            raise CampaignError("shard_faults must be positive (or None)")

    # -- planning -----------------------------------------------------------------

    def shard_count(self) -> int:
        """Number of shards the fault budget splits into."""
        if self.shard_faults is None:
            return 1
        return -(-self.faults // self.shard_faults)  # ceil division

    def shards(self) -> Tuple[ShardSpec, ...]:
        """The deterministic shard decomposition (balanced, disjoint seeds)."""
        count = self.shard_count()
        base, extra = divmod(self.faults, count)
        return tuple(
            ShardSpec(
                index=index,
                count=count,
                seed=derive_shard_seed(self.base_seed, index),
                faults=base + (1 if index < extra else 0),
            )
            for index in range(count)
        )

    def fingerprint(self) -> str:
        """Stable content hash of the plan type and every plan field.

        Checkpoint journal records and CAS entries are keyed by this (see
        :mod:`repro.engine.checkpoint`), so shard results recorded for one
        campaign definition can never be replayed into a different one.
        Hashes canonical JSON of the dataclass tree — no salted ``hash()``,
        stable across processes and Python versions.

        The plan *class* is part of the hash: subclasses override
        :meth:`run_shard` (dirty-cycle, topology, app campaigns), so two
        plans with identical field values but different types produce
        different results and must never share a checkpoint/CAS key.
        """
        blob = json.dumps(
            {"plan_type": type(self).__qualname__, "fields": asdict(self)},
            sort_keys=True,
            default=str,
            separators=(",", ":"),
        )
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]

    def display_label(self) -> str:
        """Label of the merged result (falls back to the platform describe)."""
        if self.label:
            return self.label
        device = self.device.name if self.device is not None else "generic"
        return f"device={device} workload=[{self.spec.describe()}]"

    # -- worker-side hydration ----------------------------------------------------

    def campaign_config(self, faults: int) -> CampaignConfig:
        """The :class:`CampaignConfig` for a shard of ``faults`` cycles."""
        return CampaignConfig(
            faults=faults,
            settle_us=self.settle_us,
            ready_timeout_us=self.ready_timeout_us,
            warmup_us=self.warmup_us,
        )

    def build_platform(self, seed: int) -> TestPlatform:
        """A fresh :class:`TestPlatform` for one shard."""
        return TestPlatform(
            self.spec,
            config=self.device,
            seed=seed,
            max_segment_pages=self.max_segment_pages,
        )

    def shard_label(self, shard: ShardSpec) -> str:
        """Display label of one shard's result (``#s<i>`` suffix when split).

        Shared by every plan subclass (e.g. the stress harness's
        :class:`repro.stress.dirty_cycle.DirtyCyclePlan`) so merged results
        read identically whichever plan produced them.
        """
        label = self.display_label()
        if shard.count > 1:
            label = f"{label}#s{shard.index}"
        return label

    def run_shard(self, shard: ShardSpec) -> CampaignResult:
        """Hydrate a platform and run one shard to completion.

        This is the function parallel workers execute after unpickling the
        plan; it is also the serial supervisor's inner loop, so both paths
        share one code path by construction.
        """
        label = self.shard_label(shard)
        platform = self.build_platform(shard.seed)
        campaign = Campaign(platform, self.campaign_config(shard.faults))
        return campaign.run(label)


def merge_shard_results(
    plan: CampaignPlan, shard_results: Tuple[CampaignResult, ...]
) -> CampaignResult:
    """Fold ordered shard results into one campaign result.

    Merging goes through :meth:`CampaignResult.merged_with` in shard order
    (deterministic regardless of completion order), then cycles are
    renumbered so the merged result reads like one long campaign.
    """
    if not shard_results:
        raise CampaignError("cannot merge zero shard results")
    combined = reduce(lambda a, b: a.merged_with(b), shard_results)
    merged = combined.clone(label=plan.display_label())
    merged.cycles = [
        replace(cycle, cycle_index=index)
        for index, cycle in enumerate(combined.cycles)
    ]
    return merged
