"""Topology fault campaigns as engine plans.

:class:`TopologyPlan` packages repeated topology fault cycles as a
:class:`~repro.engine.plan.CampaignPlan` subclass, so the entire engine
surface — sharding, ``--jobs`` worker processes, checkpoint/``--resume``,
retry, quarantine, ``--trace`` — applies to topology campaigns unchanged,
and ``jobs=1`` and ``jobs=N`` produce bit-identical merged summaries by
construction (executors only ever call :meth:`TopologyPlan.run_shard`).

One cycle: drive closed-loop host writes into the
:class:`~repro.topology.stack.CacheTopology`, cut the cycle's power domain
at an instant drawn from a dedicated fault stream (so the fault schedule is
identical across cache policies for a given seed), let the rails decay,
power back on, wait for the cache legs to recover, then classify every
acknowledged write **device-intact / device-FWA-but-topology-recovered /
application-visible loss** (see
:meth:`~repro.topology.stack.CacheTopology.audit_and_reset`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cache.flush import FlushPolicy
from repro.core import calibration
from repro.core.results import CampaignResult, FaultCycleResult
from repro.engine.plan import CampaignPlan, ShardSpec
from repro.errors import CampaignError
from repro.rand import uniform_int
from repro.ssd.device import SsdConfig
from repro.topology.stack import CacheTopology, POLICIES
from repro.units import MSEC


@dataclass(frozen=True)
class TopologyPlan(CampaignPlan):
    """A :class:`CampaignPlan` whose shards run topology fault cycles.

    ``faults`` is the number of power-fault cycles.  Extra knobs:

    - ``policy``: cache policy, one of ``wb`` / ``wt`` / ``wa``;
    - ``mirror_cache``: two mirrored cache legs instead of one, each a
      :class:`~repro.host.system.HostSystem` with its own device;
    - ``shared_power``: one PDU for cache legs *and* backing store (a fault
      takes everything); otherwise each leg has its own rail, the backing
      store is never faulted, and faults rotate across legs;
    - ``destage``: the WB dirty-ledger policy — ``batch_pages`` per destage
      round, admission stall at ``max_dirty_pages``;
    - ``fault_window_us``: the fault instant is drawn uniformly from
      ``[warmup_us, warmup_us + fault_window_us)`` of each cycle's traffic.

    The workload must be a closed-loop pure-write spec: topology audits
    reason about acknowledged writes, and pacing comes from
    ``spec.outstanding``.
    """

    policy: str = "wb"
    mirror_cache: bool = False
    shared_power: bool = False
    destage: FlushPolicy = field(default_factory=FlushPolicy)
    fault_window_us: int = 400 * MSEC

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.policy not in POLICIES:
            raise CampaignError(
                f"policy must be one of {'/'.join(POLICIES)}, got {self.policy!r}"
            )
        if self.fault_window_us <= 0:
            raise CampaignError("fault window must be positive")
        if self.spec.read_fraction != 0.0:
            raise CampaignError("topology campaigns are write-only workloads")
        if self.spec.open_loop:
            raise CampaignError("topology campaigns are closed-loop workloads")

    def display_label(self) -> str:
        if self.label:
            return self.label
        device = self.device.name if self.device is not None else "generic"
        legs = "mirror" if self.mirror_cache else "single"
        domain = "shared" if self.shared_power else "split"
        return (
            f"topology {self.policy} cache={legs} power={domain} "
            f"device={device} [{self.spec.describe()}]"
        )

    def device_config(self) -> SsdConfig:
        """The cache-leg device config."""
        return self.device if self.device is not None else SsdConfig()

    def build_topology(self, seed: int) -> CacheTopology:
        """A fresh topology for one shard."""
        return CacheTopology(
            device=self.device_config(),
            policy=self.policy,
            mirror_cache=self.mirror_cache,
            shared_power=self.shared_power,
            destage=self.destage,
            seed=seed,
        )

    def run_shard(self, shard: ShardSpec) -> CampaignResult:
        return run_topology_shard(self, shard)


class _TopologyWorker:
    """Closed-loop write source feeding a topology.

    Keeps up to ``spec.outstanding`` host writes in flight; a generated
    write that hits the WB admission throttle is *held* (not regenerated)
    until the dirty ledger drains, so the request sequence is a pure
    function of the traffic stream.  All randomness comes from one named
    stream of the shard's seed tree — the fault schedule draws from a
    different stream, so it is identical across cache policies.
    """

    def __init__(self, plan: TopologyPlan, topo: CacheTopology) -> None:
        self.plan = plan
        self.spec = plan.spec
        self.topo = topo
        self.rng = topo.streams.stream("topology-io")
        self._held = None

    def _next_write(self):
        spec = self.spec
        nlb = uniform_int(self.rng, spec.size_min_pages, spec.size_max_pages)
        slba = self.rng.randrange(spec.wss_pages - nlb + 1)
        return slba, nlb

    def drop_held(self) -> None:
        """Discard a held-but-never-submitted write at cycle reset."""
        self._held = None

    def run(self, duration_us: int, quantum_us: int = 1 * MSEC) -> None:
        """Drive traffic for ``duration_us`` of simulated time."""
        topo = self.topo
        kernel = topo.kernel
        deadline = kernel.now + duration_us
        while kernel.now < deadline:
            while topo.in_flight < self.spec.outstanding:
                if self._held is None:
                    self._held = self._next_write()
                lpn, nlb = self._held
                if topo.admission_throttled(nlb):
                    break
                topo.submit_host_write(lpn, topo.alloc_tokens(nlb))
                self._held = None
            kernel.run(until=min(deadline, kernel.now + quantum_us))
            topo.destage_pump()


def run_topology_shard(plan: TopologyPlan, shard: ShardSpec) -> CampaignResult:
    """Execute one shard's topology fault cycles; the engine's entry point.

    Cycle indices in the result are shard-local;
    :func:`repro.engine.plan.merge_shard_results` renumbers them into one
    campaign-wide sequence.  Per-cycle decisions that must not depend on the
    shard split (which leg a split-domain fault hits) key on the
    campaign-wide cycle number.
    """
    topo = plan.build_topology(shard.seed)
    worker = _TopologyWorker(plan, topo)
    fault_rng = topo.streams.stream("topology-fault")
    kernel = topo.kernel
    result = CampaignResult(label=plan.shard_label(shard))
    cycle_offset = sum(s.faults for s in plan.shards()[: shard.index])
    traffic_time = 0

    topo.boot()
    for cycle_index in range(shard.faults):
        # 1. Traffic until the drawn fault instant.
        fault_delay = plan.warmup_us + fault_rng.randrange(plan.fault_window_us)
        worker.run(fault_delay)
        fault_time = kernel.now
        unsafe_before = topo.unsafe_shutdowns()

        # 2. Cut the cycle's power domain and let the rails decay.
        faulted = topo.inject_fault(cycle_offset + cycle_index)
        topo.wait_dead(faulted)
        topo.drain_dead(faulted)
        topo.run_for(calibration.RECOVERY_SETTLE_US)

        # 3. Power back on, wait for the cache tier, let stragglers land.
        topo.restore()
        topo.quiesce()

        # 4. Classify every acked write and reconcile the topology.
        audit = topo.audit_and_reset()
        worker.drop_held()
        damage = [leg.ssd.last_damage for leg in faulted]
        result.add_cycle(
            FaultCycleResult(
                cycle_index=cycle_index,
                fault_time_us=fault_time,
                requests_completed=audit.acked,
                writes_completed=audit.acked,
                reads_completed=0,
                data_failures=0,
                fwa_failures=audit.lost,
                io_errors=audit.io_errors,
                dirty_pages_lost=sum(
                    d.dirty_pages_lost for d in damage if d is not None
                ),
                collateral_pages=sum(
                    d.collateral_pages_corrupted for d in damage if d is not None
                ),
                unsafe_shutdowns=topo.unsafe_shutdowns() - unsafe_before,
                intact_writes=audit.intact,
                topology_recovered=audit.recovered,
            )
        )
        traffic_time += fault_delay

    result.requests_issued = topo.writes_submitted
    result.traffic_time_us = traffic_time
    return result
