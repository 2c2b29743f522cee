"""Unit tests for the cache-topology subsystem (``repro.topology``).

Bottom-up: the durable backing tier's power semantics, then the
:class:`~repro.topology.stack.CacheTopology` host-write/ack contracts per
policy, the WB admission throttle (including the oversized-write case that
deadlocked before the :meth:`FlushPolicy.throttled` fix), the audit
classification, and finally :class:`~repro.topology.plan.TopologyPlan`
validation and a single-shard end-to-end cycle.
"""

import pytest

from repro.cache.flush import FlushPolicy
from repro.errors import CampaignError, ConfigurationError
from repro.ftl import FtlConfig
from repro.host import HostSystem
from repro.power.controller import PowerController
from repro.sim import Kernel
from repro.ssd.device import SsdConfig
from repro.topology import BackingStore, CacheTopology, TopologyPlan, backing
from repro.topology.plan import run_topology_shard
from repro.units import GIB, KIB, MSEC
from repro.workload.spec import WorkloadSpec


def leg_config(**overrides):
    """The deliberately-lossy cache-leg device the mirror tests also use."""
    defaults = dict(
        name="cache-leg",
        capacity_bytes=1 * GIB,
        init_time_us=30 * MSEC,
        ftl=FtlConfig(
            journal_commit_interval_us=10_000 * MSEC,
            page_recovery_prob=0.0,
            extent_recovery_prob=0.0,
        ),
    )
    defaults.update(overrides)
    return SsdConfig(**defaults)


def make_topology(**overrides):
    defaults = dict(device=leg_config(), policy="wb", seed=5)
    defaults.update(overrides)
    topo = CacheTopology(**defaults)
    topo.boot()
    return topo


def pump(topo, total_ms=200, quantum_ms=1):
    """Advance time in small quanta, running the destage daemon each step."""
    for _ in range(total_ms // quantum_ms):
        topo.run_for(quantum_ms * MSEC)
        topo.destage_pump()


def fault_cycle(topo, campaign_cycle=0, settle_ms=1500):
    """One full fault/recovery round-trip; returns the cycle's audit."""
    faulted = topo.inject_fault(campaign_cycle)
    topo.wait_dead(faulted)
    topo.drain_dead(faulted)
    topo.run_for(settle_ms * MSEC)
    topo.restore()
    topo.quiesce()
    return topo.audit_and_reset()


class TestBackingStore:
    def make(self, powered=True):
        kernel = Kernel()
        power = PowerController(kernel)
        if powered:
            power.power_on()
            kernel.run()  # let the serial/ATX actuation chain settle
        store = BackingStore(kernel, power)
        return kernel, store

    def test_commit_after_latency(self):
        kernel, store = self.make()
        acks = []
        store.submit_write(4, [7, 8], acks.append)
        latency = backing.REQUEST_US + 2 * backing.PAGE_US
        kernel.run(until=kernel.now + latency - 1)
        assert acks == [] and store.peek(4) is None
        kernel.run(until=kernel.now + 2)
        assert acks == [True]
        assert store.peek(4) == 7 and store.peek(5) == 8
        assert store.writes_committed == 1 and store.pages_committed == 2

    def test_unpowered_submit_fails_immediately(self):
        kernel, store = self.make(powered=False)
        acks = []
        store.submit_write(0, [1], acks.append)
        assert acks == [False]
        assert store.writes_dropped == 1 and store.peek(0) is None

    def test_power_fail_drops_in_flight_writes(self):
        kernel, store = self.make()
        acks = []
        store.submit_write(0, [1, 2, 3], acks.append)
        kernel.run(until=kernel.now + backing.PAGE_US)
        store.power_fail()
        kernel.run(until=kernel.now + backing.REQUEST_US + 3 * backing.PAGE_US)
        # The commit fires but finds a newer epoch: nothing lands, no page
        # commits partially.
        assert acks == [False]
        assert store.writes_dropped == 1
        assert all(store.peek(lpn) is None for lpn in range(3))

    def test_restore_installs_directly(self):
        _, store = self.make()
        store.restore(9, 42)
        assert store.peek(9) == 42

    def test_validation(self):
        _, store = self.make()
        with pytest.raises(ConfigurationError):
            store.submit_write(0, [])


class TestAckContracts:
    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigurationError):
            CacheTopology(device=leg_config(), policy="writeback")

    def test_wb_acks_at_cache_before_any_destage(self):
        topo = make_topology(policy="wb")
        topo.submit_host_write(10, topo.alloc_tokens(2))
        topo.run_for(50 * MSEC)  # enough for the legs, no destage_pump ran
        assert len(topo.acked) == 1
        assert topo.dirty == {10: 1, 11: 2}
        assert topo.backing.peek(10) is None

    def test_wt_ack_waits_for_backing_commit(self):
        topo = make_topology(policy="wt")
        topo.submit_host_write(10, topo.alloc_tokens(1))
        # The cache leg is warm long before the backing store commits, and
        # the ACK must wait for the latter.
        topo.run_for(1 * MSEC)
        assert topo.legs[0].ssd.peek(10) == 1
        assert topo.acked == []
        topo.quiesce()
        assert len(topo.acked) == 1
        assert topo.backing.peek(10) == 1

    def test_wa_bypasses_cache_entirely(self):
        topo = make_topology(policy="wa")
        topo.submit_host_write(10, topo.alloc_tokens(1))
        topo.quiesce()
        assert len(topo.acked) == 1
        assert topo.backing.peek(10) == 1
        assert topo.legs[0].ssd.peek(10) is None

    def test_tokens_unique_across_cycles(self):
        topo = make_topology()
        first = topo.alloc_tokens(3)
        topo.audit_and_reset()
        second = topo.alloc_tokens(3)
        assert set(first).isdisjoint(second)

    def test_destage_drains_dirty_ledger(self):
        topo = make_topology(policy="wb")
        topo.submit_host_write(10, topo.alloc_tokens(4))
        pump(topo)
        assert topo.dirty == {}
        assert topo.pages_destaged == 4
        assert [topo.backing.peek(10 + i) for i in range(4)] == [1, 2, 3, 4]


class TestAdmissionThrottle:
    def test_only_write_back_throttles(self):
        for policy in ("wt", "wa"):
            topo = make_topology(policy=policy)
            assert not topo.admission_throttled(10_000)

    def test_throttle_binds_and_releases(self):
        topo = make_topology(
            policy="wb", destage=FlushPolicy(batch_pages=4, max_dirty_pages=8)
        )
        topo.submit_host_write(10, topo.alloc_tokens(8))
        topo.run_for(50 * MSEC)
        assert topo.admission_throttled(1)
        pump(topo)
        assert not topo.admission_throttled(1)

    def test_oversized_write_admits_against_empty_ledger(self):
        # Regression for the FlushPolicy.throttled bug: a single write
        # larger than max_dirty_pages could never satisfy the sum condition
        # and stalled forever.  It must admit once the ledger is empty.
        topo = make_topology(
            policy="wb", destage=FlushPolicy(batch_pages=4, max_dirty_pages=4)
        )
        assert not topo.admission_throttled(16)
        topo.submit_host_write(10, topo.alloc_tokens(16))
        topo.run_for(50 * MSEC)
        assert len(topo.acked) == 1
        # With the oversized write dirty, everything throttles until the
        # ledger fully drains — then the next oversized write admits again.
        assert topo.admission_throttled(16)
        pump(topo)
        assert topo.dirty == {}
        assert not topo.admission_throttled(16)


class TestAudit:
    def test_wb_shared_power_loses_undestaged_acks(self):
        # The enterprise failure mode: WB acked at the cache, the fault
        # takes cache and backing together, the dirty data existed nowhere
        # durable.
        topo = make_topology(policy="wb", shared_power=True)
        topo.submit_host_write(10, topo.alloc_tokens(2))
        topo.run_for(50 * MSEC)  # acked, never destaged
        audit = fault_cycle(topo)
        assert audit.acked == 1
        assert audit.lost == 1 and audit.recovered == 0

    def test_wb_destaged_write_survives_as_recovered(self):
        # Destaged before the fault: the cache leg's copy dies (device-level
        # FWA) but the backing store holds it — topology-recovered.
        topo = make_topology(policy="wb", shared_power=True)
        topo.submit_host_write(10, topo.alloc_tokens(1))
        pump(topo)
        assert topo.dirty == {}
        audit = fault_cycle(topo)
        assert audit.acked == 1
        assert audit.lost == 0
        assert audit.intact + audit.recovered == 1

    def test_wt_never_loses_acked_writes(self):
        topo = make_topology(policy="wt", shared_power=True)
        topo.submit_host_write(10, topo.alloc_tokens(2))
        topo.quiesce()
        audit = fault_cycle(topo)
        assert audit.acked == 1
        assert audit.lost == 0

    def test_wb_mirror_split_rails_recovers_from_survivor(self):
        topo = make_topology(policy="wb", mirror_cache=True, shared_power=False)
        topo.submit_host_write(10, topo.alloc_tokens(2))
        topo.run_for(50 * MSEC)  # acked on both legs, never destaged
        audit = fault_cycle(topo, campaign_cycle=0)  # faults leg 0 only
        assert audit.acked == 1
        assert audit.lost == 0
        # The faulted leg lost its copy (hostile FTL), the survivor has it.
        assert audit.recovered == 1
        # The recovery daemon reconciled the surviving pages into backing.
        assert topo.backing.peek(10) == 1 and topo.backing.peek(11) == 2

    def test_superseded_write_cannot_be_lost(self):
        # Only the *live* pages of a write decide its verdict: a fully
        # superseded write is intact by definition.
        topo = make_topology(policy="wb", shared_power=True)
        topo.submit_host_write(10, topo.alloc_tokens(1))
        topo.run_for(50 * MSEC)
        topo.submit_host_write(10, topo.alloc_tokens(1))
        topo.run_for(50 * MSEC)
        audit = fault_cycle(topo)
        assert audit.acked == 2
        assert audit.intact >= 1  # the superseded first write
        assert audit.lost == 1  # the live second write, never destaged

    def test_audit_partition_and_reset(self):
        topo = make_topology(policy="wb", shared_power=True)
        for i in range(5):
            topo.submit_host_write(100 + 4 * i, topo.alloc_tokens(4))
        pump(topo, total_ms=60)
        audit = fault_cycle(topo)
        assert audit.intact + audit.recovered + audit.lost == audit.acked
        assert topo.acked == [] and topo.dirty == {} and topo.io_errors == 0

    @pytest.mark.parametrize("mirror_cache", [False, True])
    def test_audit_resets_every_leg_tracer(self, mirror_cache):
        # blktrace restarts per injection: a shard's legs must not carry
        # every earlier cycle's trace events.
        topo = make_topology(policy="wt", mirror_cache=mirror_cache, shared_power=True)
        for cycle in range(2):
            topo.submit_host_write(10, topo.alloc_tokens(2))
            topo.quiesce()
            assert all(leg.tracer.event_count > 0 for leg in topo.legs)
            fault_cycle(topo, campaign_cycle=cycle)
            assert [leg.tracer.event_count for leg in topo.legs] == [0] * len(topo.legs)


class TestLegStacks:
    @pytest.mark.parametrize("mirror_cache", [False, True])
    def test_legs_are_host_systems_on_the_topology_kernel(self, mirror_cache):
        topo = CacheTopology(device=leg_config(), mirror_cache=mirror_cache, seed=5)
        assert all(isinstance(leg, HostSystem) for leg in topo.legs)
        assert all(leg.kernel is topo.kernel for leg in topo.legs)
        names = ["mirror-a", "mirror-b"] if mirror_cache else ["cache-0"]
        assert [leg.ssd.name for leg in topo.legs] == names

    @pytest.mark.parametrize("mirror_cache", [False, True])
    def test_shared_power_is_one_controller(self, mirror_cache):
        topo = CacheTopology(
            device=leg_config(), mirror_cache=mirror_cache, shared_power=True, seed=5
        )
        assert all(leg.power is topo.pdu for leg in topo.legs)
        assert topo.backing.power is topo.pdu

    @pytest.mark.parametrize("mirror_cache", [False, True])
    def test_split_power_gives_each_leg_its_own(self, mirror_cache):
        topo = CacheTopology(device=leg_config(), mirror_cache=mirror_cache, seed=5)
        controllers = [leg.power for leg in topo.legs] + [topo.backing.power]
        assert topo.pdu is None
        assert len({id(controller) for controller in controllers}) == len(controllers)


def topo_spec(**overrides):
    defaults = dict(
        wss_bytes=1 * GIB,
        read_fraction=0.0,
        size_min_bytes=4 * KIB,
        size_max_bytes=64 * KIB,
        outstanding=16,
    )
    defaults.update(overrides)
    return WorkloadSpec(**defaults)


class TestTopologyPlan:
    def make_plan(self, **overrides):
        defaults = dict(
            spec=topo_spec(),
            faults=2,
            device=leg_config(),
            base_seed=9,
            shard_faults=1,
        )
        defaults.update(overrides)
        return TopologyPlan(**defaults)

    def test_validation(self):
        with pytest.raises(CampaignError):
            self.make_plan(policy="nope")
        with pytest.raises(CampaignError):
            self.make_plan(fault_window_us=0)
        with pytest.raises(CampaignError):
            self.make_plan(spec=topo_spec(read_fraction=0.5))
        with pytest.raises(CampaignError):
            self.make_plan(spec=topo_spec(requested_iops=1000))

    def test_display_label_and_fingerprint(self):
        plan = self.make_plan(policy="wt", mirror_cache=True, shared_power=True)
        label = plan.display_label()
        assert "wt" in label and "mirror" in label and "shared" in label
        assert plan.fingerprint() != self.make_plan(policy="wb").fingerprint()

    def test_shard_run_shape(self):
        plan = self.make_plan(policy="wt", shared_power=True)
        shard = plan.shards()[1]
        result = run_topology_shard(plan, shard)
        assert len(result.cycles) == 1
        cycle = result.cycles[0]
        assert cycle.writes_completed > 0
        assert (
            cycle.intact_writes + cycle.topology_recovered + cycle.fwa_failures
            == cycle.writes_completed
        )
        assert cycle.fwa_failures == 0  # write-through contract
        assert cycle.unsafe_shutdowns == 1
        assert result.requests_issued >= cycle.writes_completed


# Golden results of two ``wb`` faults on ``leg_config()`` legs at base seed
# 9, one per leg layout.  A leg's name and seed fix its device streams, and
# the build order (PDU, legs, backing controller) fixes the kernel's event
# order, so a change to either moves these numbers.  Per cycle:
# (intact_writes, topology_recovered, fwa_failures, io_errors,
# unsafe_shutdowns).
LEG_LAYOUTS = [
    pytest.param(
        False,
        False,
        {"fwa": 35, "total_data_loss": 35, "loss_per_fault": 17.5, "fwa_fraction": 1.0},
        [(6, 1131, 12, 0, 1), (10, 1283, 23, 0, 1)],
        id="single-split",
    ),
    pytest.param(
        False,
        True,
        {"fwa": 46, "total_data_loss": 46, "loss_per_fault": 23.0, "fwa_fraction": 1.0},
        [(6, 1123, 20, 0, 1), (10, 1280, 26, 0, 1)],
        id="single-shared",
    ),
    pytest.param(
        True,
        False,
        {"fwa": 0, "total_data_loss": 0, "loss_per_fault": 0.0, "fwa_fraction": 0.0},
        [(6, 1143, 0, 0, 1), (10, 1306, 0, 0, 1)],
        id="mirror-split",
    ),
    pytest.param(
        True,
        True,
        {"fwa": 46, "total_data_loss": 46, "loss_per_fault": 23.0, "fwa_fraction": 1.0},
        [(6, 1123, 20, 0, 2), (10, 1280, 26, 0, 2)],
        id="mirror-shared",
    ),
]


@pytest.mark.parametrize("mirror_cache,shared_power,losses,cycles", LEG_LAYOUTS)
def test_leg_layout_is_pinned(mirror_cache, shared_power, losses, cycles):
    plan = TopologyPlan(
        spec=topo_spec(),
        faults=2,
        device=leg_config(),
        base_seed=9,
        shard_faults=2,
        policy="wb",
        mirror_cache=mirror_cache,
        shared_power=shared_power,
    )
    (shard,) = plan.shards()
    result = run_topology_shard(plan, shard)
    assert result.summary() == {
        "faults": 2,
        "requests_completed": 2465,
        "data_failures": 0,
        "io_errors": 0,
        "io_errors_per_fault": 0.0,
        "responded_iops": 2548.4,
        **losses,
    }
    assert [
        (
            cycle.intact_writes,
            cycle.topology_recovered,
            cycle.fwa_failures,
            cycle.io_errors,
            cycle.unsafe_shutdowns,
        )
        for cycle in result.cycles
    ] == cycles
