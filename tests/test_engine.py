"""Tests for the sharded campaign execution engine.

Covers the determinism guarantee (serial and forked-worker runs produce
identical merged results for the same plan), shard-seed disjointness,
legacy parity of single-shard plans, the follow loop's poll schedule, and
the progress telemetry hook.
"""

import pickle

import pytest

from repro.core.campaign import Campaign
from repro.core.platform import TestPlatform
from repro.core.results import CampaignResult, FaultCycleResult
from repro.engine import (
    CampaignPlan,
    EngineTelemetry,
    derive_shard_seed,
    merge_shard_results,
    run_plan,
    run_plans,
)
from repro.errors import CampaignError
from repro.ssd.device import SsdConfig
from repro.units import GIB, MSEC
from repro.workload.spec import WorkloadSpec


def small_spec():
    return WorkloadSpec(wss_bytes=1 * GIB, outstanding=8)


def small_config(name="engine-dev"):
    return SsdConfig(name=name, capacity_bytes=2 * GIB, init_time_us=50 * MSEC)


def small_plan(faults=4, shard_faults=1, seed=42, **kwargs):
    return CampaignPlan(
        spec=small_spec(),
        faults=faults,
        device=small_config(),
        base_seed=seed,
        label="engine-test",
        shard_faults=shard_faults,
        **kwargs,
    )


class TestShardPlanning:
    def test_single_shard_by_default(self):
        plan = CampaignPlan(spec=small_spec(), faults=7)
        shards = plan.shards()
        assert len(shards) == 1
        assert shards[0].faults == 7
        assert shards[0].seed == plan.base_seed

    def test_balanced_split_covers_budget(self):
        plan = CampaignPlan(spec=small_spec(), faults=11, shard_faults=3)
        shards = plan.shards()
        assert len(shards) == 4
        assert sum(s.faults for s in shards) == 11
        sizes = [s.faults for s in shards]
        assert max(sizes) - min(sizes) <= 1

    def test_validation(self):
        with pytest.raises(CampaignError):
            CampaignPlan(spec=small_spec(), faults=0)
        with pytest.raises(CampaignError):
            CampaignPlan(spec=small_spec(), faults=4, shard_faults=0)

    def test_plan_is_picklable(self):
        plan = small_plan()
        thawed = pickle.loads(pickle.dumps(plan))
        assert thawed == plan
        assert thawed.shards() == plan.shards()

    def test_display_label_falls_back_to_describe(self):
        plan = CampaignPlan(spec=small_spec(), faults=2, device=small_config())
        assert "engine-dev" in plan.display_label()


class TestSeedPolicy:
    def test_shard_zero_keeps_base_seed(self):
        assert derive_shard_seed(1234, 0) == 1234

    def test_seeds_disjoint_within_plan(self):
        seeds = {derive_shard_seed(7, i) for i in range(1000)}
        assert len(seeds) == 1000

    def test_seeds_disjoint_across_fleet_strides(self):
        # Fleet devices use base seeds spaced FLEET_SEED_STRIDE apart;
        # their shard seeds must not collide either.
        seeds = {
            derive_shard_seed(base, i)
            for base in range(0, 101 * 20, 101)
            for i in range(50)
        }
        assert len(seeds) == 20 * 50

    def test_seeds_stable_across_calls(self):
        assert derive_shard_seed(99, 3) == derive_shard_seed(99, 3)

    def test_negative_index_rejected(self):
        with pytest.raises(CampaignError):
            derive_shard_seed(1, -1)


class TestDeterminism:
    def test_serial_and_parallel_agree(self):
        plan = small_plan(faults=4, shard_faults=1)
        serial = run_plan(plan, jobs=1)
        parallel = run_plan(plan, jobs=4)
        assert serial.summary() == parallel.summary()
        assert [c.fault_time_us for c in serial.cycles] == [
            c.fault_time_us for c in parallel.cycles
        ]

    def test_single_shard_matches_legacy_campaign(self):
        plan = small_plan(faults=3, shard_faults=None)
        engine_result = run_plan(plan)
        platform = TestPlatform(small_spec(), config=small_config(), seed=42)
        legacy = Campaign(platform, faults=3).run("engine-test")
        assert engine_result.summary() == legacy.summary()

    def test_merged_cycles_renumbered(self):
        plan = small_plan(faults=4, shard_faults=2)
        result = run_plan(plan)
        assert [c.cycle_index for c in result.cycles] == [0, 1, 2, 3]
        assert result.label == "engine-test"


class TestBackoffPolling:
    """The capped exponential poll schedule of ``trace report --follow``."""

    def test_poller_schedule_is_capped_exponential(self):
        from repro.engine.executors import BackoffPoller, POLL_BASE_S, POLL_CAP_S

        poller = BackoffPoller()
        delays = [poller.next_delay() for _ in range(8)]
        assert delays == [0.005, 0.01, 0.02, 0.04, 0.08, 0.16, 0.25, 0.25]
        assert delays[0] == POLL_BASE_S and delays[-1] == POLL_CAP_S
        poller.reset()
        assert poller.next_delay() == POLL_BASE_S
        # A cap below the base is lifted to the base, never inverted.
        assert BackoffPoller(base_s=0.1, cap_s=0.01).next_delay() == 0.1


class TestRunPlans:
    def test_multiple_plans_merge_independently(self):
        plans = [small_plan(seed=1), small_plan(seed=2)]
        results = run_plans(plans)
        assert len(results) == 2
        assert results[0].faults == results[1].faults == 4
        assert results[0].requests_completed != results[1].requests_completed

    def test_plan_done_fires_in_order(self):
        plans = [small_plan(faults=2, seed=1), small_plan(faults=2, seed=2)]
        done = []
        run_plans(plans, on_plan_done=lambda index, result: done.append(index))
        assert done == [0, 1]


class TestTelemetry:
    def test_progress_events_cover_lifecycle(self):
        plan = small_plan(faults=2, shard_faults=1)
        events = []
        run_plan(plan, progress=events.append)
        kinds = [e.kind for e in events]
        assert kinds.count("shard-started") == 2
        assert kinds.count("shard-finished") == 2
        assert kinds[-1] == "plan-finished"
        last_finish = [e for e in events if e.kind == "shard-finished"][-1]
        assert last_finish.cycles_done == 2
        assert last_finish.cycles_total == 2
        assert last_finish.cycles_per_sec > 0

    def test_eta_estimate(self):
        fake_now = [0.0]
        telemetry = EngineTelemetry(
            shards_total=2, cycles_total=4, clock=lambda: fake_now[0]
        )
        fake_now[0] = 2.0
        telemetry.shard_finished("x", 0, 2, 2)
        assert telemetry.cycles_per_sec == pytest.approx(1.0)
        assert telemetry.eta_s == pytest.approx(2.0)


class TestMergeHelpers:
    def cycle(self, index):
        return FaultCycleResult(
            cycle_index=index,
            fault_time_us=index,
            requests_completed=10,
            writes_completed=10,
            reads_completed=0,
            data_failures=1,
            fwa_failures=0,
            io_errors=2,
        )

    def test_merge_requires_results(self):
        with pytest.raises(CampaignError):
            merge_shard_results(small_plan(), ())

    def test_merge_does_not_mutate_shard_results(self):
        plan = small_plan(faults=4, shard_faults=2)
        a = CampaignResult(label="a")
        a.add_cycle(self.cycle(0))
        b = CampaignResult(label="b")
        b.add_cycle(self.cycle(0))
        merged = merge_shard_results(plan, (a, b))
        assert [c.cycle_index for c in merged.cycles] == [0, 1]
        # shard-local records keep their own indices
        assert b.cycles[0].cycle_index == 0
        assert merged.label == "engine-test"
