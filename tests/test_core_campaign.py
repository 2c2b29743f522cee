"""Tests for the scheduler, campaign runner, results, and calibration registry."""

import random

import pytest

from repro.core import calibration
from repro.core.campaign import Campaign
from repro.core.platform import TestPlatform
from repro.core.results import CampaignResult, FaultCycleResult
from repro.core.scheduler import FaultScheduler
from repro.errors import CampaignError
from repro.power import PowerController
from repro.sim import Kernel
from repro.ssd.device import SsdConfig
from repro.units import GIB, MSEC
from repro.workload.spec import WorkloadSpec


class TestFaultScheduler:
    def make(self, seed=1):
        k = Kernel()
        pc = PowerController(k)
        pc.power_on()
        k.run(until=50 * MSEC)
        return k, pc, FaultScheduler(k, pc, random.Random(seed))

    def test_draw_within_window(self):
        _, _, sched = self.make()
        for _ in range(100):
            delay = sched.draw_fault_delay()
            assert calibration.CYCLE_MIN_US <= delay <= calibration.CYCLE_MAX_US

    def test_inject_now_cuts_power(self):
        k, pc, sched = self.make()
        sched.inject_now()
        k.run(until=k.now + 1500 * MSEC)
        assert not pc.is_powered
        assert sched.fault_count == 1

    def test_schedule_injection(self):
        k, pc, sched = self.make()
        at = sched.schedule_injection(100 * MSEC)
        assert at == k.now + 100 * MSEC
        k.run(until=k.now + 1500 * MSEC)
        assert sched.injections == [at]

    def test_schedule_restore(self):
        k, pc, sched = self.make()
        sched.inject_now()
        sched.schedule_restore(1200 * MSEC)
        k.run(until=k.now + 2500 * MSEC)
        assert pc.is_powered


class TestResults:
    def cycle(self, index=0, df=1, fwa=2, ioe=3):
        return FaultCycleResult(
            cycle_index=index,
            fault_time_us=0,
            requests_completed=100,
            writes_completed=80,
            reads_completed=20,
            data_failures=df,
            fwa_failures=fwa,
            io_errors=ioe,
        )

    def test_totals(self):
        r = CampaignResult(label="x")
        r.add_cycle(self.cycle(0))
        r.add_cycle(self.cycle(1, df=2))
        assert r.faults == 2
        assert r.data_failures == 3
        assert r.fwa_failures == 4
        assert r.total_data_loss == 7
        assert r.io_errors == 6
        assert r.data_loss_per_fault == 3.5

    def test_empty_rates(self):
        r = CampaignResult(label="x")
        assert r.data_loss_per_fault == 0.0
        assert r.responded_iops == 0.0

    def test_responded_iops(self):
        r = CampaignResult(label="x")
        r.add_cycle(self.cycle())
        r.traffic_time_us = 2_000_000
        assert r.responded_iops == pytest.approx(50.0)

    def test_fwa_fraction(self):
        r = CampaignResult(label="x")
        r.add_cycle(self.cycle())
        assert r.fwa_fraction == pytest.approx(2 / 3)

    def test_merged(self):
        a = CampaignResult(label="a")
        a.add_cycle(self.cycle(0))
        b = CampaignResult(label="b")
        b.add_cycle(self.cycle(1))
        merged = a.merged_with(b)
        assert merged.faults == 2

    def test_summary_keys(self):
        r = CampaignResult(label="x")
        r.add_cycle(self.cycle())
        summary = r.summary()
        for key in ("faults", "data_failures", "fwa", "io_errors", "loss_per_fault"):
            assert key in summary

    def test_clone_copies_every_field(self):
        import dataclasses

        r = CampaignResult(label="x")
        r.add_cycle(self.cycle())
        r.traffic_time_us = 123
        r.requests_issued = 456
        clone = r.clone()
        assert dataclasses.asdict(clone) == dataclasses.asdict(r)

    def test_clone_is_independent(self):
        r = CampaignResult(label="x")
        r.add_cycle(self.cycle())
        clone = r.clone(label="y")
        clone.add_cycle(self.cycle(1))
        assert r.faults == 1
        assert clone.faults == 2
        assert clone.label == "y"
        assert r.label == "x"

    def test_merged_preserves_scalar_fields(self):
        a = CampaignResult(label="a")
        a.add_cycle(self.cycle(0))
        a.traffic_time_us = 10
        a.requests_issued = 100
        b = CampaignResult(label="b")
        b.add_cycle(self.cycle(1))
        b.traffic_time_us = 5
        b.requests_issued = 50
        merged = a.merged_with(b)
        assert merged.traffic_time_us == 15
        assert merged.requests_issued == 150


class TestCalibrationRegistry:
    def test_every_anchor_names_paper_and_consumer(self):
        for name, anchor in calibration.ANCHORS.items():
            assert anchor.paper_anchor, name
            assert anchor.consumer, name
            # Zero is a legitimate anchor *value* (the topology zero-loss
            # claims); negative would mean an unset/garbage constant.
            assert anchor.value >= 0, name

    def test_key_anchor_values(self):
        assert calibration.ANCHORS["detach_voltage"].value == 4.5
        assert calibration.ANCHORS["post_ack_window_ms"].value == 700
        assert calibration.ANCHORS["responded_iops_saturation"].value == 6900
        assert calibration.ANCHORS["wt_zero_app_loss"].value == 0
        assert calibration.ANCHORS["wb_mirror_recovers_all_fwa"].value == 0

    def test_scaled_faults(self):
        assert calibration.scaled_faults(300, 1.0) == 300
        assert calibration.scaled_faults(300, 0.1) == 30
        assert calibration.scaled_faults(300, 0.001) == 4  # floor

    def test_cycle_window_exceeds_journal_interval(self):
        # Per-fault statistics need steady-state stranded updates.
        from repro.ftl import FtlConfig

        assert calibration.CYCLE_MIN_US > FtlConfig().journal_commit_interval_us


class TestCampaignEndToEnd:
    def small_platform(self, seed=11, **spec_kwargs):
        spec = WorkloadSpec(wss_bytes=4 * GIB, outstanding=8, **spec_kwargs)
        config = SsdConfig(capacity_bytes=8 * GIB, init_time_us=100 * MSEC)
        return TestPlatform(spec, config=config, seed=seed)

    def test_campaign_runs_and_aggregates(self):
        platform = self.small_platform()
        result = Campaign(platform, faults=3).run()
        assert result.faults == 3
        assert result.requests_completed > 0
        assert result.traffic_time_us > 0
        assert platform.ssd.unclean_losses == 3
        assert platform.ssd.is_ready  # recovered after the last fault

    def test_campaign_reproducible(self):
        r1 = Campaign(self.small_platform(seed=42), faults=3).run()
        r2 = Campaign(self.small_platform(seed=42), faults=3).run()
        assert r1.summary() == r2.summary()

    def test_different_seeds_differ(self):
        r1 = Campaign(self.small_platform(seed=1), faults=3).run()
        r2 = Campaign(self.small_platform(seed=2), faults=3).run()
        assert r1.requests_completed != r2.requests_completed

    def test_read_only_workload_has_no_data_loss(self):
        platform = self.small_platform(seed=5, read_fraction=1.0)
        result = Campaign(platform, faults=3).run()
        assert result.total_data_loss == 0
        assert result.io_errors > 0  # device unavailability still bites

    def test_traffic_time_defined_before_run(self):
        # A partially-run (or never-run) campaign object must have a
        # defined traffic-time accumulator, not a getattr fallback.
        campaign = Campaign(self.small_platform())
        assert campaign._traffic_time == 0
        campaign._accumulate_traffic_time(250)
        campaign._accumulate_traffic_time(-10)  # clamped, never negative
        assert campaign._traffic_time == 250

    def test_fault_budget_validation(self):
        with pytest.raises(CampaignError):
            Campaign(self.small_platform(), faults=0)

    def test_data_survives_across_cycles(self):
        # Data verified in cycle N must still verify in cycle N+1 ledger.
        platform = self.small_platform(seed=9)
        campaign = Campaign(platform, faults=2)
        result = campaign.run()
        # The analyzer's ledger reflects the device: spot-check some entries.
        analyzer = platform.analyzer
        checked = 0
        for lpn, token in list(analyzer._expected.items())[:50]:
            observed = platform.ssd.peek(lpn)
            observed_token = 0 if observed is None else observed
            assert observed_token == token
            checked += 1
        assert checked > 0
