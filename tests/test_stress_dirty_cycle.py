"""Integration tests for the dirty-power-cycle stress harness.

The harness's contract: every acknowledged write of every cycle is
classified (intact | FWA | data-failure partitions the acked set), the
device's own SMART counters agree with the faults injected, results are
bit-identical regardless of worker count, plans checkpoint/resume like any
campaign, file-backed command logs replay to the same audit as in-memory
ones, and a supercap drive under paced load loses nothing it acked.
"""

import pytest

from repro.engine import run_plan
from repro.errors import CampaignError, StressAuditError
from repro.ssd import models
from repro.ssd.device import SsdConfig
from repro.stress import DirtyCyclePlan, replay_cmdlog
from repro.units import GIB, KIB, MSEC
from repro.workload.spec import WorkloadSpec


def small_spec(**kwargs):
    defaults = dict(
        wss_bytes=1 * GIB,
        read_fraction=0.0,
        size_min_bytes=4 * KIB,
        size_max_bytes=32 * KIB,
    )
    defaults.update(kwargs)
    return WorkloadSpec(**defaults)


def small_plan(faults=3, seed=7, **kwargs):
    defaults = dict(
        spec=small_spec(),
        faults=faults,
        device=SsdConfig(name="stress-dev", capacity_bytes=2 * GIB),
        base_seed=seed,
        label="stress-test",
        qdepth=16,
        warmup_us=50 * MSEC,
        fault_window_us=100 * MSEC,
    )
    defaults.update(kwargs)
    return DirtyCyclePlan(**defaults)


class TestPlanValidation:
    def test_knob_validation(self):
        with pytest.raises(CampaignError):
            small_plan(qdepth=0)
        with pytest.raises(CampaignError):
            small_plan(flush_every=-1)
        with pytest.raises(CampaignError):
            small_plan(write_zeroes_frac=1.5)
        with pytest.raises(CampaignError):
            small_plan(fault_window_us=0)

    def test_recovery_window_hydrated_when_needed(self):
        plan = small_plan(recovery_fault_every=2)
        assert plan.device.recovery_time_us == 0
        assert plan.device_config().recovery_time_us > 0
        # Without recovery faults the config passes through untouched.
        assert small_plan().device_config().recovery_time_us == 0

    def test_display_label(self):
        plan = small_plan(label=None)
        assert "stress-dev" in plan.display_label()
        assert "qd=16" in plan.display_label()


class TestClassification:
    def test_every_acked_write_is_classified(self):
        result = run_plan(small_plan(faults=3))
        assert len(result.cycles) == 3
        for cycle in result.cycles:
            assert cycle.writes_completed > 0
            assert (
                cycle.intact_writes + cycle.fwa_failures + cycle.data_failures
                == cycle.writes_completed
            ), cycle

    def test_unsafe_shutdowns_equal_dirty_cycles(self):
        result = run_plan(small_plan(faults=3))
        assert result.unsafe_shutdowns == 3
        assert all(c.unsafe_shutdowns == 1 for c in result.cycles)

    def test_recovery_faults_add_unsafe_shutdowns(self):
        # Campaign-global rule: cycles 2 and 4 get a second fault.
        result = run_plan(small_plan(faults=4, recovery_fault_every=2))
        assert [c.unsafe_shutdowns for c in result.cycles] == [1, 2, 1, 2]
        assert result.unsafe_shutdowns == 6
        for cycle in result.cycles:
            assert (
                cycle.intact_writes + cycle.fwa_failures + cycle.data_failures
                == cycle.writes_completed
            )

    def test_audit_error_type_is_stress_specific(self):
        # Executors map worker exceptions by type; the audit must raise
        # something distinguishable from generic simulation errors.
        from repro.errors import ReproError

        assert issubclass(StressAuditError, ReproError)


class TestDeterminism:
    def test_jobs_invariant(self):
        plan = small_plan(faults=4, shard_faults=2)
        serial = run_plan(plan, jobs=1)
        parallel = run_plan(plan, jobs=2)
        assert serial.summary() == parallel.summary()
        assert serial.cycles == parallel.cycles

    def test_recovery_faults_are_shard_invariant(self):
        # The every-Nth-cycle rule counts campaign cycles, so re-sharding
        # the same budget must hit the same cycles.
        whole = run_plan(small_plan(faults=4, recovery_fault_every=2))
        sharded = run_plan(
            small_plan(faults=4, recovery_fault_every=2, shard_faults=1),
            jobs=2,
        )
        assert [c.unsafe_shutdowns for c in whole.cycles] == [
            c.unsafe_shutdowns for c in sharded.cycles
        ] == [1, 2, 1, 2]


class TestCheckpointResume:
    def test_resume_skips_completed_shards(self, tmp_path):
        plan = small_plan(faults=4, shard_faults=2)
        journal = tmp_path / "ck.jsonl"
        first = run_plan(plan, checkpoint=journal)
        assert journal.exists()
        # Resuming a finished journal replays it without re-running.
        resumed = run_plan(plan, checkpoint=journal, resume=True)
        assert resumed.summary() == first.summary()
        assert resumed.cycles == first.cycles


class TestCommandLogFiles:
    def test_file_log_matches_memory_audit(self, tmp_path):
        in_memory = run_plan(small_plan(faults=2))
        on_disk = run_plan(small_plan(faults=2, cmdlog_dir=str(tmp_path)))
        assert on_disk.summary() == in_memory.summary()
        assert on_disk.cycles == in_memory.cycles

    def test_shard_logs_are_replayable(self, tmp_path):
        plan = small_plan(faults=4, shard_faults=2, cmdlog_dir=str(tmp_path))
        run_plan(plan, jobs=2)
        paths = sorted(tmp_path.glob("shard*.cmdlog.jsonl"))
        assert [p.name for p in paths] == [
            "shard0000.cmdlog.jsonl",
            "shard0001.cmdlog.jsonl",
        ]
        for path in paths:
            replayed = replay_cmdlog(path)
            assert not replayed.dropped_tail
            assert replayed.duplicates_dropped == 0
            kinds = {r["kind"] for r in replayed.records}
            assert kinds == {"sub", "cpl", "mark"}
            events = [r["event"] for r in replayed.records if r["kind"] == "mark"]
            # Two cycles per shard, three marks per clean cycle, in order.
            assert events == ["power_fault", "power_on", "verified"] * 2


class TestProtectionContrast:
    def test_supercap_drive_loses_nothing_acked(self):
        # Open-loop paced writes keep the dirty set inside the supercap
        # budget: the PLP preset must classify every acked write intact.
        plan = small_plan(
            faults=2,
            device=models.by_name("ssd-enterprise-plp"),
            spec=small_spec(requested_iops=2000, size_max_bytes=4 * KIB),
        )
        result = run_plan(plan)
        assert result.total_data_loss == 0
        assert result.fwa_failures == 0
        assert all(c.intact_writes == c.writes_completed for c in result.cycles)

    def test_unprotected_drive_shows_acked_loss(self):
        result = run_plan(
            small_plan(faults=3, device=models.by_name("ssd-c"), qdepth=32)
        )
        assert result.fwa_failures + result.data_failures > 0
