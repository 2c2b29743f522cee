"""Application crash-consistency invariance under the engine fault matrix.

The tentpole proof burdens, stated as tests:

1. **WAL commits are never lost (with fsync).**  Under the full engine
   fault matrix (``crash`` / ``exit`` / ``hang`` / ``slow`` × serial /
   process-pool / distributed workers) a WAL campaign on a *hostile* FTL
   (zero recovery luck, journal commits only at FLUSH) reports zero
   committed loss, zero silent corruption, zero recovery failures — and
   its merged semantic summary equals the unfaulted serial baseline.
   Every cycle of that campaign also exercises the snapshot write-tmp →
   fsync → rename dance, whose atomicity and synced-rename durability
   are asserted *inside* the app's recovery (``AppAuditError`` on any
   violation), so the same matrix proves rename atomicity.
2. **Rename atomicity holds for the rename-centric apps** (HPC publishes
   a checkpoint per step, KV swaps manifests): hostile-device campaigns
   complete with every promise intact and no atomicity assertion firing.
3. **Execution shape is invisible**: ``jobs=1`` and ``jobs=4`` produce
   identical per-cycle records, and checkpoints resume without
   re-execution (the SIGTERM'd CLI run resumed with ``--resume`` is
   ``tests/test_cli.py::TestKillAndResumeCli``).
4. **The fsync contrast leg is real**: without fsync the same fault
   schedule produces committed loss, and (for the checksummed apps) all
   of it is detected — never silent.
"""

import pytest

from repro.apps import AppPlan
from repro.engine import run_plan
from repro.engine.executors import TEST_FAULT_ENV
from repro.ftl import FtlConfig
from repro.ssd.device import SsdConfig
from repro.units import GIB, MSEC
from repro.workload.spec import WorkloadSpec
from tests.engine_faults import app_summary, FAST, run_distributed

MODES = ["crash", "exit", "hang", "slow"]
LANES = ["serial", "pool", "remote"]


def hostile_config():
    """Zero-luck FTL: stranded map updates always die, the journal only
    commits at FLUSH.  Any zero-loss result is protocol, not fortune."""
    return SsdConfig(
        name="hostile",
        capacity_bytes=1 * GIB,
        init_time_us=30 * MSEC,
        ftl=FtlConfig(
            journal_commit_interval_us=10_000 * MSEC,
            page_recovery_prob=0.0,
            extent_recovery_prob=0.0,
        ),
    )


def app_plan(app="wal", fsync=True, faults=4, seed=33, **kwargs):
    kwargs.setdefault("shard_faults", 1)
    return AppPlan(
        spec=WorkloadSpec(),
        faults=faults,
        device=hostile_config(),
        base_seed=seed,
        label=f"apps-inv {app}",
        warmup_us=30 * MSEC,
        fault_window_us=120 * MSEC,
        app=app,
        app_fsync=fsync,
        **kwargs,
    )


_BASELINE = {}


def clean_summary(**kwargs):
    """Cached semantic summary of an unperturbed serial run."""
    key = tuple(sorted(kwargs.items()))
    if key not in _BASELINE:
        _BASELINE[key] = app_summary(run_plan(app_plan(**kwargs), jobs=1))
    return _BASELINE[key]


def fault_spec(mode, lane):
    if mode == "crash":
        return "crash:1:1"
    if mode == "exit":
        return "exit:2:1"
    if mode == "hang":
        return "hang:1:1:30" if lane == "pool" else "hang:1:1:0.4"
    if mode == "slow":
        return "slow:*:1:0.2"
    raise AssertionError(mode)


class TestWalCommitsNeverLostMatrix:
    @pytest.mark.parametrize("lane", LANES)
    @pytest.mark.parametrize("mode", MODES)
    def test_wal_fsync_zero_loss_survives_engine_faults(
        self, mode, lane, monkeypatch
    ):
        if mode == "exit" and lane == "serial":
            pytest.skip("os._exit in-process would kill the test runner itself")
        baseline = clean_summary(app="wal", fsync=True)
        # The durability contract on the hostile device, before any engine
        # perturbation enters the picture:
        assert baseline["app_promises"] > 0
        assert baseline["app_committed_loss"] == 0
        assert baseline["app_silent_corruption"] == 0
        assert baseline["app_recovery_failed"] == 0
        fault = fault_spec(mode, lane)
        if lane == "remote":
            result, codes = run_distributed(
                app_plan(app="wal", fsync=True), workers=2, worker_fault=fault
            )
            if mode == "exit":
                assert sorted(codes) == [0, 13]
            else:
                assert codes == [0, 0]
        else:
            monkeypatch.setenv(TEST_FAULT_ENV, fault)
            result = run_plan(
                app_plan(app="wal", fsync=True),
                jobs=1 if lane == "serial" else 2,
                retry_policy=FAST,
                shard_timeout_s=1.0 if (mode == "hang" and lane == "pool") else None,
            )
        assert app_summary(result) == baseline
        assert result.app_committed_loss == 0
        assert not result.execution.degraded


class TestRenameAtomicity:
    """HPC renames every step, KV swaps manifests on every compaction; a
    half-applied or lost synced rename raises AppAuditError inside the
    shard, which would fail these campaigns."""

    @pytest.mark.parametrize("app", ["hpc", "kv"])
    def test_rename_apps_all_intact_on_hostile_device(self, app):
        result = run_plan(app_plan(app=app, fsync=True, faults=6), jobs=2)
        assert result.app_promises > 0
        assert result.app_intact == result.app_promises
        assert not result.execution.degraded


class TestExecutionInvariance:
    CONFIG = dict(app="wal", fsync=False, faults=4, seed=11)

    def test_jobs_1_equals_jobs_4(self):
        serial = run_plan(app_plan(**self.CONFIG), jobs=1)
        pooled = run_plan(app_plan(**self.CONFIG), jobs=4)
        assert app_summary(serial) == app_summary(pooled)
        # Stronger than the summary: every per-cycle record is identical.
        assert [vars(c) for c in serial.cycles] == [vars(c) for c in pooled.cycles]

    def test_checkpoint_resume_reexecutes_nothing(self, tmp_path, monkeypatch):
        baseline = clean_summary(**self.CONFIG)
        path = tmp_path / "ck.jsonl"
        first = run_plan(app_plan(**self.CONFIG), jobs=4, checkpoint=path)
        assert app_summary(first) == baseline
        # Resume with a crash-everything fault: if resume re-ran any shard,
        # the injected crash would burn its retries and degrade the run.
        monkeypatch.setenv(TEST_FAULT_ENV, "crash:*:*")
        resumed = run_plan(
            app_plan(**self.CONFIG), jobs=1, checkpoint=path, resume=True
        )
        assert app_summary(resumed) == baseline
        assert resumed.execution.shards_resumed == 4

    def test_semantic_counters_survive_checkpoint_codec(self, tmp_path):
        # The app_* fields ride FaultCycleResult through the journal codec;
        # a resumed result must carry them bit-for-bit, not re-derive them.
        from repro.engine.checkpoint import result_from_record, result_to_record

        result = run_plan(app_plan(**self.CONFIG), jobs=1)
        recovered = result_from_record(result_to_record(result))
        assert app_summary(recovered) == app_summary(result)
        assert [vars(c) for c in recovered.cycles] == [vars(c) for c in result.cycles]


class TestFsyncContrast:
    def test_no_fsync_loses_commits_all_detected(self):
        lossy = run_plan(app_plan(app="wal", fsync=False, faults=6), jobs=2)
        assert lossy.app_committed_loss > 0  # the paper's FWA, app-level
        assert lossy.app_silent_corruption == 0  # CRC-sealed: always detected
        safe = run_plan(app_plan(app="wal", fsync=True, faults=6), jobs=2)
        assert safe.app_committed_loss == 0

    def test_hpc_no_fsync_tears_published_checkpoints(self):
        result = run_plan(app_plan(app="hpc", fsync=False, faults=6), jobs=2)
        assert result.app_committed_loss > 0
        assert result.app_silent_corruption == 0
