"""Failure-path tests for the fault-tolerant shard supervisor.

Faults are injected through the ``REPRO_ENGINE_TEST_FAULT`` fixture (see
``repro.engine.executors``), which reaches process-pool workers through
the inherited environment.  The invariant under test everywhere: however
a campaign's execution is perturbed — crashes, dead workers, timeouts,
kills, resumes — the merged result equals a clean serial run.
"""

import time

import pytest

from repro.engine import RetryPolicy, run_plan
from repro.engine.executors import TEST_FAULT_ENV
from repro.errors import CampaignError, ShardFailureError
from tests.engine_faults import clean_summary, Events, FAST, small_plan


class TestRetryPaths:
    def test_crash_retry_success_parallel(self, monkeypatch):
        baseline = clean_summary()
        monkeypatch.setenv(TEST_FAULT_ENV, "crash:1:1")
        hook = Events()
        result = run_plan(
            small_plan(), jobs=2, retry_policy=FAST, progress=hook
        )
        assert result.summary() == baseline
        assert result.execution.retries == 1
        assert result.execution.attempts == [1, 2, 1, 1]
        assert result.execution.shards_completed == 4
        assert not result.execution.degraded
        assert "shard-retried" in hook.kinds()

    def test_crash_retry_success_serial(self, monkeypatch):
        baseline = clean_summary()
        monkeypatch.setenv(TEST_FAULT_ENV, "crash:0:1")
        result = run_plan(small_plan(), jobs=1, retry_policy=FAST)
        assert result.summary() == baseline
        assert result.execution.attempts == [2, 1, 1, 1]

    def test_timeout_kills_pool_and_retries(self, monkeypatch):
        # Attempt 1 of shard 1 wedges for 30s; the supervisor must cancel
        # it, rebuild the pool, and get the identical result on retry.
        baseline = clean_summary()
        monkeypatch.setenv(TEST_FAULT_ENV, "hang:1:1:30")
        started = time.monotonic()
        result = run_plan(
            small_plan(), jobs=2, shard_timeout_s=1.0, retry_policy=FAST
        )
        assert result.summary() == baseline
        assert result.execution.attempts[1] == 2
        assert time.monotonic() - started < 25.0  # nowhere near the 30s hang

    def test_worker_death_charges_only_the_culprit(self, monkeypatch):
        # Shard 2's worker dies outright (os._exit), breaking the shared
        # pool and losing innocent pending futures.  Isolation probing must
        # charge the retry budget only to the shard that fails alone.
        baseline = clean_summary()
        monkeypatch.setenv(TEST_FAULT_ENV, "exit:2:1")
        result = run_plan(small_plan(), jobs=2, retry_policy=FAST)
        assert result.summary() == baseline
        assert result.execution.attempts == [1, 1, 2, 1]


class TestQuarantine:
    def test_persistent_crash_quarantines_shard(self, monkeypatch):
        monkeypatch.setenv(TEST_FAULT_ENV, "crash:2:*")
        hook = Events()
        result = run_plan(
            small_plan(), jobs=1, quarantine=True, retry_policy=FAST, progress=hook
        )
        assert result.summary()["faults"] == 3  # campaign completed, minus shard 2
        assert result.execution.shards_quarantined == 1
        assert result.execution.quarantined == ["sup-test#s2"]
        assert result.execution.attempts[2] == FAST.max_attempts
        assert result.execution.degraded
        assert "shard-quarantined" in hook.kinds()

    def test_persistent_crash_raises_without_quarantine(self, monkeypatch):
        monkeypatch.setenv(TEST_FAULT_ENV, "crash:2:*")
        with pytest.raises(ShardFailureError, match="sup-test#s2"):
            run_plan(small_plan(), jobs=1, retry_policy=FAST)

    def test_parallel_quarantine_completes_remaining_shards(self, monkeypatch):
        monkeypatch.setenv(TEST_FAULT_ENV, "crash:0:*")
        result = run_plan(
            small_plan(), jobs=2, quarantine=True, retry_policy=FAST
        )
        assert result.summary()["faults"] == 3
        assert result.execution.quarantined == ["sup-test#s0"]


class TestCheckpointResume:
    def test_resume_skips_execution_entirely(self, tmp_path, monkeypatch):
        baseline = clean_summary()
        path = tmp_path / "ck.jsonl"
        first = run_plan(small_plan(), jobs=1, checkpoint=path)
        assert first.summary() == baseline
        # Any shard that actually executes now would crash — resuming must
        # therefore serve all four shards from the journal.
        monkeypatch.setenv(TEST_FAULT_ENV, "crash:*:*")
        hook = Events()
        resumed = run_plan(
            small_plan(), jobs=1, checkpoint=path, resume=True, progress=hook
        )
        assert resumed.summary() == baseline
        assert resumed.execution.shards_resumed == 4
        assert hook.kinds().count("shard-skipped") == 4
        assert "shard-started" not in hook.kinds()

    def test_partial_journal_resumes_missing_shards(self, tmp_path):
        baseline = clean_summary()
        path = tmp_path / "ck.jsonl"
        run_plan(small_plan(), jobs=1, checkpoint=path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:2]) + "\n")  # as if killed after 2 shards
        hook = Events()
        resumed = run_plan(
            small_plan(), jobs=2, checkpoint=path, resume=True, progress=hook
        )
        assert resumed.summary() == baseline
        assert resumed.execution.shards_resumed == 2
        assert resumed.execution.shards_completed == 2
        assert hook.kinds().count("checkpoint-written") == 2

    def test_checkpoint_written_events(self, tmp_path):
        hook = Events()
        run_plan(small_plan(), jobs=1, checkpoint=tmp_path / "ck.jsonl", progress=hook)
        assert hook.kinds().count("checkpoint-written") == 4

    def test_resume_requires_checkpoint(self):
        with pytest.raises(CampaignError):
            run_plan(small_plan(), jobs=1, resume=True)


class TestBackoffPolicy:
    def test_backoff_is_deterministic(self):
        policy = RetryPolicy()
        assert policy.backoff_s(123, 1) == policy.backoff_s(123, 1)
        assert policy.backoff_s(123, 1) != policy.backoff_s(124, 1)

    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(
            backoff_base_s=0.25, backoff_factor=2.0, backoff_max_s=5.0,
            jitter_fraction=0.0,
        )
        assert policy.backoff_s(7, 1) == 0.25
        assert policy.backoff_s(7, 2) == 0.5
        assert policy.backoff_s(7, 20) == 5.0

    def test_jitter_stays_in_band(self):
        policy = RetryPolicy(jitter_fraction=0.5)
        for seed in range(50):
            delay = policy.backoff_s(seed, 1)
            assert 0.125 <= delay <= 0.25

    def test_max_attempts(self):
        assert RetryPolicy(max_retries=0).max_attempts == 1
        assert RetryPolicy(max_retries=3).max_attempts == 4


class TestExecutorPlumbing:
    def test_parallel_executor_emits_starts_at_pickup(self, monkeypatch):
        # Regression: shard-started used to fire for every shard at submit
        # time.  A future reads as running once it enters the pool's call
        # queue (capacity workers + 1), so with two workers at most five
        # shards look picked-up before the first two finish, and two more
        # refill the pool before the head-of-line poll (at most 0.25s
        # behind) reports the first finish: 7 of 10, where submit-time
        # emission would give 10.  The last shard cannot possibly start
        # until several have finished.
        monkeypatch.setenv(TEST_FAULT_ENV, "slow:*:*:0.6")
        hook = Events()
        result = run_plan(
            small_plan(faults=10), jobs=2, retry_policy=FAST, progress=hook
        )
        kinds = hook.kinds()
        starts_before_first_finish = kinds[: kinds.index("shard-finished")].count(
            "shard-started"
        )
        assert starts_before_first_finish <= 7  # submit-time emission would be 10
        first_finish = kinds.index("shard-finished")
        last_start = max(
            i
            for i, event in enumerate(hook.events)
            if event.kind == "shard-started" and event.shard_index == 9
        )
        assert last_start > first_finish
        assert kinds.count("shard-started") == 10
        assert result.summary()["faults"] == 10
