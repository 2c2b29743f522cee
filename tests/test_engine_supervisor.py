"""Failure-path tests for fault-tolerant local shard execution.

Faults are injected through the ``REPRO_ENGINE_TEST_FAULT`` fixture (see
``repro.engine.executors``), which reaches forked workers through the
inherited environment.  The invariant under test everywhere: however
a campaign's execution is perturbed — crashes, dead workers, timeouts,
kills, resumes — the merged result equals a clean serial run.
"""

import multiprocessing
import os
import threading
import time
from pathlib import Path

import pytest

from repro.engine import RetryPolicy, aiocoord, run_plan
from repro.engine.executors import TEST_FAULT_ENV
from repro.errors import CampaignError, ShardFailureError
from tests.engine_faults import (
    clean_summary,
    Events,
    FAST,
    run_distributed,
    small_plan,
)


def child_pids():
    """Pids of every process whose parent is this one, zombies included.

    Empty where there is no ``/proc``; ``active_children`` still checks.
    """
    me = os.getpid()
    pids = set()
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            text = stat.read_text()
        except OSError:
            continue  # exited between the listing and the read
        # The ppid is the second field after the parenthesised command
        # name, which may itself contain spaces and parentheses.
        if int(text[text.rindex(")") + 2 :].split()[1]) == me:
            pids.add(int(stat.parent.name))
    return pids


def assert_no_new_children(before):
    assert multiprocessing.active_children() == []
    assert child_pids() <= before


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
        # Attempt 1 of shard 1 wedges for 30s; the driver must kill its
        # worker at the timeout and get the identical result on retry.
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
        # Shard 2's worker dies outright (os._exit).  Each worker has its
        # own pipe, so only the shard the dead worker held is charged.
        baseline = clean_summary()
        monkeypatch.setenv(TEST_FAULT_ENV, "exit:2:1")
        result = run_plan(small_plan(), jobs=2, retry_policy=FAST)
        assert result.summary() == baseline
        assert result.execution.attempts == [1, 1, 2, 1]


class TestNoLeftoverWorkers:
    """However a shard failed, ``run_plan`` returns with no child alive.

    A small shard takes about 0.5 s, so a 2 s shard timeout only ever
    fires on an injected hang.
    """

    def test_timed_out_shard_leaves_no_child(self, monkeypatch):
        baseline = clean_summary()
        before = child_pids()
        monkeypatch.setenv(TEST_FAULT_ENV, "hang:1:1:30")
        result = run_plan(
            small_plan(), jobs=2, shard_timeout_s=2.0, retry_policy=FAST
        )
        assert_no_new_children(before)
        assert result.summary() == baseline
        assert result.execution.attempts[1] == 2

    def test_worker_death_leaves_no_child(self, monkeypatch):
        baseline = clean_summary()
        before = child_pids()
        monkeypatch.setenv(TEST_FAULT_ENV, "exit:2:1")
        result = run_plan(
            small_plan(), jobs=2, shard_timeout_s=2.0, retry_policy=FAST
        )
        assert_no_new_children(before)
        assert result.summary() == baseline
        assert result.execution.attempts == [1, 1, 2, 1]

    def test_persistent_death_quarantines_only_the_culprit(self, monkeypatch):
        before = child_pids()
        monkeypatch.setenv(TEST_FAULT_ENV, "exit:2:*")
        result = run_plan(
            small_plan(),
            jobs=2,
            shard_timeout_s=2.0,
            retry_policy=FAST,
            quarantine=True,
        )
        assert result.execution.quarantined == ["sup-test#s2"]
        assert result.execution.attempts[2] == FAST.max_attempts
        assert_no_new_children(before)

    def test_every_first_attempt_hanging_finishes_promptly(self, monkeypatch):
        # Each wedged worker must be killed at its timeout: requeueing the
        # shard while the wedged worker keeps its slot would serialise the
        # campaign behind 30 s sleeps.
        baseline = clean_summary()
        monkeypatch.setenv(TEST_FAULT_ENV, "hang:*:1:30")
        started = time.monotonic()
        result = run_plan(
            small_plan(), jobs=2, shard_timeout_s=2.0, retry_policy=FAST
        )
        assert time.monotonic() - started < 20.0
        assert result.summary() == baseline
        assert all(attempts >= 2 for attempts in result.execution.attempts)


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

    # jobs=None serves the shards to one `repro worker` over TCP (listen=).
    @pytest.mark.parametrize("jobs", [1, 2, None], ids=["1", "2", "tcp"])
    def test_partial_journal_resumes_missing_shards(self, tmp_path, jobs):
        baseline = clean_summary()
        path = tmp_path / "ck.jsonl"
        run_plan(small_plan(), jobs=1, checkpoint=path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:2]) + "\n")  # as if killed after 2 shards
        hook = Events()
        if jobs is None:
            resumed, codes = run_distributed(
                small_plan(), workers=1, checkpoint=path, resume=True, progress=hook
            )
            assert codes == [0]
        else:
            resumed = run_plan(
                small_plan(), jobs=jobs, checkpoint=path, resume=True, progress=hook
            )
        assert resumed.summary() == baseline
        assert resumed.execution.shards_resumed == 2
        assert resumed.execution.shards_completed == 2
        assert hook.kinds().count("checkpoint-written") == 2
        # The journal kept shards 0 and 1: each is reported once, in task
        # order, before any shard runs.
        assert hook.kinds()[:2] == ["shard-skipped", "shard-skipped"]
        skipped = [e.shard_index for e in hook.events if e.kind == "shard-skipped"]
        assert skipped == [0, 1]

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
        # time.  A shard starts when a worker receives it, and each of the
        # two workers holds one shard at a time, so only two shards can
        # start before the first finish, where submit-time emission would
        # give 10.  The last shard cannot possibly start until several
        # have finished.
        monkeypatch.setenv(TEST_FAULT_ENV, "slow:*:*:0.6")
        hook = Events()
        result = run_plan(
            small_plan(faults=10), jobs=2, retry_policy=FAST, progress=hook
        )
        kinds = hook.kinds()
        starts_before_first_finish = kinds[: kinds.index("shard-finished")].count(
            "shard-started"
        )
        assert starts_before_first_finish <= 2  # submit-time emission would be 10
        first_finish = kinds.index("shard-finished")
        last_start = max(
            i
            for i, event in enumerate(hook.events)
            if event.kind == "shard-started" and event.shard_index == 9
        )
        assert last_start > first_finish
        assert kinds.count("shard-started") == 10
        assert result.summary()["faults"] == 10


class TestServedStep:
    def test_shards_settled_after_the_yield_loop_are_still_yielded(self, monkeypatch):
        # Under listen= the service's thread settles shards while the
        # driver runs.  This core makes the worst interleaving certain:
        # asked on the driver's thread whether it is complete, it first
        # waits until the service's thread has settled every shard, as if
        # the last ones settled between the driver's yield loop and its
        # exit test.  The driver must still yield every shard.
        class LateAnsweringCore(aiocoord.CoordinatorCore):
            @property
            def complete(self):
                if threading.current_thread() is threading.main_thread():
                    deadline = time.monotonic() + 60
                    while len(self.done) < len(self.order) and time.monotonic() < deadline:
                        time.sleep(0.01)
                return len(self.done) >= len(self.order)

        monkeypatch.setattr(aiocoord, "CoordinatorCore", LateAnsweringCore)
        result, codes = run_distributed(small_plan(), workers=1)
        assert codes == [0]
        assert result.summary() == clean_summary()
        assert result.execution.shards_completed == 4
