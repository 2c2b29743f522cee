"""Fault-tolerant shard supervision: retries, backoff, quarantine, resume.

:class:`ShardSupervisor` is the production execution path of the engine
(behind :func:`repro.engine.run_plans` for every local run).  It treats
the campaign harness itself as a reliability-critical system — the same stance the paper takes toward SSD firmware:

- **bounded retries with exponential backoff** — each failed shard is
  retried up to :attr:`RetryPolicy.max_retries` times with exponentially
  growing, deterministically jittered delays.  The jitter derives from the
  shard seed and attempt number only; it never feeds the simulation, so
  retried shards reproduce their first attempt's result bit-for-bit and
  ``jobs=1`` / ``jobs=N`` determinism survives any failure pattern.
- **true timeout enforcement** — a shard's clock starts when a worker is
  *observed running* it (not at submit).  On expiry the wedged future is
  cancelled and, since a running worker cannot be cancelled, the whole
  pool is killed (worker processes terminated) and rebuilt; remaining
  shards keep running on the fresh pool instead of silently degrading to
  serial in-process execution.
- **broken-pool recovery with isolation probing** — when a worker dies
  (``BrokenProcessPool``) every pending future is lost and the culprit is
  unknown, so nobody is charged an attempt; the pool is rebuilt and the
  head shard is re-run *alone*.  Only a shard that fails in isolation has
  its attempt count incremented, so a single poison shard cannot exhaust
  innocent shards' retry budgets by repeatedly crashing shared pools.
- **poison-shard quarantine** — a shard that exhausts its budget is
  quarantined: the campaign completes, the shard is recorded in
  :class:`~repro.core.results.ExecutionStats` (and the journal) instead of
  crashing the fleet.  With ``quarantine_enabled=False`` (the library
  default) the supervisor raises
  :class:`~repro.errors.ShardFailureError` instead, because a silently
  short merged result is worse than a loud failure.
- **write-ahead checkpointing** — with a
  :class:`~repro.engine.checkpoint.CheckpointJournal` attached, every
  completed shard is fsync'd to the journal before it is reported
  finished, and a :class:`~repro.engine.checkpoint.ResumeState` lets a
  restarted campaign skip already-journaled shards entirely.
- **graceful interrupt** — SIGINT/SIGTERM set a flag; at the next safe
  point the supervisor kills the pool and raises
  :class:`~repro.errors.CampaignInterrupted`.  Journal appends are
  per-record durable, so everything acknowledged before the signal is
  resumable.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Sequence, Set, Tuple

from repro.core.results import CampaignResult, ExecutionStats, ShardTiming
from repro.engine.checkpoint import CheckpointJournal, ResumeState
from repro.engine.executors import (
    BackoffPoller,
    POLL_CAP_S,
    ShardKey,
    ShardTask,
    _run_shard_task,
)
from repro.engine.plan import merge_shard_results
from repro.engine.progress import EngineTelemetry
from repro.errors import CampaignInterrupted, ShardFailureError

_MASK64 = 0xFFFFFFFFFFFFFFFF


class InterruptFlag:
    """Latch set by SIGINT/SIGTERM; truthy once a signal has landed."""

    def __init__(self) -> None:
        self.signal_name: Optional[str] = None

    def __bool__(self) -> bool:
        return self.signal_name is not None


@contextmanager
def interrupt_flag_guard() -> Iterator[InterruptFlag]:
    """Install SIGINT/SIGTERM flag handlers for the guarded block.

    Handlers only install on the main thread (signal semantics); elsewhere
    the yielded flag simply never trips.  Previous handlers are restored on
    exit.  Shared by :class:`ShardSupervisor` and the remote coordinator so
    both interpret an interrupt the same way: set a flag, let the execution
    loop reach a safe point, flush, raise
    :class:`~repro.errors.CampaignInterrupted`.
    """
    flag = InterruptFlag()
    previous = {}
    if threading.current_thread() is threading.main_thread():
        def _set(signum, frame):  # pragma: no cover - exercised via CLI test
            flag.signal_name = signal.Signals(signum).name

        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                previous[sig] = signal.signal(sig, _set)
            except (ValueError, OSError):  # pragma: no cover
                pass
    try:
        yield flag
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)


def _mix64(a: int, b: int) -> int:
    """SplitMix64-style avalanche of a pair (for backoff jitter only)."""
    x = (int(a) ^ (int(b) * 0x9E3779B97F4A7C15)) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


@dataclass(frozen=True)
class RetryPolicy:
    """Retry budget and backoff schedule for one campaign run.

    ``max_retries`` is the number of *re*-attempts after the first try
    (budget of ``max_retries + 1`` attempts per shard).  Backoff for the
    ``n``-th failure is ``base * factor**(n-1)`` capped at ``max_s``, then
    shrunk by up to ``jitter_fraction`` using a deterministic hash of
    ``(shard seed, attempt)`` — reproducible, desynchronised, and
    guaranteed never to touch simulation seeds.
    """

    max_retries: int = 2
    backoff_base_s: float = 0.25
    backoff_factor: float = 2.0
    backoff_max_s: float = 5.0
    jitter_fraction: float = 0.5

    @property
    def max_attempts(self) -> int:
        """Total attempts allowed per shard."""
        return self.max_retries + 1

    def backoff_s(self, shard_seed: int, failure_index: int) -> float:
        """Delay before retrying after the ``failure_index``-th failure (1-based)."""
        raw = self.backoff_base_s * self.backoff_factor ** max(0, failure_index - 1)
        raw = min(self.backoff_max_s, raw)
        jitter = _mix64(shard_seed, failure_index) / float(2**64)
        return raw * (1.0 - self.jitter_fraction * jitter)


@dataclass
class ShardRun:
    """How one shard concluded: its result (if any) and execution story.

    ``pickup_latency_s`` (submit to observed pickup) and ``duration_s``
    (pickup to completion of the successful attempt) are populated by the
    supervisor where observable; resumed shards never ran, so theirs stay
    ``None``.  The timing feeds
    :class:`~repro.core.results.ShardTiming` on the merged result.
    """

    result: Optional[CampaignResult]
    attempts: int
    status: str  # "completed" | "resumed" | "quarantined"
    error: str = ""
    pickup_latency_s: Optional[float] = None
    duration_s: Optional[float] = None


def merge_plan_runs(plan, ordered_runs: Sequence[ShardRun]) -> CampaignResult:
    """Fold one plan's shard runs into a merged result + execution stats.

    Quarantined shards contribute no cycles (the merged result is
    *degraded*, and says so through ``result.execution``); a plan whose
    every shard was quarantined still completes, as an empty result.

    Shared by the in-process driver (:func:`repro.engine.run_plans`) and
    the campaign service client (:mod:`repro.engine.serve`), which both
    rebuild merged campaign results from per-shard runs — keeping the two
    paths bit-identical by construction.
    """
    completed = tuple(run.result for run in ordered_runs if run.result is not None)
    if completed:
        merged = merge_shard_results(plan, completed)
    else:
        merged = CampaignResult(label=plan.display_label())
    stats = ExecutionStats()
    for index, run in enumerate(ordered_runs):
        stats.attempts.append(run.attempts)
        stats.retries += max(0, run.attempts - 1)
        if run.status == "resumed":
            stats.shards_resumed += 1
            stats.retries -= max(0, run.attempts - 1)  # not retried *this* run
        elif run.status == "quarantined":
            stats.shards_quarantined += 1
            stats.quarantined.append(f"{plan.display_label()}#s{index}")
        else:
            stats.shards_completed += 1
        stats.timings.append(
            ShardTiming(
                shard_index=index,
                status=run.status,
                attempts=run.attempts,
                pickup_latency_s=run.pickup_latency_s,
                duration_s=run.duration_s,
            )
        )
    merged.execution = stats
    return merged


class ShardSupervisor:
    """Executes shard tasks with retries, quarantine, checkpoint, resume.

    Implements the executor protocol: ``execute(tasks, telemetry)``
    yields ``(key, ShardRun)`` pairs in task order.  ``jobs <= 1`` runs
    shards in-process (retry/quarantine/journal
    still apply; timeouts need worker processes and are ignored);
    ``jobs > 1`` manages its own ``ProcessPoolExecutor``, killing and
    rebuilding it when workers wedge or die.
    """

    def __init__(
        self,
        jobs: int = 1,
        shard_timeout_s: Optional[float] = None,
        policy: Optional[RetryPolicy] = None,
        journal: Optional[CheckpointJournal] = None,
        resume: Optional[ResumeState] = None,
        quarantine_enabled: bool = False,
        sleep=time.sleep,
        poll_interval_s: float = POLL_CAP_S,
    ) -> None:
        self.jobs = max(1, jobs if jobs else 1)
        self.shard_timeout_s = shard_timeout_s
        self.policy = policy if policy is not None else RetryPolicy()
        self.journal = journal
        self.resume = resume if resume is not None else ResumeState()
        self.quarantine_enabled = quarantine_enabled
        # Cap of the exponential head-of-line poll schedule (also bounds
        # how long an interrupt waits to be noticed).
        self.poll_interval_s = poll_interval_s
        self._sleep = sleep
        self._interrupt = InterruptFlag()

    # -- public entry ---------------------------------------------------------------

    def execute(
        self, tasks: Sequence[ShardTask], telemetry: EngineTelemetry
    ) -> Iterator[Tuple[ShardKey, ShardRun]]:
        """Yield ``(key, ShardRun)`` in task order, supervising execution."""
        with self._signal_guard():
            if self.jobs <= 1:
                yield from self._execute_serial(tasks, telemetry)
            else:
                yield from self._execute_parallel(tasks, telemetry)

    # -- signal handling ------------------------------------------------------------

    @contextmanager
    def _signal_guard(self):
        """Install SIGINT/SIGTERM flag handlers (main thread only)."""
        with interrupt_flag_guard() as flag:
            self._interrupt = flag
            yield

    def _raise_if_interrupted(self, pool: Optional[ProcessPoolExecutor]) -> None:
        if not self._interrupt:
            return
        if self.journal is not None:
            self.journal.close()  # appends are already fsync'd; release the handle
        if pool is not None:
            self._kill_pool(pool)
        raise CampaignInterrupted(
            f"campaign interrupted by {self._interrupt.signal_name}; "
            "checkpoint journal is flushed — restart with resume to continue"
        )

    # -- shared helpers -------------------------------------------------------------

    def _commit(
        self,
        plan_index: int,
        plan,
        shard,
        result: CampaignResult,
        attempts: int,
        telemetry: EngineTelemetry,
        worker_pid: Optional[int] = None,
        commit_lag_s: Optional[float] = None,
    ) -> None:
        """Durably journal a completed shard, then report it."""
        label = plan.display_label()
        if self.journal is not None:
            self.journal.append_shard(
                plan_index, shard.index, result, attempts, label=label
            )
            telemetry.checkpoint_written(
                label, shard.index, shard.count, commit_lag_s=commit_lag_s
            )
        telemetry.shard_finished(
            label,
            shard.index,
            shard.count,
            shard.faults,
            attempt=attempts,
            worker_pid=worker_pid,
        )

    def _quarantine(
        self,
        plan_index: int,
        plan,
        shard,
        attempts: int,
        reason: str,
        telemetry: EngineTelemetry,
        pool: Optional[ProcessPoolExecutor],
    ) -> ShardRun:
        """Record a poisoned shard; raise instead if quarantine is disabled."""
        label = plan.display_label()
        if self.journal is not None:
            self.journal.append_quarantine(plan_index, shard.index, attempts, reason)
        telemetry.shard_quarantined(
            label, shard.index, shard.count, reason, attempt=attempts
        )
        if not self.quarantine_enabled:
            if pool is not None:
                self._kill_pool(pool)
            raise ShardFailureError(
                f"shard {label}#s{shard.index} failed after {attempts} attempts "
                f"({reason}); enable quarantine to complete degraded campaigns"
            )
        return ShardRun(result=None, attempts=attempts, status="quarantined", error=reason)

    def _resumed_run(self, plan, shard, key: ShardKey, telemetry) -> ShardRun:
        telemetry.shard_skipped(
            plan.display_label(), shard.index, shard.count, shard.faults
        )
        return ShardRun(
            result=self.resume.results[key],
            attempts=self.resume.attempts.get(key, 1),
            status="resumed",
        )

    # -- serial path ----------------------------------------------------------------

    def _execute_serial(
        self, tasks: Sequence[ShardTask], telemetry: EngineTelemetry
    ) -> Iterator[Tuple[ShardKey, ShardRun]]:
        for plan_index, plan, shard in tasks:
            key = (plan_index, shard.index)
            if key in self.resume.results:
                yield key, self._resumed_run(plan, shard, key, telemetry)
                continue
            label = plan.display_label()
            attempt = 1
            while True:
                self._raise_if_interrupted(None)
                telemetry.shard_started(
                    label,
                    shard.index,
                    shard.count,
                    attempt=attempt,
                    worker_pid=os.getpid(),
                )
                attempt_started = time.monotonic()
                try:
                    result = _run_shard_task(plan, shard, attempt)
                except Exception as exc:
                    reason = repr(exc)
                    if attempt >= self.policy.max_attempts:
                        yield key, self._quarantine(
                            plan_index, plan, shard, attempt, reason, telemetry, None
                        )
                        break
                    telemetry.shard_retried(
                        label, shard.index, shard.count, reason, attempt=attempt
                    )
                    self._sleep(self.policy.backoff_s(shard.seed, attempt))
                    attempt += 1
                    continue
                duration = time.monotonic() - attempt_started
                self._commit(
                    plan_index,
                    plan,
                    shard,
                    result,
                    attempt,
                    telemetry,
                    worker_pid=os.getpid(),
                    commit_lag_s=0.0 if self.journal is not None else None,
                )
                yield key, ShardRun(
                    result=result,
                    attempts=attempt,
                    status="completed",
                    pickup_latency_s=0.0,
                    duration_s=duration,
                )
                break

    # -- parallel path --------------------------------------------------------------

    def _new_pool(self, task_count: int) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(max_workers=min(self.jobs, max(1, task_count)))

    @staticmethod
    def _kill_pool(pool: ProcessPoolExecutor) -> None:
        """Tear a pool down even when its workers are wedged.

        ``shutdown`` alone never reclaims a worker stuck in user code (the
        interpreter would then hang at exit joining it), so remaining
        worker processes are terminated outright.
        """
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        finally:
            workers = getattr(pool, "_processes", None)
            members = list(workers.values()) if workers else []
            for process in members:
                if process.is_alive():
                    process.terminate()
            for process in members:
                process.join(timeout=2.0)

    def _execute_parallel(
        self, tasks: Sequence[ShardTask], telemetry: EngineTelemetry
    ) -> Iterator[Tuple[ShardKey, ShardRun]]:
        by_key: Dict[ShardKey, ShardTask] = {
            (plan_index, shard.index): (plan_index, plan, shard)
            for plan_index, plan, shard in tasks
        }
        live = [
            (plan_index, shard.index)
            for plan_index, plan, shard in tasks
            if (plan_index, shard.index) not in self.resume.results
        ]
        attempts: Dict[ShardKey, int] = {key: 1 for key in live}
        futures: Dict[ShardKey, object] = {}
        started: Set[ShardKey] = set()
        submitted_at: Dict[ShardKey, float] = {}
        started_at: Dict[ShardKey, float] = {}
        done_at: Dict[ShardKey, float] = {}
        collected: Set[ShardKey] = set()
        probing = False

        pool = self._new_pool(len(live))

        def submit(key: ShardKey) -> None:
            nonlocal pool
            plan_index, plan, shard = by_key[key]
            started.discard(key)
            started_at.pop(key, None)
            done_at.pop(key, None)
            submitted_at[key] = time.monotonic()
            try:
                futures[key] = pool.submit(_run_shard_task, plan, shard, attempts[key])
            except BrokenExecutor:
                # A poison shard submitted an instant ago can kill the pool
                # before this submit lands.  A fresh pool cannot be broken,
                # so one rebuild is always enough; stale futures from the
                # dead pool read as cancelled and re-enter via wait_head.
                pool = self._rebuild_pool(pool, len(live))
                futures[key] = pool.submit(_run_shard_task, plan, shard, attempts[key])

        def scan_starts() -> bool:
            """Observe pickups and completions (for telemetry and timing).

            Returns whether anything new was observed, so the wait loop can
            reset its poll backoff when the pool is making progress.
            """
            now = time.monotonic()
            observed = False
            for key, future in futures.items():
                if key in collected:
                    continue
                if key not in started and (future.running() or future.done()):
                    started.add(key)
                    started_at[key] = now
                    observed = True
                    plan_index, plan, shard = by_key[key]
                    telemetry.shard_started(
                        plan.display_label(),
                        shard.index,
                        shard.count,
                        attempt=attempts[key],
                    )
                if key not in done_at and future.done() and not future.cancelled():
                    # First observation of the result being available; the
                    # gap until head-of-line commit is the checkpoint lag.
                    done_at[key] = now
                    observed = True
            return observed

        def resubmit_pending(except_key: Optional[ShardKey]) -> None:
            """Re-queue every uncollected shard whose future died with the pool."""
            for key in live:
                if key in collected or key == except_key:
                    continue
                future = futures.get(key)
                if (
                    future is not None
                    and future.done()
                    and not future.cancelled()
                    and future.exception() is None
                ):
                    continue  # finished before the pool broke; result retained
                submit(key)

        def wait_head(key: ShardKey):
            """Block (politely) on the head-of-line shard; classify the outcome.

            Polls on a capped exponential schedule: pool progress resets
            the backoff, a quiet pool settles at ``poll_interval_s``.
            """
            future = futures[key]
            poller = BackoffPoller(cap_s=self.poll_interval_s)
            while True:
                self._raise_if_interrupted(pool)
                if scan_starts():
                    poller.reset()
                if future.done() and not future.cancelled():
                    exc = future.exception()
                    if exc is None:
                        return "ok", future.result()
                    if isinstance(exc, BrokenExecutor):
                        return "broken", exc
                    return "error", exc
                if future.cancelled():
                    return "broken", RuntimeError("future cancelled by pool teardown")
                if (
                    self.shard_timeout_s is not None
                    and key in started_at
                    and time.monotonic() - started_at[key] > self.shard_timeout_s
                ):
                    return "timeout", None
                time.sleep(poller.next_delay())

        try:
            for key in live:
                submit(key)
            for plan_index, plan, shard in tasks:
                key = (plan_index, shard.index)
                if key in self.resume.results:
                    yield key, self._resumed_run(plan, shard, key, telemetry)
                    continue
                label = plan.display_label()
                while True:
                    kind, payload = wait_head(key)
                    if kind == "ok":
                        now = time.monotonic()
                        finished_at = done_at.get(key, now)
                        picked_up = started_at.get(key, finished_at)
                        pickup = (
                            picked_up - submitted_at[key]
                            if key in submitted_at
                            else None
                        )
                        self._commit(
                            plan_index,
                            plan,
                            shard,
                            payload,
                            attempts[key],
                            telemetry,
                            commit_lag_s=(
                                now - finished_at if self.journal is not None else None
                            ),
                        )
                        collected.add(key)
                        yield key, ShardRun(
                            result=payload,
                            attempts=attempts[key],
                            status="completed",
                            pickup_latency_s=pickup,
                            duration_s=finished_at - picked_up,
                        )
                        if probing:
                            resubmit_pending(except_key=None)
                            probing = False
                        break

                    if kind == "timeout":
                        reason = (
                            f"timeout: no result {self.shard_timeout_s}s after pickup"
                        )
                        charged = True
                        futures[key].cancel()
                        pool = self._rebuild_pool(pool, len(live))
                        probing = True
                    elif kind == "broken":
                        reason = repr(payload)
                        # In probe mode the shard ran alone, so the crash is
                        # provably its own; otherwise nobody is charged yet.
                        charged = probing
                        pool = self._rebuild_pool(pool, len(live))
                        probing = True
                    else:  # worker raised; pool is still healthy
                        reason = repr(payload)
                        charged = True

                    if charged:
                        if attempts[key] >= self.policy.max_attempts:
                            collected.add(key)
                            run = self._quarantine(
                                plan_index,
                                plan,
                                shard,
                                attempts[key],
                                reason,
                                telemetry,
                                pool,
                            )
                            yield key, run
                            if probing:
                                resubmit_pending(except_key=key)
                                probing = False
                            break
                        telemetry.shard_retried(
                            label, shard.index, shard.count, reason,
                            attempt=attempts[key],
                        )
                        self._raise_if_interrupted(pool)
                        self._sleep(
                            self.policy.backoff_s(shard.seed, attempts[key])
                        )
                        attempts[key] += 1
                    submit(key)
        finally:
            self._kill_pool(pool)

    def _rebuild_pool(
        self, pool: ProcessPoolExecutor, task_count: int
    ) -> ProcessPoolExecutor:
        self._kill_pool(pool)
        return self._new_pool(task_count)
