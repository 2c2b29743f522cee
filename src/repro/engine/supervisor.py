"""Fault-tolerant shard execution: retries, backoff, quarantine, resume.

:func:`execute_shards` is the engine's one shard driver (behind
:func:`repro.engine.run_plans`).  It runs every campaign on the campaign
service's state machine, :class:`~repro.engine.aiocoord.CoordinatorCore`,
and only the step that hands a granted shard to a worker differs between
inline (``jobs=1``), forked (``jobs > 1``) and TCP (``listen=``)
execution, so all three share one retry, quarantine, journal, resume and
interrupt policy.  It treats the campaign harness itself as a
reliability-critical system — the same stance the paper takes toward SSD
firmware:

- **bounded retries with exponential backoff** — each failed shard is
  retried up to :attr:`RetryPolicy.max_retries` times with exponentially
  growing, deterministically jittered delays.  The jitter derives from the
  shard seed and attempt number only; it never feeds the simulation, so
  retried shards reproduce their first attempt's result bit-for-bit and
  ``jobs=1`` / ``jobs=N`` determinism survives any failure pattern.
- **true timeout enforcement** — with ``jobs > 1`` every shard runs in a
  forked worker process holding one shard at a time.  A shard whose
  result has not arrived ``shard_timeout_s`` after its worker received it
  is charged a failed attempt, and the worker is SIGKILLed and replaced.
- **worker-death recovery** — each forked worker has its own pipe to the
  parent, and each TCP worker its own connection and lease, so a worker
  that dies is charged to the one shard it held; a forked one is
  replaced, and the other workers never notice.
- **poison-shard quarantine** — a shard that exhausts its budget is
  quarantined: the campaign completes, the shard is recorded in
  :class:`~repro.core.results.ExecutionStats` (and the journal) instead of
  crashing the fleet.  With ``quarantine_enabled=False`` (the library
  default) the driver raises
  :class:`~repro.errors.ShardFailureError` instead, because a silently
  short merged result is worse than a loud failure.
- **write-ahead checkpointing** — with a
  :class:`~repro.engine.checkpoint.CheckpointJournal` attached, every
  completed shard is fsync'd to the journal before it is reported
  finished, and a :class:`~repro.engine.checkpoint.ResumeState` lets a
  restarted campaign skip already-journaled shards entirely.
- **graceful interrupt** — SIGINT/SIGTERM set a flag; at the next safe
  point the driver kills its forked workers (or stops its service) and
  raises
  :class:`~repro.errors.CampaignInterrupted`.  Journal appends are
  per-record durable, so everything acknowledged before the signal is
  resumable.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import signal
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from multiprocessing.connection import Connection, wait
from multiprocessing.process import BaseProcess
from typing import Dict, Iterator, Optional, Sequence, Tuple, Union

from repro.core.results import CampaignResult, ExecutionStats, ShardTiming
from repro.engine.checkpoint import CheckpointJournal, ResumeState
from repro.engine.executors import ShardKey, ShardTask, _run_shard_task
from repro.engine.plan import merge_shard_results
from repro.engine.progress import EngineTelemetry
from repro.engine.wire import DEFAULT_LEASE_TIMEOUT_S
from repro.errors import CampaignInterrupted

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
    exit.  :func:`execute_shards` raises
    :class:`~repro.errors.CampaignInterrupted` at its next safe point once
    the flag trips, whichever step runs the shards, and ``repro serve``
    (:func:`~repro.engine.serve.run_serve`) stops its service.
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

    ``pickup_latency_s`` (queued to picked up) and ``duration_s``
    (pickup to completion of the successful attempt) are populated by the
    coordinator core; resumed shards never ran, so theirs stay
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


def execute_shards(
    tasks: Sequence[ShardTask],
    telemetry: EngineTelemetry,
    jobs: int = 1,
    policy: Optional[RetryPolicy] = None,
    journal: Optional[CheckpointJournal] = None,
    resume: Optional[ResumeState] = None,
    quarantine_enabled: bool = False,
    shard_timeout_s: Optional[float] = None,
    listen: Optional[Union[str, Tuple[str, int]]] = None,
    lease_timeout_s: Optional[float] = None,
) -> Iterator[Tuple[ShardKey, ShardRun]]:
    """Run shard tasks; yield ``(key, ShardRun)`` in task order.

    One :class:`~repro.engine.aiocoord.CoordinatorCore` grants the
    shards, and resumed shards are prefilled on it.  Only the step that
    carries a grant to a worker differs:

    - ``jobs=1``: this process runs each granted shard inline (and so
      cannot preempt it: ``shard_timeout_s`` is ignored);
    - ``jobs > 1``: each slot is a forked worker on its own pipe (see
      :func:`_worker_loop`).  A worker that dies or whose pipe closes
      fails the shard it held; one whose shard overran
      ``shard_timeout_s`` is SIGKILLed.  Either way a replacement is
      forked, and every worker is killed and reaped on the way out;
    - ``listen="HOST:PORT"``: an ephemeral
      :class:`~repro.engine.serve.CampaignService` serves the core to
      ``repro worker`` processes over TCP, and this process waits for
      their outcomes.  ``lease_timeout_s`` bounds how long a silent
      worker holds a shard; ``jobs`` is ignored.
    """
    # Deferred: aiocoord and serve import this module.
    from repro.engine.aiocoord import CoordinatorCore, SWEEP_INTERVAL_CAP_S
    from repro.engine.serve import CampaignService

    service = None
    if listen is not None:
        # Bound before any shard is reported, so a taken port fails first.
        service = CampaignService(
            listen=listen,
            lease_timeout_s=(
                DEFAULT_LEASE_TIMEOUT_S if lease_timeout_s is None else lease_timeout_s
            ),
        )
    resume = resume if resume is not None else ResumeState()
    core = CoordinatorCore(
        tasks,
        policy=policy if policy is not None else RetryPolicy(),
        telemetry=telemetry,
        journal=journal,
        quarantine_enabled=quarantine_enabled,
        shard_timeout_s=shard_timeout_s,
        # Local workers send no heartbeats.
        lease_timeout_s=math.inf if service is None else service.lease_timeout_s,
    )
    for key in core.order:
        if key in resume.results:
            core.prefill(
                key,
                ShardRun(
                    result=resume.results[key],
                    attempts=resume.attempts.get(key, 1),
                    status="resumed",
                ),
            )
    workers: Dict[int, Tuple[BaseProcess, Connection]] = {}

    def kill(pid: int) -> None:
        process, conn = workers.pop(pid)
        process.kill()
        process.join()
        conn.close()

    def step_inline() -> None:
        grant = core.grant(os.getpid(), 0)
        if grant["kind"] == "wait":  # a retry's backoff is still pending
            time.sleep(grant["delay_s"])
            return
        key, attempt = (grant["plan"], grant["shard"]), grant["attempt"]
        _plan_index, plan, shard = core.by_key[key]
        try:
            result, error = _run_shard_task(plan, shard, attempt), ""
        except Exception as exc:
            result, error = None, repr(exc)
        core.settle(key, attempt, 0, result, error)

    def step_forked() -> None:
        fork = multiprocessing.get_context("fork")
        while len(workers) < min(jobs, len(core.order) - len(core.done)):
            sys.stdout.flush()  # so no unwritten output is copied into the worker
            sys.stderr.flush()
            conn, child_end = fork.Pipe()
            process = fork.Process(
                target=_worker_loop, args=(child_end, core.by_key), daemon=True
            )
            process.start()
            child_end.close()
            workers[process.pid] = (process, conn)
        timeout = SWEEP_INTERVAL_CAP_S  # also bounds how late an interrupt is seen
        busy = {lease.conn_id for lease in core.leases.values()}
        for pid, (_process, conn) in workers.items():
            if pid in busy:
                continue
            grant = core.grant(pid, pid)
            if grant["kind"] != "shard":
                timeout = min(timeout, grant.get("delay_s", timeout))
                break
            try:
                conn.send(((grant["plan"], grant["shard"]), grant["attempt"]))
            except OSError:
                pass  # the worker died: the wait below sees its closed pipe
        sources = {}
        for pid, (process, conn) in workers.items():
            sources[conn] = sources[process.sentinel] = pid
        for pid in {sources[source] for source in wait(list(sources), timeout)}:
            try:
                key, attempt, result, error = workers[pid][1].recv()
            except (EOFError, OSError):
                kill(pid)
                core.release(pid, pid)
                continue
            core.settle(key, attempt, pid, result, error)
        busy = {lease.conn_id for lease in core.leases.values()}
        core.sweep()
        for pid in busy - {lease.conn_id for lease in core.leases.values()}:
            kill(pid)  # the sweep timed its shard out, so it is wedged

    def step_served() -> None:
        # The service's loop thread settles shards and then notifies under
        # this lock, so testing again under it loses no wakeup; the bound
        # keeps a signal from waiting on the next settle.
        with submission.settled:
            if (
                core.order[position] not in core.done
                and core.fatal is None
                and not interrupted
            ):
                submission.settled.wait(timeout=0.1)

    if service is not None:
        submission = service.submit_local(core)
        address = f"{service.host}:{service.port}"
        print(
            f"[engine] coordinator listening on {address} "
            f"(fingerprint {submission.fingerprint}, "
            f"{len(core.ready)} shard(s) to lease) — start "
            f"workers with: repro worker --connect {address}",
            file=sys.stderr,
            flush=True,
        )
        step = step_served
    else:
        step = step_inline if jobs <= 1 else step_forked
    position = 0
    with interrupt_flag_guard() as interrupted:
        if service is not None:
            service.start()
        try:
            while True:
                while position < len(core.order) and core.order[position] in core.done:
                    key = core.order[position]
                    position += 1
                    yield key, core.done[key]
                # Not ``core.complete``: under ``listen=`` the service's
                # thread may settle the last shards after the loop above
                # stopped, and they must still be yielded.
                if position == len(core.order):
                    return
                if interrupted:
                    raise CampaignInterrupted(
                        f"campaign interrupted by {interrupted.signal_name}; "
                        "checkpoint journal is flushed — restart with resume to continue"
                    )
                if core.fatal is not None:
                    raise core.fatal
                step()
        finally:
            for pid in list(workers):
                kill(pid)
            if service is not None:
                service.stop()


def _worker_loop(conn: Connection, by_key: Dict[ShardKey, ShardTask]) -> None:
    """Body of one forked worker: run each ``(key, attempt)`` the parent sends.

    The parent owns interrupts, so SIGINT is ignored and SIGTERM is reset
    to kill (the inherited handler would only set a copy of the parent's
    flag).  The worker replies ``(key, attempt, result, error)`` and never
    returns: it ends by SIGKILL, or by ``os._exit`` once the parent hangs
    up, so it never flushes the stdio buffers it inherited.
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        while True:
            key, attempt = conn.recv()
            _plan_index, plan, shard = by_key[key]
            try:
                reply = (key, attempt, _run_shard_task(plan, shard, attempt), "")
            except Exception as exc:
                reply = (key, attempt, None, repr(exc))
            conn.send(reply)
    finally:
        os._exit(0)
