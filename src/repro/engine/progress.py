"""Engine progress/telemetry hooks.

Executors report shard lifecycle events through an :class:`EngineTelemetry`
instance; consumers (CLI, benches, tests, the trace writer) receive
:class:`ProgressEvent` values carrying capture timestamps, throughput
(cycles/sec) and an ETA estimate.  A :class:`ProgressEvent` is the one
record of an engine event: the hook gets it, the trace writer
(:class:`repro.engine.trace.TraceWriter`) encodes it as one JSONL line,
and every reader (:func:`repro.engine.trace.read_trace`, the live
follower, the campaign service's stream) decodes that line back into an
equal value.  The hook is a plain callable, so tests can collect events
into a list and the CLI can render them as console lines.

Throughput accounting distinguishes *executed* cycles from cycles loaded
out of a checkpoint journal: skipped shards count toward progress totals
(``cycles_done``) but never toward the rate, so a resumed run's
``cycles_per_sec``/ETA describe the work actually being performed instead
of crediting the engine with cycles a previous run already paid for.
"""

from __future__ import annotations

import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable, Optional, TextIO, Union

PLAN_EVENT_INDEX = -1
"""Sentinel ``shard_index`` for plan-level events (``plan-finished``).

Plan-level events describe no particular shard; using a real index would
alias a shard for any consumer keying events by ``(plan_label,
shard_index)``.
"""


@dataclass(frozen=True)
class ProgressEvent:
    """One telemetry snapshot, emitted on every shard state change.

    ``kind`` is one of ``shard-started`` (a worker actually picked the
    shard up), ``shard-finished``, ``shard-retried``, ``shard-skipped``
    (loaded from a checkpoint instead of executed), ``shard-quarantined``
    (retry budget exhausted), ``checkpoint-written`` (shard committed to
    the journal), or ``plan-finished`` (whose ``shard_index`` is the
    :data:`PLAN_EVENT_INDEX` sentinel, never a real shard).

    ``wall_time_s`` and ``mono_time_s`` are the wall-clock and monotonic
    capture timestamps :class:`EngineTelemetry` stamps when it emits the
    event.  ``attempt`` is the attempt number the event describes
    (``None`` when not applicable); ``worker_pid`` identifies the
    executing worker when the emitter knows it — a bare pid for local
    execution (this process for ``jobs=1``, the forked worker otherwise),
    or a ``"host:pid"`` string for distributed workers, so trace reports
    can attribute stragglers to machines; ``commit_lag_s``
    (checkpoint-written only) is how long a finished shard result waited
    before being durably journaled.

    The fields are in trace-line key order, and the ones without a
    default are the ones every trace line must carry
    (:data:`repro.engine.trace.TRACE_FIELDS`).
    """

    kind: str
    plan_label: str
    shard_index: int
    shard_count: int
    wall_time_s: float
    mono_time_s: float
    shards_done: int
    shards_total: int
    cycles_done: int
    cycles_total: int
    cycles_skipped: int
    elapsed_s: float
    cycles_per_sec: float
    eta_s: Optional[float] = None
    attempt: Optional[int] = None
    worker_pid: Optional[Union[int, str]] = None
    commit_lag_s: Optional[float] = None
    detail: str = ""


ProgressHook = Callable[[ProgressEvent], None]


def format_eta(eta_s: Optional[float]) -> str:
    """Render an ETA estimate (``"?"`` until throughput is known).

    Shared by :func:`event_line` and the live follow dashboard
    (:mod:`repro.engine.live`) so the two surfaces can't disagree.
    """
    return f"{eta_s:.0f}s" if eta_s is not None else "?"


def event_line(event: ProgressEvent, source: str, rate: bool) -> str:
    """One console line for ``event``, tagged ``[source]``.

    The ``[engine]`` lines of :class:`ConsoleProgress` carry the
    executed-cycle ``rate``; the ``[serve]`` lines that ``repro submit
    --progress`` and ``repro follow`` print do not.
    """
    if event.shard_index == PLAN_EVENT_INDEX:
        scope = f"all {event.shard_count} shards"
    else:
        scope = f"shard {event.shard_index + 1}/{event.shard_count}"
    fields = [
        f"[{source}] {event.kind:<14} {event.plan_label} {scope}",
        f"shards {event.shards_done}/{event.shards_total}",
        f"cycles {event.cycles_done}/{event.cycles_total}",
    ]
    if rate:
        fields.append(f"{event.cycles_per_sec:.2f} cycles/s")
    fields.append(f"ETA {format_eta(event.eta_s)}")
    if event.detail:
        fields.append(event.detail)
    return " | ".join(fields)


def fanout_hooks(*hooks: Optional[ProgressHook]) -> Optional[ProgressHook]:
    """Combine hooks into one (``None`` entries dropped; empty -> ``None``)."""
    live = [hook for hook in hooks if hook is not None]
    if not live:
        return None
    if len(live) == 1:
        return live[0]

    def _fanout(event: ProgressEvent) -> None:
        for hook in live:
            hook(event)

    return _fanout


class EngineTelemetry:
    """Aggregates shard events into throughput/ETA snapshots.

    Executors call the ``shard_*``/``plan_finished`` methods; each call
    builds a :class:`ProgressEvent`, stamped with ``clock()`` (monotonic)
    and :func:`time.time` (wall), and forwards it to the hook (if any).

    Event entry points are serialized by a mutex: the asyncio coordinator
    emits worker-driven events from its event-loop thread while the
    engine's driver thread emits ``shard-skipped``/``plan-finished``, and
    both the counters and the hook (often a shared
    :class:`~repro.engine.trace.TraceWriter`) must see one event at a
    time.
    """

    def __init__(
        self,
        shards_total: int,
        cycles_total: int,
        hook: Optional[ProgressHook] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.shards_total = shards_total
        self.cycles_total = cycles_total
        self.shards_done = 0
        self.cycles_done = 0
        self.cycles_skipped = 0
        self._hook = hook
        self._clock = clock
        self._start = clock()
        self._mutex = threading.RLock()

    # -- derived ------------------------------------------------------------------

    @property
    def elapsed_s(self) -> float:
        """Wall-clock seconds since the engine run started."""
        return self._clock() - self._start

    @property
    def cycles_executed(self) -> int:
        """Cycles actually run this session (checkpoint-loaded ones excluded)."""
        return self.cycles_done - self.cycles_skipped

    @property
    def cycles_per_sec(self) -> float:
        """Observed *executed*-cycle throughput.

        Cycles served from a checkpoint journal are excluded: they took no
        work this run, and folding them in made a resumed run's rate (and
        therefore its ETA) wildly optimistic.
        """
        return self._rate(self.elapsed_s)

    @property
    def eta_s(self) -> Optional[float]:
        """Estimated seconds to completion (None until throughput is known).

        Remaining work is everything not yet *done* (skipped shards do
        count as done — they need no further time); the rate it is divided
        by comes from executed cycles only.
        """
        return self._eta(self.cycles_per_sec)

    def _rate(self, elapsed: float) -> float:
        if elapsed <= 0.0 or self.cycles_executed <= 0:
            return 0.0
        return self.cycles_executed / elapsed

    def _eta(self, rate: float) -> Optional[float]:
        if rate <= 0.0:
            return None
        return max(0.0, (self.cycles_total - self.cycles_done) / rate)

    # -- event entry points -------------------------------------------------------

    def shard_started(
        self,
        plan_label: str,
        index: int,
        count: int,
        attempt: Optional[int] = None,
        worker_pid: Optional[Union[int, str]] = None,
    ) -> None:
        """A shard began executing (a worker actually picked it up)."""
        self._emit(
            "shard-started",
            plan_label,
            index,
            count,
            attempt=attempt,
            worker_pid=worker_pid,
        )

    def shard_finished(
        self,
        plan_label: str,
        index: int,
        count: int,
        cycles: int,
        attempt: Optional[int] = None,
        worker_pid: Optional[Union[int, str]] = None,
    ) -> None:
        """A shard completed; fold its cycles into the throughput estimate."""
        with self._mutex:
            self.shards_done += 1
            self.cycles_done += cycles
            self._emit(
                "shard-finished",
                plan_label,
                index,
                count,
                attempt=attempt,
                worker_pid=worker_pid,
            )

    def shard_retried(
        self,
        plan_label: str,
        index: int,
        count: int,
        reason: str,
        attempt: Optional[int] = None,
    ) -> None:
        """A shard failed or timed out and is being retried in-process."""
        self._emit(
            "shard-retried",
            plan_label,
            index,
            count,
            detail=reason,
            attempt=attempt,
        )

    def shard_skipped(
        self, plan_label: str, index: int, count: int, cycles: int
    ) -> None:
        """A shard was loaded from the checkpoint journal, not executed.

        Its cycles advance the progress totals but are tracked separately
        so the throughput/ETA estimate only reflects executed work.
        """
        with self._mutex:
            self.shards_done += 1
            self.cycles_done += cycles
            self.cycles_skipped += cycles
            self._emit(
                "shard-skipped", plan_label, index, count, detail="from checkpoint"
            )

    def shard_quarantined(
        self,
        plan_label: str,
        index: int,
        count: int,
        reason: str,
        attempt: Optional[int] = None,
    ) -> None:
        """A shard exhausted its retry budget and was quarantined."""
        with self._mutex:
            self.shards_done += 1
            self._emit(
                "shard-quarantined",
                plan_label,
                index,
                count,
                detail=reason,
                attempt=attempt,
            )

    def checkpoint_written(
        self,
        plan_label: str,
        index: int,
        count: int,
        commit_lag_s: Optional[float] = None,
    ) -> None:
        """A shard result was durably committed to the journal."""
        self._emit(
            "checkpoint-written",
            plan_label,
            index,
            count,
            commit_lag_s=commit_lag_s,
        )

    def plan_finished(self, plan_label: str, shard_count: int) -> None:
        """Every shard of one plan has merged (shard index is the sentinel)."""
        self._emit("plan-finished", plan_label, PLAN_EVENT_INDEX, shard_count)

    # -- internals ----------------------------------------------------------------

    def _emit(
        self,
        kind: str,
        plan_label: str,
        index: int,
        count: int,
        detail: str = "",
        attempt: Optional[int] = None,
        worker_pid: Optional[Union[int, str]] = None,
        commit_lag_s: Optional[float] = None,
    ) -> None:
        if self._hook is None:
            return
        with self._mutex:
            # One clock reading, so every field describes the same instant.
            now = self._clock()
            elapsed = now - self._start
            rate = self._rate(elapsed)
            self._hook(
                ProgressEvent(
                    kind=kind,
                    plan_label=plan_label,
                    shard_index=index,
                    shard_count=count,
                    wall_time_s=time.time(),
                    mono_time_s=now,
                    shards_done=self.shards_done,
                    shards_total=self.shards_total,
                    cycles_done=self.cycles_done,
                    cycles_total=self.cycles_total,
                    cycles_skipped=self.cycles_skipped,
                    elapsed_s=elapsed,
                    cycles_per_sec=rate,
                    eta_s=self._eta(rate),
                    attempt=attempt,
                    worker_pid=worker_pid,
                    commit_lag_s=commit_lag_s,
                    detail=detail,
                )
            )


class ConsoleProgress:
    """Progress hook rendering one console line per event.

    Shard starts and checkpoint writes are not rendered.  Lines go to
    ``stderr`` by default so the engine's chatter never pollutes
    parseable stdout tables.
    """

    def __init__(self, stream: Optional[TextIO] = None) -> None:
        self.stream = stream if stream is not None else sys.stderr

    QUIET_KINDS = ("shard-started", "checkpoint-written")

    def __call__(self, event: ProgressEvent) -> None:
        if event.kind in self.QUIET_KINDS:
            return
        print(event_line(event, "engine", rate=True), file=self.stream)
        self.stream.flush()
