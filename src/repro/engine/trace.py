"""Structured JSONL shard-event traces and straggler analysis.

The engine's telemetry hooks (:mod:`repro.engine.progress`) stream one
:class:`~repro.engine.progress.ProgressEvent` per shard state change —
and, until now, threw the stream away once the console line scrolled by.
This module persists it, the same way the paper's platform persists raw
blktrace/btt event streams so the Analyzer can classify failures *after*
the fact, never depending on in-memory state:

A trace line is one :class:`~repro.engine.progress.ProgressEvent`, the
same value the engine's hooks receive: :data:`TRACE_FIELDS` lists each
JSON key with the event attribute it holds, the coercion a reader
applies and whether every line must carry it.  The writer encodes an
event through that table and every reader decodes a line through it, so
``read_trace(path)`` equals the list of events a hook collected.

- :class:`TraceWriter` is a plain :data:`~repro.engine.progress.ProgressHook`
  that appends one JSONL line per event (kind, plan label, shard index,
  wall + monotonic capture timestamps, cycle counters, attempt, worker
  pid when known, checkpoint commit lag, retry reason).  Appends are
  **batched between fsyncs** (``flush_every`` records) so tracing a
  thousand-shard sweep doesn't serialise on the disk; failure-relevant
  kinds (retry, quarantine, plan-finished) force an immediate fsync so
  forensic records survive a crash.
- :class:`TraceCursor` incrementally tails a trace — it remembers its
  byte offset, *retains* a partial final line until the writer completes
  it, and detects truncation/rotation — so a live follower and the
  post-hoc replay share one parsing path.  :func:`read_trace` is a single
  cursor poll, parameterized by whether the writer is presumed alive.
- :class:`TraceReportBuilder` folds events into report state in O(1)
  per event; :func:`build_trace_report` / :class:`TraceReport`
  reconstruct per-shard execution from the event stream and compute the
  straggler story: p50/p95/max shard duration, the slowest-N shards,
  retry and quarantine timelines, and checkpoint-commit lag.

The CLI surfaces this as ``repro trace report <path>`` (post-hoc, or
live with ``--follow`` — see :mod:`repro.engine.live`) and a ``--trace
PATH`` flag on ``campaign``/``fleet``; benches honour
``REPRO_BENCH_TRACE`` (see :mod:`benchmarks._common`).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    IO,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.engine.progress import PLAN_EVENT_INDEX, ProgressEvent
from repro.errors import EngineTraceError

PathLike = Union[str, Path]

TRACE_VERSION = 1

EVENT_KINDS = frozenset(
    {
        "shard-started",
        "shard-finished",
        "shard-retried",
        "shard-skipped",
        "shard-quarantined",
        "checkpoint-written",
        "plan-finished",
    }
)


# -- the field table ----------------------------------------------------------------


def _coerce_float(name: str, value, optional: bool = False) -> Optional[float]:
    """A JSON number as float; ``None`` passes only for optional fields.

    Strings, booleans, and other JSON types are rejected: a foreign or
    hand-edited trace must not flow ``str`` into report math.
    """
    if value is None:
        if optional:
            return None
        raise EngineTraceError(f"trace field {name!r} must not be null")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise EngineTraceError(
            f"trace field {name!r} must be a number, got {type(value).__name__}"
        )
    return float(value)


def _coerce_int(name: str, value, optional: bool = False) -> Optional[int]:
    """A JSON integer (integral floats tolerated) as int."""
    number = _coerce_float(name, value, optional=optional)
    if number is None:
        return None
    if number != int(number):
        raise EngineTraceError(
            f"trace field {name!r} must be an integer, got {value!r}"
        )
    return int(number)


def _coerce_label(name: str, value, optional: bool) -> str:
    """``kind`` and ``plan``: JSON strings."""
    if not isinstance(value, str):
        raise EngineTraceError("trace record kind/plan must be strings")
    return value


def _coerce_worker(name: str, value, optional: bool) -> Union[int, str, None]:
    """A bare pid or a ``host:pid`` string, when the emitter knew it."""
    if value is not None and not isinstance(value, (int, str)):
        raise EngineTraceError(
            f"trace field {name!r} must be an int or string, "
            f"got {type(value).__name__}"
        )
    return value


def _coerce_detail(name: str, value, optional: bool) -> str:
    """Free text; an absent or empty value reads as ``""``."""
    value = value or ""
    if not isinstance(value, str):
        raise EngineTraceError(f"trace field {name!r} must be a string")
    return value


class TraceField(NamedTuple):
    """One JSON key of a trace line.

    ``attr`` names the :class:`~repro.engine.progress.ProgressEvent`
    attribute the key holds (empty for ``v``, which the writer fills with
    :data:`TRACE_VERSION`); ``coerce(key, value, optional)`` checks and
    converts a decoded value; a ``required`` key must be on every line,
    and an optional one may be absent or null.
    """

    key: str
    attr: str
    coerce: Optional[Callable[[str, Any, bool], Any]]
    required: bool


TRACE_FIELDS: Tuple[TraceField, ...] = (
    TraceField("v", "", None, True),
    TraceField("kind", "kind", _coerce_label, True),
    TraceField("plan", "plan_label", _coerce_label, True),
    TraceField("shard", "shard_index", _coerce_int, True),
    TraceField("shard_count", "shard_count", _coerce_int, True),
    TraceField("wall_time_s", "wall_time_s", _coerce_float, True),
    TraceField("mono_time_s", "mono_time_s", _coerce_float, True),
    TraceField("shards_done", "shards_done", _coerce_int, True),
    TraceField("shards_total", "shards_total", _coerce_int, True),
    TraceField("cycles_done", "cycles_done", _coerce_int, True),
    TraceField("cycles_total", "cycles_total", _coerce_int, True),
    TraceField("cycles_skipped", "cycles_skipped", _coerce_int, True),
    TraceField("elapsed_s", "elapsed_s", _coerce_float, True),
    TraceField("cycles_per_sec", "cycles_per_sec", _coerce_float, True),
    TraceField("eta_s", "eta_s", _coerce_float, False),
    TraceField("attempt", "attempt", _coerce_int, False),
    TraceField("worker_pid", "worker_pid", _coerce_worker, False),
    TraceField("commit_lag_s", "commit_lag_s", _coerce_float, False),
    TraceField("detail", "detail", _coerce_detail, False),
)
"""Every key of a trace line, in the order the writer emits them."""

REQUIRED_FIELDS = tuple(row.key for row in TRACE_FIELDS if row.required)
"""Fields every trace record must carry (schema sanity checks key off this)."""

_READ_ORDER = sorted(
    (row for row in TRACE_FIELDS if row.attr),
    key=lambda row: row.coerce in (_coerce_float, _coerce_int),
)
"""The rows a reader coerces: text fields, then numbers, each in key order.
A line with several bad fields reports the first of them in this order."""

_FSYNC_NOW_KINDS = frozenset(
    {"shard-retried", "shard-quarantined", "plan-finished"}
)
"""Kinds whose records are failure forensics — always fsync'd immediately."""


class TraceWriter:
    """Progress hook persisting every engine event as one JSONL record.

    Opens lazily on the first event (a traced run that dies before any
    event leaves no empty litter).  Records are buffered and fsync'd every
    ``flush_every`` appends — plus immediately for retry/quarantine/
    plan-finished records — so the trace of a crashed run is complete up
    to at most ``flush_every - 1`` routine events.
    """

    def __init__(self, path: PathLike, flush_every: int = 16) -> None:
        self.path = Path(path)
        self.flush_every = max(1, flush_every)
        self._handle: Optional[IO[str]] = None
        self._unsynced = 0

    # -- hook entry ---------------------------------------------------------------

    def __call__(self, event: ProgressEvent) -> None:
        self.write_event(event)

    def write_event(self, event: ProgressEvent) -> Dict:
        """Append one event, fsync per the batching policy; return the record."""
        record = {
            row.key: getattr(event, row.attr) if row.attr else TRACE_VERSION
            for row in TRACE_FIELDS
        }
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = self.path.open("a", encoding="utf-8")
        self._handle.write(json.dumps(record, separators=(",", ":")) + "\n")
        self._unsynced += 1
        if self._unsynced >= self.flush_every or event.kind in _FSYNC_NOW_KINDS:
            self.flush()
        return record

    # -- durability ---------------------------------------------------------------

    def flush(self) -> None:
        """Flush and fsync everything appended so far."""
        if self._handle is not None and self._unsynced:
            self._handle.flush()
            os.fsync(self._handle.fileno())
            self._unsynced = 0

    def close(self) -> None:
        """Fsync the tail and release the file handle."""
        if self._handle is not None:
            self.flush()
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# -- reading ------------------------------------------------------------------------


def record_from_dict(payload: Dict) -> ProgressEvent:
    """Decode one trace line's JSON object into its :class:`ProgressEvent`.

    Every :data:`REQUIRED_FIELDS` key must be present, and each value goes
    through its :data:`TRACE_FIELDS` coercion: numeric fields are
    type-checked and coerced (ints where counts are expected, floats for
    timings — including the optional ``eta_s`` / ``commit_lag_s`` /
    ``attempt``); wrong-typed values raise
    :class:`~repro.errors.EngineTraceError` instead of flowing raw JSON
    into report math.
    """
    missing = [key for key in REQUIRED_FIELDS if key not in payload]
    if missing:
        raise EngineTraceError(f"trace record missing fields {missing}")
    return ProgressEvent(
        **{
            row.attr: row.coerce(row.key, payload.get(row.key), not row.required)
            for row in _READ_ORDER
        }
    )


class TraceCursor:
    """Incremental, restart-aware reader of one (possibly growing) trace.

    A cursor owns no file handle — each :meth:`poll` opens the file,
    reads everything past the remembered byte offset, and parses the
    newline-terminated lines it finds.  Bytes after the last newline are
    a *partial* final line: while the writer is alive they are an append
    in flight, so the cursor **retains** them across polls and parses the
    line once the writer completes it (dropping them, as the old
    post-hoc reader did, would lose a record forever).  A truncated or
    rotated file (the size shrank below the offset, or the inode
    changed — a restarted run reusing the path) resets the cursor to the
    beginning and bumps :attr:`truncations` so a follower can reset its
    view instead of mixing two runs' stories.

    ``live`` selects the torn-tail policy: ``True`` (writer presumed
    alive) treats any *complete* unparsable line as corruption — the
    writer appends whole lines, so garbage before a newline cannot be an
    append in flight; ``False`` (post-hoc, writer known dead) drops an
    unparsable final line as the classic crash-mid-append torn tail.
    """

    def __init__(self, path: PathLike, live: bool = True) -> None:
        self.path = Path(path)
        self.live = live
        self.consumed_bytes = 0
        self.line_number = 0
        self.truncations = 0
        self._tail = b""
        self._inode: Optional[int] = None

    @property
    def pending_tail(self) -> bool:
        """True when a partial final line is buffered awaiting completion."""
        return bool(self._tail)

    def _reset(self) -> None:
        self.consumed_bytes = 0
        self.line_number = 0
        self._tail = b""
        self.truncations += 1

    def _dead_tail(self, pieces: List[bytes], position: int) -> bool:
        """Is the failing line the effective end of a dead writer's file?"""
        if self._tail.strip():
            return False
        return all(not piece.strip() for piece in pieces[position + 1 :])

    def poll(self) -> List[ProgressEvent]:
        """Consume newly-appended records (empty list when nothing new)."""
        try:
            stat = self.path.stat()
        except FileNotFoundError:
            if self.consumed_bytes or self._tail:
                # The file vanished under us (rotation); start over when
                # (if) it reappears.
                self._reset()
                self._inode = None
            return []
        if self._inode is not None and stat.st_ino != self._inode:
            self._reset()
        elif stat.st_size < self.consumed_bytes:
            self._reset()
        self._inode = stat.st_ino
        if stat.st_size <= self.consumed_bytes:
            return []
        with self.path.open("rb") as handle:
            handle.seek(self.consumed_bytes)
            chunk = handle.read()
        if not chunk:
            return []
        self.consumed_bytes += len(chunk)
        pieces = (self._tail + chunk).split(b"\n")
        self._tail = pieces.pop()  # bytes after the last newline, if any
        records: List[ProgressEvent] = []
        for position, raw in enumerate(pieces):
            self.line_number += 1
            try:
                text = raw.decode("utf-8")
                if not text.strip():
                    continue
                payload = json.loads(text)
                if not isinstance(payload, dict):
                    raise EngineTraceError("trace line is not an object")
                records.append(record_from_dict(payload))
            except (ValueError, EngineTraceError) as exc:
                if not self.live and self._dead_tail(pieces, position):
                    break  # torn tail: the writer died mid-append
                raise EngineTraceError(
                    f"corrupt trace record at line {self.line_number} "
                    f"of {self.path}"
                ) from exc
        return records


def read_trace(path: PathLike, live: bool = False) -> List[ProgressEvent]:
    """Replay a trace file, tolerating a torn tail (one cursor poll).

    With ``live=False`` (the default — writer known dead) a final line
    that fails to parse or validate is discarded as a crash mid-append;
    with ``live=True`` an incomplete final line is silently withheld (it
    may still be completed) and a complete garbage line raises.  Damage
    anywhere earlier always raises
    :class:`~repro.errors.EngineTraceError`.  Post-hoc analysis and
    follow mode (:mod:`repro.engine.live`) share this single parsing
    path, so their torn-tail policies can never drift.
    """
    trace_path = Path(path)
    if not trace_path.exists():
        raise EngineTraceError(f"trace file not found: {trace_path}")
    return TraceCursor(trace_path, live=live).poll()


# -- analysis -----------------------------------------------------------------------


@dataclass
class ShardProfile:
    """Execution story of one shard, reconstructed from its events."""

    plan_label: str
    shard_index: int
    status: str = "running"  # completed | quarantined | skipped | running
    attempts: int = 0
    duration_s: Optional[float] = None
    commit_lag_s: Optional[float] = None
    retry_reasons: List[str] = field(default_factory=list)
    worker: Optional[str] = None  # "host:pid" (distributed) or a bare pid
    _last_started_mono: Optional[float] = None

    @property
    def name(self) -> str:
        return f"{self.plan_label}#s{self.shard_index}"


@dataclass(frozen=True)
class TimelineEntry:
    """One retry or quarantine occurrence, in run-relative time."""

    elapsed_s: float
    plan_label: str
    shard_index: int
    attempt: Optional[int]
    reason: str


@dataclass
class TraceReport:
    """Straggler/retry analysis of one campaign trace."""

    events: int
    plans: List[str]
    shards: List[ShardProfile]
    skipped: int
    span_s: float
    cycles_executed: int
    cycles_skipped: int
    effective_cycles_per_sec: float
    duration_p50_s: Optional[float]
    duration_p95_s: Optional[float]
    duration_max_s: Optional[float]
    slowest: List[ShardProfile]
    retry_timeline: List[TimelineEntry]
    quarantine_timeline: List[TimelineEntry]
    commit_lag_p50_s: Optional[float]
    commit_lag_max_s: Optional[float]
    workers: Dict[str, int] = field(default_factory=dict)
    """Shards finished per worker identity, when the trace attributes them
    (serial runs record the engine pid; distributed runs ``host:pid``)."""

    def render(self) -> str:
        """Human-readable multi-line report (what the CLI prints)."""
        lines = [
            f"trace report: {len(self.plans)} plan(s), {len(self.shards)} shard(s), "
            f"{self.events} events over {self.span_s:.2f}s",
            f"  cycles: {self.cycles_executed} executed"
            + (
                f" + {self.cycles_skipped} resumed from checkpoint"
                if self.cycles_skipped
                else ""
            )
            + f"  ({self.effective_cycles_per_sec:.2f} executed cycles/s)",
        ]
        if self.duration_p50_s is not None:
            lines.append(
                "  shard duration: "
                f"p50 {self.duration_p50_s:.2f}s  "
                f"p95 {self.duration_p95_s:.2f}s  "
                f"max {self.duration_max_s:.2f}s"
            )
        if self.slowest:
            lines.append(f"  slowest {len(self.slowest)} shard(s):")
            for profile in self.slowest:
                line = (
                    f"    {profile.name:<40} {profile.duration_s:8.2f}s  "
                    f"attempts={profile.attempts}"
                )
                if profile.worker is not None:
                    line += f"  worker={profile.worker}"
                lines.append(line)
        if self.workers:
            counts = ", ".join(
                f"{worker}: {count}"
                for worker, count in sorted(
                    self.workers.items(), key=lambda item: (-item[1], item[0])
                )
            )
            lines.append(f"  shards per worker: {counts}")
        if self.skipped:
            lines.append(f"  resumed (skipped) shards: {self.skipped}")
        lines.append(f"  retries: {len(self.retry_timeline)}")
        for entry in self.retry_timeline:
            lines.append(
                f"    +{entry.elapsed_s:.2f}s {entry.plan_label}#s{entry.shard_index} "
                f"attempt {entry.attempt if entry.attempt is not None else '?'}: "
                f"{entry.reason}"
            )
        lines.append(f"  quarantined: {len(self.quarantine_timeline)}")
        for entry in self.quarantine_timeline:
            lines.append(
                f"    +{entry.elapsed_s:.2f}s {entry.plan_label}#s{entry.shard_index} "
                f"after {entry.attempt if entry.attempt is not None else '?'} "
                f"attempts: {entry.reason}"
            )
        if self.commit_lag_p50_s is not None:
            lines.append(
                "  checkpoint commit lag: "
                f"p50 {self.commit_lag_p50_s * 1000.0:.1f}ms  "
                f"max {self.commit_lag_max_s * 1000.0:.1f}ms"
            )
        return "\n".join(lines)


def _percentile(sorted_values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending sequence (non-empty)."""
    rank = min(
        len(sorted_values) - 1, max(0, round(fraction * (len(sorted_values) - 1)))
    )
    return sorted_values[int(rank)]


class TraceReportBuilder:
    """Incrementally folds trace records into :class:`TraceReport` state.

    :meth:`add` is O(1) per record, so a follower updates its view in
    O(new records) per poll; :meth:`report` ranks durations on demand
    (O(shards log shards), paid per *render*, never per record).
    :func:`build_trace_report` is a thin wrapper — one ``add_all`` plus
    one ``report()`` — so follow-mode aggregation and the post-hoc report
    are the same computation and can never drift.
    """

    def __init__(self) -> None:
        self.profiles: Dict[Tuple[str, int], ShardProfile] = {}
        self.plans: List[str] = []
        self.retry_timeline: List[TimelineEntry] = []
        self.quarantine_timeline: List[TimelineEntry] = []
        self.workers: Dict[str, int] = {}
        self.events = 0
        self.base_mono: Optional[float] = None
        self.last_record: Optional[ProgressEvent] = None

    def _profile(self, record: ProgressEvent) -> ShardProfile:
        key = (record.plan_label, record.shard_index)
        if key not in self.profiles:
            self.profiles[key] = ShardProfile(
                plan_label=record.plan_label, shard_index=record.shard_index
            )
        return self.profiles[key]

    def add(self, record: ProgressEvent) -> None:
        """Fold one record into the running per-shard state."""
        self.events += 1
        if self.base_mono is None:
            self.base_mono = record.mono_time_s
        self.last_record = record
        if record.plan_label not in self.plans:
            self.plans.append(record.plan_label)
        if record.shard_index == PLAN_EVENT_INDEX:
            return  # plan-level event, not a shard
        if record.kind == "shard-started":
            entry = self._profile(record)
            if entry.status != "running":
                # A start after completion means the trace file mixes runs
                # (a restarted campaign appended to the same path); the new
                # run's story supersedes the old one's.
                entry.status = "running"
                entry.attempts = 0
                entry.duration_s = None
                entry.commit_lag_s = None
            entry.attempts += 1
            entry._last_started_mono = record.mono_time_s
            if record.worker_pid is not None:
                entry.worker = str(record.worker_pid)
        elif record.kind == "shard-finished":
            entry = self._profile(record)
            entry.status = "completed"
            if record.attempt is not None:
                entry.attempts = max(entry.attempts, record.attempt)
            if entry._last_started_mono is not None:
                duration = record.mono_time_s - entry._last_started_mono
                # A negative gap means the start came from a different boot
                # (monotonic clocks don't compare across runs): no duration.
                entry.duration_s = duration if duration >= 0.0 else None
            if record.worker_pid is not None:
                entry.worker = str(record.worker_pid)
            if entry.worker is not None:
                self.workers[entry.worker] = self.workers.get(entry.worker, 0) + 1
        elif record.kind == "shard-retried":
            entry = self._profile(record)
            entry.retry_reasons.append(record.detail)
            self.retry_timeline.append(
                TimelineEntry(
                    elapsed_s=max(0.0, record.mono_time_s - self.base_mono),
                    plan_label=record.plan_label,
                    shard_index=record.shard_index,
                    attempt=record.attempt,
                    reason=record.detail,
                )
            )
        elif record.kind == "shard-skipped":
            entry = self._profile(record)
            entry.status = "skipped"
        elif record.kind == "shard-quarantined":
            entry = self._profile(record)
            entry.status = "quarantined"
            if record.attempt is not None:
                entry.attempts = max(entry.attempts, record.attempt)
            self.quarantine_timeline.append(
                TimelineEntry(
                    elapsed_s=max(0.0, record.mono_time_s - self.base_mono),
                    plan_label=record.plan_label,
                    shard_index=record.shard_index,
                    attempt=record.attempt,
                    reason=record.detail,
                )
            )
        elif record.kind == "checkpoint-written":
            if record.commit_lag_s is not None:
                self._profile(record).commit_lag_s = record.commit_lag_s

    def add_all(self, records: Sequence[ProgressEvent]) -> None:
        for record in records:
            self.add(record)

    # -- live-view accessors --------------------------------------------------------

    def running_shards(self) -> List[ShardProfile]:
        """Shards started but not yet finished/skipped/quarantined."""
        return [p for p in self.profiles.values() if p.status == "running"]

    def shard_age_s(self, profile: ShardProfile) -> Optional[float]:
        """How long a running shard has been in flight, in *trace* time.

        Measured against the newest record's monotonic timestamp — not
        the follower's own clock, which may live on another machine (or
        another boot) than the writer's.
        """
        if profile._last_started_mono is None or self.last_record is None:
            return None
        return max(0.0, self.last_record.mono_time_s - profile._last_started_mono)

    # -- report ---------------------------------------------------------------------

    def report(self, slowest: int = 5) -> TraceReport:
        """The straggler report over everything folded in so far."""
        if not self.events:
            raise EngineTraceError("trace contains no records")
        shards = list(self.profiles.values())
        durations = sorted(
            p.duration_s for p in shards if p.duration_s is not None
        )
        lags = sorted(
            p.commit_lag_s for p in shards if p.commit_lag_s is not None
        )
        ranked = sorted(
            (p for p in shards if p.duration_s is not None),
            key=lambda p: p.duration_s,
            reverse=True,
        )
        last = self.last_record
        # Clamped: a restarted run appended to the same file makes raw mono
        # deltas meaningless (and possibly negative).
        span = max(0.0, last.mono_time_s - self.base_mono)
        return TraceReport(
            events=self.events,
            plans=list(self.plans),
            shards=shards,
            skipped=sum(1 for p in shards if p.status == "skipped"),
            span_s=span,
            cycles_executed=last.cycles_done - last.cycles_skipped,
            cycles_skipped=last.cycles_skipped,
            effective_cycles_per_sec=last.cycles_per_sec,
            duration_p50_s=_percentile(durations, 0.50) if durations else None,
            duration_p95_s=_percentile(durations, 0.95) if durations else None,
            duration_max_s=durations[-1] if durations else None,
            slowest=ranked[: max(0, slowest)],
            retry_timeline=list(self.retry_timeline),
            quarantine_timeline=list(self.quarantine_timeline),
            commit_lag_p50_s=_percentile(lags, 0.50) if lags else None,
            commit_lag_max_s=lags[-1] if lags else None,
            workers=dict(self.workers),
        )


def build_trace_report(
    records: Sequence[ProgressEvent], slowest: int = 5
) -> TraceReport:
    """Reconstruct per-shard execution and the straggler story from a trace."""
    if not records:
        raise EngineTraceError("trace contains no records")
    builder = TraceReportBuilder()
    builder.add_all(records)
    return builder.report(slowest=slowest)

