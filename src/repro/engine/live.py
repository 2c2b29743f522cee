"""Live follow-mode observability for engine traces (``--follow``).

The paper's platform streams blktrace/btt events off the device *while*
the campaign runs, so the Analyzer can watch failures as they happen; at
paper scale (thousands of fault cycles across six device models and
remote workers) a sweep runs for hours and the only live signal used to
be ``ConsoleProgress`` scroll.  This module tails the JSONL shard traces
the engine already writes (:mod:`repro.engine.trace`) and renders a live
straggler view:

- :class:`TraceSource` pairs one :class:`~repro.engine.trace.TraceCursor`
  (incremental tailing, torn-tail retention, truncation/rotation reset)
  with one :class:`~repro.engine.trace.TraceReportBuilder` (O(new
  records) per poll); each record is the
  :class:`~repro.engine.progress.ProgressEvent` its line encodes, the
  same value the running engine handed its hooks;
- :class:`FollowSession` follows one trace file — or multiplexes every
  trace in a directory, so a whole ``REPRO_BENCH_TRACE`` bench sweep can
  be watched from one terminal, discovering new campaigns as they start;
- :class:`LiveRenderer` repaints an ANSI dashboard when the output is a
  TTY (running shards with their in-flight age flagged against the
  completed-shard p95, slowest-N, per-worker counts, throughput/ETA) and
  prints plain periodic snapshot lines otherwise;
- :func:`follow_trace` is the CLI loop behind ``repro trace report
  --follow [--interval S]``: renders every interval, idle-polls on the
  engine's capped-exponential :class:`~repro.engine.executors.BackoffPoller`,
  exits cleanly on the final ``plan-finished`` record or Ctrl-C, and then
  prints a final aggregate report byte-identical to the post-hoc
  ``repro trace report`` of the same file.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path
from typing import Callable, List, Optional, Set, TextIO

from repro.engine.executors import BackoffPoller
from repro.engine.progress import format_eta
from repro.engine.trace import (
    PathLike,
    TraceCursor,
    TraceReportBuilder,
)
from repro.errors import EngineTraceError

FOLLOW_GLOB = "*.jsonl"
"""Directory mode follows every JSONL file (bench traces are
``<label-slug>.trace.jsonl``; keep a checkpoint directory separate)."""

DEFAULT_INTERVAL_S = 2.0
"""Default snapshot cadence of ``--follow`` (seconds)."""


class TraceSource:
    """One followed trace file: a live cursor feeding an incremental builder."""

    def __init__(self, path: PathLike, name: Optional[str] = None) -> None:
        self.path = Path(path)
        self.name = name if name is not None else self.path.name
        self.cursor = TraceCursor(self.path, live=True)
        self.builder = TraceReportBuilder()
        self.finished = False
        self.restarts = 0

    def poll(self) -> int:
        """Consume newly-appended records; returns how many arrived.

        A truncation/rotation detected by the cursor means the writer
        restarted the file: the old run's story would poison the view, so
        the builder starts over and the re-read records land in a fresh
        one.
        """
        truncations = self.cursor.truncations
        records = self.cursor.poll()
        if self.cursor.truncations != truncations:
            self.builder = TraceReportBuilder()
            self.finished = False
            self.restarts += 1
        for record in records:
            self.builder.add(record)
            if (
                record.kind == "plan-finished"
                and record.shards_done >= record.shards_total
            ):
                self.finished = True
        return len(records)


class FollowSession:
    """Follow state over one trace file or a directory of them.

    A file path waits for the file to appear (a follower may attach
    before the campaign starts) and ends at the run's final
    ``plan-finished`` record.  A directory path is an open-ended sweep:
    new trace files are discovered on every poll and the session never
    self-finishes — more campaigns may start at any time, so only the
    user (Ctrl-C) ends a directory follow.
    """

    def __init__(self, path: PathLike, top: int = 5) -> None:
        self.path = Path(path)
        self.top = top
        self.sources: List[TraceSource] = []
        self._known: Set[str] = set()
        self.directory_mode = self.path.is_dir()

    def _discover(self) -> None:
        if self.path.is_dir():
            self.directory_mode = True
            for file in sorted(self.path.glob(FOLLOW_GLOB)):
                if file.name not in self._known:
                    self._known.add(file.name)
                    self.sources.append(TraceSource(file))
        elif not self.directory_mode and not self.sources and self.path.exists():
            self.sources.append(TraceSource(self.path))

    def poll(self) -> int:
        """Discover new sources, drain all cursors; returns new-record count."""
        self._discover()
        return sum(source.poll() for source in self.sources)

    @property
    def events(self) -> int:
        return sum(source.builder.events for source in self.sources)

    @property
    def finished(self) -> bool:
        """True once a single-file follow saw the run's last ``plan-finished``."""
        if self.directory_mode:
            return False
        return bool(self.sources) and all(s.finished for s in self.sources)


def snapshot_lines(session: FollowSession) -> List[str]:
    """Plain one-line-per-source snapshots (the non-TTY rendering)."""
    if not session.sources:
        return [f"[follow] waiting for {session.path} ..."]
    lines = []
    for source in session.sources:
        builder = source.builder
        last = builder.last_record
        if last is None:
            lines.append(f"[follow] {source.name}: no records yet")
            continue
        line = (
            f"[follow] {source.name}: "
            f"shards {last.shards_done}/{last.shards_total} | "
            f"cycles {last.cycles_done}/{last.cycles_total} | "
            f"{last.cycles_per_sec:.2f} cycles/s | "
            f"ETA {format_eta(last.eta_s)} | "
            f"running {len(builder.running_shards())} | "
            f"retries {len(builder.retry_timeline)} | "
            f"quarantined {len(builder.quarantine_timeline)}"
        )
        if source.restarts:
            line += f" | restarts {source.restarts}"
        if source.finished:
            line += " | finished"
        lines.append(line)
    return lines


def dashboard_lines(session: FollowSession) -> List[str]:
    """The full-screen dashboard body (the TTY rendering)."""
    lines = [f"following {session.path} — Ctrl-C to stop"]
    if not session.sources:
        lines.append("  waiting for trace file(s) to appear ...")
        return lines
    for source in session.sources:
        builder = source.builder
        if builder.last_record is None:
            lines.append(f"{source.name}: no records yet")
            continue
        report = builder.report(slowest=session.top)
        running = sorted(
            builder.running_shards(),
            key=lambda p: builder.shard_age_s(p) or 0.0,
            reverse=True,
        )
        status = "finished" if source.finished else f"{len(running)} running"
        lines.append(f"{source.name}: {status}")
        p95 = report.duration_p95_s
        for profile in running[: max(1, session.top)]:
            age = builder.shard_age_s(profile)
            age_text = f"{age:8.2f}s" if age is not None else "       ?"
            flag = ""
            if p95 is not None and age is not None and age > p95:
                flag = f"  !straggler (p95 {p95:.2f}s)"
            worker = f"  worker={profile.worker}" if profile.worker else ""
            lines.append(
                f"  in flight {profile.name:<40} {age_text}{worker}{flag}"
            )
        lines.extend(report.render().splitlines())
    return lines


class LiveRenderer:
    """Renders follow snapshots: ANSI repaint on a TTY, plain lines otherwise.

    The dashboard repaints in place (home + clear-to-end per line, so a
    shrinking frame leaves no stale rows); non-TTY output appends one
    snapshot line per source per render, which is what a log file or CI
    capture wants.
    """

    def __init__(
        self, stream: Optional[TextIO] = None, tty: Optional[bool] = None
    ) -> None:
        self.stream = stream if stream is not None else sys.stderr
        if tty is None:
            isatty = getattr(self.stream, "isatty", None)
            tty = bool(isatty()) if callable(isatty) else False
        self.tty = tty
        self.snapshots = 0

    def render(self, session: FollowSession) -> None:
        if self.tty:
            prefix = "\x1b[2J\x1b[H" if self.snapshots == 0 else "\x1b[H"
            body = "".join(
                line + "\x1b[K\n" for line in dashboard_lines(session)
            )
            self.stream.write(prefix + body + "\x1b[J")
        else:
            for line in snapshot_lines(session):
                self.stream.write(line + "\n")
        self.snapshots += 1
        self.stream.flush()

    def close(self) -> None:
        """Leave the terminal on a fresh line after a repaint dashboard."""
        if self.tty and self.snapshots:
            self.stream.write("\n")
            self.stream.flush()


def follow_trace(
    path: PathLike,
    interval_s: float = DEFAULT_INTERVAL_S,
    top: int = 5,
    stream: Optional[TextIO] = None,
    out: Optional[TextIO] = None,
    clock: Callable[[], float] = time.monotonic,
    sleep: Callable[[float], None] = time.sleep,
    renderer: Optional[LiveRenderer] = None,
) -> int:
    """Tail a growing trace (or directory of traces) until the run ends.

    Renders a snapshot to ``stream`` every ``interval_s`` seconds; file
    polls between renders follow a capped-exponential idle schedule
    (:class:`~repro.engine.executors.BackoffPoller`), resetting whenever
    new records arrive.  Returns 0 after the final ``plan-finished``
    record (single-file mode) or Ctrl-C, having printed the final
    aggregate report(s) to ``out`` — byte-identical to ``repro trace
    report`` run post-hoc on the same file; returns 1 on a corrupt trace.
    ``clock``/``sleep``/``renderer`` are injectable for tests.
    """
    stream = stream if stream is not None else sys.stderr
    out = out if out is not None else sys.stdout
    interval_s = max(0.0, interval_s)
    session = FollowSession(path, top=top)
    view = renderer if renderer is not None else LiveRenderer(stream=stream)
    poller = BackoffPoller(base_s=0.02, cap_s=max(0.25, interval_s))
    next_render = clock()
    try:
        while True:
            if session.poll():
                poller.reset()
            if session.finished:
                view.render(session)
                break
            if clock() >= next_render:
                view.render(session)
                next_render = clock() + interval_s
            sleep(poller.next_delay())
    except KeyboardInterrupt:
        try:
            session.poll()  # drain whatever is already on disk
        except EngineTraceError:
            pass
    except EngineTraceError as exc:
        view.close()
        print(f"[trace] {exc}", file=stream)
        return 1
    view.close()
    reported = [s for s in session.sources if s.builder.events]
    for index, source in enumerate(reported):
        if session.directory_mode or len(reported) > 1:
            if index:
                print(file=out)
            print(f"== {source.name} ==", file=out)
        print(source.builder.report(slowest=top).render(), file=out)
    return 0
