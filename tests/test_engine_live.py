"""Tests for follow-mode observability (TraceCursor / builder / live view).

Covers the incremental cursor contract (exactly-once delivery across
incremental appends, torn-tail retention while the writer lives,
truncation/rotation reset), the strict numeric coercion of
``record_from_dict``, the incremental-equals-batch report invariant, and
the ``follow_trace`` loop under fake clocks — including the headline
guarantee that a follower's final report is byte-identical to the
post-hoc ``repro trace report`` of the same file.
"""

import io
import json
import os

import pytest

from repro.engine import (
    build_trace_report,
    EngineTelemetry,
    read_trace,
    TraceCursor,
    TraceReportBuilder,
    TraceWriter,
)
from repro.engine.live import (
    follow_trace,
    FollowSession,
    LiveRenderer,
    TraceSource,
)
from repro.engine.trace import record_from_dict
from repro.errors import EngineTraceError


def write_synthetic_trace(path, shards=3, plan="live-test", start_mono=0.0):
    """A complete small run (started/finished per shard + plan-finished)."""
    now = {"mono": start_mono}
    writer = TraceWriter(path, flush_every=1)
    telemetry = EngineTelemetry(
        shards_total=shards,
        cycles_total=shards,
        hook=writer.write_event,
        clock=lambda: now["mono"],
    )
    for shard in range(shards):
        telemetry.shard_started(plan, shard, shards, worker_pid=100 + shard)
        now["mono"] += 1.0 + shard
        telemetry.shard_finished(plan, shard, shards, 1, worker_pid=100 + shard)
    telemetry.plan_finished(plan, shards)
    writer.close()


def raw_lines(path):
    return path.read_text(encoding="utf-8").splitlines()


class TestTraceCursor:
    def test_missing_file_polls_empty(self, tmp_path):
        cursor = TraceCursor(tmp_path / "nope.jsonl")
        assert cursor.poll() == []
        assert cursor.poll() == []

    def test_exactly_once_across_incremental_appends(self, tmp_path):
        path = tmp_path / "grow.jsonl"
        write_synthetic_trace(path)
        lines = raw_lines(path)
        target = tmp_path / "tail.jsonl"
        cursor = TraceCursor(target)
        seen = []
        with target.open("a", encoding="utf-8") as handle:
            for line in lines:
                handle.write(line + "\n")
                handle.flush()
                seen.extend(cursor.poll())
        assert cursor.poll() == []  # nothing new, nothing re-delivered
        batch = read_trace(path)
        assert [r.kind for r in seen] == [r.kind for r in batch]
        assert [r.mono_time_s for r in seen] == [r.mono_time_s for r in batch]

    def test_partial_tail_retained_until_completed(self, tmp_path):
        path = tmp_path / "torn.jsonl"
        write_synthetic_trace(path)
        first, second = raw_lines(path)[:2]
        cursor = TraceCursor(path.with_name("live.jsonl"))
        live = path.with_name("live.jsonl")
        with live.open("a", encoding="utf-8") as handle:
            handle.write(first + "\n" + second[:17])  # writer mid-append
            handle.flush()
            assert len(cursor.poll()) == 1
            assert cursor.pending_tail  # the torn half is held, not dropped
            handle.write(second[17:] + "\n")
            handle.flush()
            records = cursor.poll()
        assert len(records) == 1
        assert not cursor.pending_tail
        assert records[0].mono_time_s == read_trace(path)[1].mono_time_s

    def test_batched_writer_is_visible_incrementally(self, tmp_path):
        # flush_every batches fsync, not the OS write: a cursor polling a
        # live writer with a large batch still sees every record.
        path = tmp_path / "batched.jsonl"
        now = {"mono": 0.0}
        writer = TraceWriter(path, flush_every=64)
        telemetry = EngineTelemetry(
            shards_total=4, cycles_total=4, hook=writer.write_event,
            clock=lambda: now["mono"],
        )
        cursor = TraceCursor(path)
        seen = 0
        for shard in range(4):
            telemetry.shard_started("p", shard, 4)
            now["mono"] += 0.5
            telemetry.shard_finished("p", shard, 4, 1)
            seen += len(cursor.poll())
        writer.close()
        seen += len(cursor.poll())
        assert seen == 8

    def test_truncation_resets_and_rereads(self, tmp_path):
        path = tmp_path / "restart.jsonl"
        write_synthetic_trace(path, shards=3)
        cursor = TraceCursor(path)
        first = cursor.poll()
        assert len(first) == 7 and cursor.truncations == 0
        # The campaign restarts: same path, fresh (shorter) trace.
        path.unlink()
        write_synthetic_trace(path, shards=1)
        reread = cursor.poll()
        assert cursor.truncations == 1
        assert len(reread) == 3
        assert cursor.poll() == []

    def test_rotation_by_replace_detected(self, tmp_path):
        path = tmp_path / "rotate.jsonl"
        write_synthetic_trace(path, shards=2)
        cursor = TraceCursor(path)
        assert len(cursor.poll()) == 5
        replacement = tmp_path / "new.jsonl"
        write_synthetic_trace(replacement, shards=2, start_mono=50.0)
        os.replace(replacement, path)  # same size, new inode
        records = cursor.poll()
        assert cursor.truncations == 1
        assert len(records) == 5
        assert records[0].mono_time_s == 50.0

    def test_live_cursor_raises_on_complete_garbage_line(self, tmp_path):
        path = tmp_path / "garbage.jsonl"
        write_synthetic_trace(path)
        with path.open("a", encoding="utf-8") as handle:
            handle.write("not json at all\n")  # newline: a *completed* line
        with pytest.raises(EngineTraceError, match="corrupt trace record"):
            TraceCursor(path, live=True).poll()

    def test_posthoc_read_drops_unparsable_final_line(self, tmp_path):
        # Post-hoc (live=False) the same trace reads fine: the writer is
        # gone, so an unparsable final line is a crash artifact.
        path = tmp_path / "garbage.jsonl"
        write_synthetic_trace(path)
        complete = read_trace(path)
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"v":1,"kind":"shard-fin')
        assert len(read_trace(path)) == len(complete)


class TestRecordCoercion:
    def test_string_eta_rejected(self, tmp_path):
        payload = sample_payload(tmp_path, eta_s="3.5")
        with pytest.raises(EngineTraceError, match="eta_s"):
            record_from_dict(payload)

    def test_string_shard_rejected(self, tmp_path):
        payload = sample_payload(tmp_path, shard="3")
        with pytest.raises(EngineTraceError, match="shard"):
            record_from_dict(payload)

    def test_bool_is_not_a_number(self, tmp_path):
        payload = sample_payload(tmp_path, elapsed_s=True)
        with pytest.raises(EngineTraceError, match="elapsed_s"):
            record_from_dict(payload)

    def test_int_commit_lag_coerced_to_float(self, tmp_path):
        record = record_from_dict(sample_payload(tmp_path, commit_lag_s=2))
        assert record.commit_lag_s == 2.0
        assert isinstance(record.commit_lag_s, float)

    def test_whole_float_attempt_coerced_to_int(self, tmp_path):
        record = record_from_dict(sample_payload(tmp_path, attempt=2.0))
        assert record.attempt == 2
        assert isinstance(record.attempt, int)

    def test_fractional_attempt_rejected(self, tmp_path):
        payload = sample_payload(tmp_path, attempt=1.5)
        with pytest.raises(EngineTraceError, match="attempt"):
            record_from_dict(payload)

    def test_null_required_field_rejected(self, tmp_path):
        payload = sample_payload(tmp_path, cycles_per_sec=None)
        with pytest.raises(EngineTraceError, match="cycles_per_sec"):
            record_from_dict(payload)


_SAMPLE_CACHE = {}


def sample_payload(tmp_path, **overrides):
    """One real trace line as a dict, with overrides applied."""
    if "line" not in _SAMPLE_CACHE:
        path = tmp_path / "sample.jsonl"
        write_synthetic_trace(path, shards=1)
        _SAMPLE_CACHE["line"] = raw_lines(path)[0]
    payload = json.loads(_SAMPLE_CACHE["line"])
    payload.update(overrides)
    return payload


class TestReportBuilderInvariant:
    def test_incremental_equals_batch(self, tmp_path):
        path = tmp_path / "run.jsonl"
        write_synthetic_trace(path, shards=4)
        records = read_trace(path)
        builder = TraceReportBuilder()
        for record in records:  # one at a time, like a follower
            builder.add(record)
        incremental = builder.report(slowest=3).render()
        batch = build_trace_report(records, slowest=3).render()
        assert incremental == batch

    def test_running_shards_and_trace_time_age(self, tmp_path):
        builder = TraceReportBuilder()
        path = tmp_path / "run.jsonl"
        write_synthetic_trace(path, shards=2)
        records = read_trace(path)
        # Feed everything except the last shard's finish + plan-finished.
        for record in records[:-2]:
            builder.add(record)
        running = builder.running_shards()
        assert len(running) == 1
        age = builder.shard_age_s(running[0])
        # Age is measured in *trace* time (newest record's mono clock),
        # never the follower's own clock.
        assert age is not None and age >= 0.0


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


class TestFollowTrace:
    def test_final_report_matches_posthoc(self, tmp_path):
        path = tmp_path / "done.jsonl"
        write_synthetic_trace(path, shards=3)
        clock = FakeClock()
        stream, out = io.StringIO(), io.StringIO()
        code = follow_trace(
            path, interval_s=0.0, top=5, stream=stream, out=out,
            clock=clock, sleep=clock.sleep,
        )
        assert code == 0
        posthoc = build_trace_report(read_trace(path), slowest=5)
        assert out.getvalue() == posthoc.render() + "\n"

    def test_renderer_cadence_under_fake_clock(self, tmp_path):
        # interval=10 with ~35s of fake waiting: the renderer paints at
        # t=0, 10, 20, 30 and the Ctrl-C drain adds no extra snapshot.
        path = tmp_path / "never-finishes.jsonl"
        write_synthetic_trace(path, shards=2)
        # Drop plan-finished and the last shard's finish so the run looks
        # forever in flight and the follow loop keeps polling.
        lines = raw_lines(path)
        path.write_text("\n".join(lines[:-2]) + "\n", encoding="utf-8")
        clock = FakeClock()
        stream = io.StringIO()
        renderer = LiveRenderer(stream=stream, tty=False)

        def sleep(seconds):
            clock.sleep(max(seconds, 1.0))
            if clock.now > 35.0:
                raise KeyboardInterrupt

        code = follow_trace(
            path, interval_s=10.0, stream=stream, out=io.StringIO(),
            clock=clock, sleep=sleep, renderer=renderer,
        )
        assert code == 0
        assert renderer.snapshots == 4
        snapshot_lines = [
            line for line in stream.getvalue().splitlines()
            if line.startswith("[follow]")
        ]
        assert len(snapshot_lines) == 4
        assert "shards 1/2" in snapshot_lines[-1]
        assert "running 1" in snapshot_lines[-1]

    def test_waits_for_file_then_finishes(self, tmp_path):
        path = tmp_path / "late.jsonl"
        clock = FakeClock()
        polls = {"count": 0}

        def sleep(seconds):
            clock.sleep(seconds)
            polls["count"] += 1
            if polls["count"] == 3:  # the campaign starts late
                write_synthetic_trace(path, shards=2)

        stream, out = io.StringIO(), io.StringIO()
        code = follow_trace(
            path, interval_s=0.0, stream=stream, out=out,
            clock=clock, sleep=sleep,
        )
        assert code == 0
        assert "waiting for" in stream.getvalue()
        posthoc = build_trace_report(read_trace(path))
        assert out.getvalue() == posthoc.render() + "\n"

    def test_corrupt_trace_exits_one(self, tmp_path):
        path = tmp_path / "corrupt.jsonl"
        write_synthetic_trace(path, shards=1)
        lines = raw_lines(path)
        lines[0] = "garbage"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        stream = io.StringIO()
        code = follow_trace(
            path, interval_s=0.0, stream=stream, out=io.StringIO(),
            clock=FakeClock(), sleep=lambda s: None,
        )
        assert code == 1
        assert "corrupt trace record" in stream.getvalue()

    def test_directory_mode_multiplexes_and_headers(self, tmp_path):
        write_synthetic_trace(tmp_path / "a.trace.jsonl", shards=2)
        write_synthetic_trace(tmp_path / "b.trace.jsonl", shards=1)
        clock = FakeClock()
        ticks = {"count": 0}

        def sleep(seconds):
            clock.sleep(max(seconds, 0.1))
            ticks["count"] += 1
            if ticks["count"] >= 5:  # directory mode never self-finishes
                raise KeyboardInterrupt

        stream, out = io.StringIO(), io.StringIO()
        code = follow_trace(
            tmp_path, interval_s=0.0, stream=stream, out=out,
            clock=clock, sleep=sleep,
        )
        assert code == 0
        final = out.getvalue()
        assert "== a.trace.jsonl ==" in final
        assert "== b.trace.jsonl ==" in final
        for name in ("a.trace.jsonl", "b.trace.jsonl"):
            posthoc = build_trace_report(read_trace(tmp_path / name))
            assert posthoc.render() in final

    def test_writer_restart_resets_builder(self, tmp_path):
        path = tmp_path / "restart.jsonl"
        write_synthetic_trace(path, shards=3)
        source = TraceSource(path)
        source.poll()
        assert source.finished
        path.unlink()
        write_synthetic_trace(path, shards=1)
        source.poll()
        assert source.restarts == 1
        assert source.finished  # the new run also ran to completion
        assert len(source.builder.profiles) == 1


class TestLiveRenderer:
    def make_session(self, tmp_path, shards=2):
        path = tmp_path / "run.jsonl"
        write_synthetic_trace(path, shards=shards)
        session = FollowSession(path)
        session.poll()
        return session

    def test_tty_repaint_uses_ansi_and_clears(self, tmp_path):
        session = self.make_session(tmp_path)
        stream = io.StringIO()
        renderer = LiveRenderer(stream=stream, tty=True)
        renderer.render(session)
        renderer.render(session)
        renderer.close()
        painted = stream.getvalue()
        assert painted.startswith("\x1b[2J\x1b[H")  # first paint clears
        assert "\x1b[K" in painted  # per-line clear-to-end
        assert painted.count("\x1b[2J") == 1  # later paints home only
        assert painted.endswith("\n")

    def test_non_tty_appends_snapshot_lines(self, tmp_path):
        session = self.make_session(tmp_path)
        stream = io.StringIO()
        renderer = LiveRenderer(stream=stream, tty=False)
        renderer.render(session)
        renderer.close()
        text = stream.getvalue()
        assert "\x1b" not in text
        assert text.startswith("[follow] run.jsonl:")
        assert "finished" in text
