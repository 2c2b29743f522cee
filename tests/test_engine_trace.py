"""Tests for the engine's JSONL telemetry trace layer.

Covers the trace round-trip under injected faults (the writer is just a
progress hook, so the supervisor's whole failure vocabulary lands in the
file), torn-tail tolerance, the straggler/retry report, the resumed-run
throughput/ETA accounting fix, and the plan-finished sentinel index.
"""

import io
import json

import pytest

from repro.engine import (
    CampaignPlan,
    ConsoleProgress,
    EngineTelemetry,
    PLAN_EVENT_INDEX,
    ProgressEvent,
    RetryPolicy,
    TraceWriter,
    build_trace_report,
    fanout_hooks,
    read_trace,
    run_plan,
)
from repro.engine.executors import TEST_FAULT_ENV
from repro.engine.trace import EVENT_KINDS, record_from_dict
from repro.errors import EngineTraceError
from repro.ssd.device import SsdConfig
from repro.units import GIB, MSEC
from repro.workload.spec import WorkloadSpec

FAST = RetryPolicy(max_retries=2, backoff_base_s=0.0, backoff_max_s=0.0)


def small_plan(faults=4, shard_faults=1, seed=42):
    return CampaignPlan(
        spec=WorkloadSpec(wss_bytes=1 * GIB, outstanding=8),
        faults=faults,
        device=SsdConfig(
            name="trace-dev", capacity_bytes=2 * GIB, init_time_us=50 * MSEC
        ),
        base_seed=seed,
        label="trace-test",
        shard_faults=shard_faults,
    )


def run_traced(path, monkeypatch=None, fault=None, **kwargs):
    if fault is not None:
        monkeypatch.setenv(TEST_FAULT_ENV, fault)
    with TraceWriter(path) as writer:
        result = run_plan(small_plan(), progress=writer, **kwargs)
    return result


class TestTraceRoundTrip:
    def test_faulted_run_events_reach_the_file(self, tmp_path, monkeypatch):
        """Write during a faulted supervisor run, reload, find the retry."""
        path = tmp_path / "run.trace.jsonl"
        run_traced(path, monkeypatch, fault="crash:1:1", jobs=2, retry_policy=FAST)
        records = read_trace(path)
        kinds = [record.kind for record in records]
        assert kinds.count("shard-finished") == 4
        assert "shard-retried" in kinds
        retry = next(r for r in records if r.kind == "shard-retried")
        assert retry.shard_index == 1
        assert retry.attempt == 1
        assert "injected crash" in retry.detail
        finished = next(
            r for r in records if r.kind == "shard-finished" and r.shard_index == 1
        )
        assert finished.attempt == 2
        # Monotonic capture timestamps are non-decreasing in file order.
        monos = [record.mono_time_s for record in records]
        assert monos == sorted(monos)

    def test_quarantine_events_in_trace(self, tmp_path, monkeypatch):
        path = tmp_path / "run.trace.jsonl"
        run_traced(
            path, monkeypatch, fault="crash:2:*",
            jobs=1, quarantine=True, retry_policy=FAST,
        )
        records = read_trace(path)
        quarantined = [r for r in records if r.kind == "shard-quarantined"]
        assert len(quarantined) == 1
        assert quarantined[0].shard_index == 2
        assert quarantined[0].attempt == FAST.max_attempts

    def test_resumed_run_trace_reports_zero_executed_rate(self, tmp_path):
        checkpoint = tmp_path / "ck.jsonl"
        first = run_plan(small_plan(), jobs=1, checkpoint=checkpoint)
        path = tmp_path / "resume.trace.jsonl"
        with TraceWriter(path) as writer:
            resumed = run_plan(
                small_plan(), jobs=1, checkpoint=checkpoint, resume=True,
                progress=writer,
            )
        assert resumed.summary() == first.summary()
        records = read_trace(path)
        skips = [r for r in records if r.kind == "shard-skipped"]
        assert len(skips) == 4
        # Nothing executed: skipped cycles are tracked and the rate is 0.
        assert records[-1].cycles_skipped == 4
        assert records[-1].cycles_done == 4
        assert all(r.cycles_per_sec == 0.0 for r in records)

    def test_serial_records_carry_worker_pid(self, tmp_path):
        path = tmp_path / "run.trace.jsonl"
        run_traced(path, jobs=1)
        starts = [r for r in read_trace(path) if r.kind == "shard-started"]
        assert starts and all(r.worker_pid is not None for r in starts)

    def test_checkpointed_run_records_commit_lag(self, tmp_path):
        path = tmp_path / "run.trace.jsonl"
        run_traced(path, jobs=2, checkpoint=tmp_path / "ck.jsonl")
        commits = [r for r in read_trace(path) if r.kind == "checkpoint-written"]
        assert len(commits) == 4
        assert all(
            r.commit_lag_s is not None and r.commit_lag_s >= 0.0 for r in commits
        )


class TestTraceFileRobustness:
    def test_torn_tail_is_dropped(self, tmp_path):
        path = tmp_path / "run.trace.jsonl"
        run_traced(path, jobs=1)
        complete = read_trace(path)
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"v":1,"kind":"shard-fin')  # crash mid-append
        assert len(read_trace(path)) == len(complete)

    def test_corruption_before_tail_raises(self, tmp_path):
        path = tmp_path / "run.trace.jsonl"
        run_traced(path, jobs=1)
        lines = path.read_text().splitlines()
        lines[1] = "not json at all"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(EngineTraceError, match="line 2"):
            read_trace(path)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(EngineTraceError, match="not found"):
            read_trace(tmp_path / "nope.jsonl")

    def test_missing_required_field_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"v":1,"kind":"shard-started"}\n{"also":"torn"}\n')
        # Both lines are bad, but only the final one is tail-tolerated.
        with pytest.raises(EngineTraceError):
            read_trace(path)

    def test_fsync_batching_defers_then_flushes(self, tmp_path):
        path = tmp_path / "batched.jsonl"
        event = ProgressEvent(
            kind="shard-started", plan_label="p", shard_index=0, shard_count=8,
            wall_time_s=1000.0, mono_time_s=0.0,
            shards_done=0, shards_total=8, cycles_done=0, cycles_total=8,
            cycles_skipped=0, elapsed_s=0.0, cycles_per_sec=0.0, eta_s=None,
        )
        writer = TraceWriter(path, flush_every=4)
        for _ in range(3):
            writer.write_event(event)
        assert writer._unsynced == 3  # batched, not yet fsync'd
        writer.write_event(event)
        assert writer._unsynced == 0  # batch boundary forced the fsync
        writer.close()
        assert len(read_trace(path)) == 4

    def test_retry_events_force_immediate_fsync(self, tmp_path):
        path = tmp_path / "forensic.jsonl"
        event = ProgressEvent(
            kind="shard-retried", plan_label="p", shard_index=0, shard_count=8,
            wall_time_s=1000.0, mono_time_s=0.0,
            shards_done=0, shards_total=8, cycles_done=0, cycles_total=8,
            cycles_skipped=0, elapsed_s=0.0, cycles_per_sec=0.0, eta_s=None,
            detail="boom",
        )
        writer = TraceWriter(path, flush_every=100)
        writer.write_event(event)
        assert writer._unsynced == 0
        writer.close()


class TestTraceReport:
    def test_report_reconstructs_retries_and_stragglers(self, tmp_path, monkeypatch):
        path = tmp_path / "run.trace.jsonl"
        run_traced(path, monkeypatch, fault="crash:1:1", jobs=2, retry_policy=FAST)
        report = build_trace_report(read_trace(path), slowest=2)
        assert len(report.shards) == 4
        assert report.plans == ["trace-test"]
        assert len(report.retry_timeline) == 1
        assert report.retry_timeline[0].shard_index == 1
        retried = next(p for p in report.shards if p.shard_index == 1)
        assert retried.attempts == 2
        assert retried.status == "completed"
        # Percentiles are ordered and the slowest list is sorted descending.
        assert report.duration_p50_s <= report.duration_p95_s <= report.duration_max_s
        assert len(report.slowest) == 2
        assert report.slowest[0].duration_s >= report.slowest[1].duration_s
        rendered = report.render()
        assert "slowest 2 shard(s)" in rendered
        assert "retries: 1" in rendered
        assert "injected crash" in rendered

    def test_report_counts_skips_and_quarantines(self, tmp_path, monkeypatch):
        checkpoint = tmp_path / "ck.jsonl"
        run_plan(small_plan(), jobs=1, checkpoint=checkpoint)
        path = tmp_path / "resume.trace.jsonl"
        with TraceWriter(path) as writer:
            run_plan(
                small_plan(), jobs=1, checkpoint=checkpoint, resume=True,
                progress=writer,
            )
        report = build_trace_report(read_trace(path))
        assert report.skipped == 4
        assert report.cycles_executed == 0
        assert report.cycles_skipped == 4
        assert report.duration_p50_s is None  # nothing ran, no durations
        assert "resumed (skipped) shards: 4" in report.render()

    def test_empty_trace_rejected(self):
        with pytest.raises(EngineTraceError, match="no records"):
            build_trace_report([])


def trace_record(kind, shard, mono, plan="p", **overrides):
    """One synthetic ProgressEvent for report edge-case tests."""
    fields = dict(
        kind=kind,
        plan_label=plan,
        shard_index=shard,
        shard_count=4,
        wall_time_s=1000.0 + mono,
        mono_time_s=mono,
        shards_done=0,
        shards_total=4,
        cycles_done=0,
        cycles_total=4,
        cycles_skipped=0,
        elapsed_s=max(0.0, mono),
        cycles_per_sec=0.0,
    )
    fields.update(overrides)
    return ProgressEvent(**fields)


class TestTraceReportEdgeCases:
    """Degenerate and adversarial traces must never crash the report."""

    def test_single_record_trace(self):
        # One started-but-never-finished shard: zero span, no durations,
        # no percentile/rate division anywhere.
        report = build_trace_report([trace_record("shard-started", 0, 5.0)])
        assert report.span_s == 0.0
        assert report.duration_p50_s is None
        assert report.slowest == []
        assert report.shards[0].status == "running"
        assert "0.00s" in report.render()

    def test_all_quarantined_trace(self):
        # Every shard poisoned: no shard ever finishes, so there are no
        # durations and no workers — only the quarantine timeline.
        records = []
        for shard in range(3):
            records.append(trace_record("shard-started", shard, float(shard)))
            records.append(
                trace_record(
                    "shard-quarantined", shard, shard + 0.5,
                    attempt=3, detail="poison",
                )
            )
        report = build_trace_report(records)
        assert all(p.status == "quarantined" for p in report.shards)
        assert report.duration_p50_s is None
        assert report.workers == {}
        assert len(report.quarantine_timeline) == 3
        rendered = report.render()
        assert "quarantined: 3" in rendered
        assert "poison" in rendered

    def test_restart_mixed_trace_resets_profiles(self):
        # A restarted campaign appended to the same trace path: the second
        # boot's monotonic clock restarts near zero, so raw deltas against
        # the first run would be negative.  The new run's story must
        # supersede the old one's — attempts, duration, status — and no
        # negative duration or span may escape.
        records = [
            trace_record("shard-started", 0, 100.0, attempt=1),
            trace_record("shard-finished", 0, 104.0, attempt=2),
            # second boot, fresh monotonic epoch
            trace_record("shard-started", 0, 1.0, attempt=1),
            trace_record("shard-finished", 0, 1.5, attempt=1),
        ]
        report = build_trace_report(records)
        profile = report.shards[0]
        assert profile.status == "completed"
        assert profile.attempts == 1  # the restart's count, not 2
        assert profile.duration_s == pytest.approx(0.5)
        assert report.span_s == 0.0  # clamped, not -98.5

    def test_cross_boot_finish_yields_no_duration(self):
        # A finish whose matching start came from a different boot (mono
        # went backwards with no intervening start) must not produce a
        # negative duration.
        records = [
            trace_record("shard-started", 0, 100.0),
            trace_record("shard-finished", 0, 2.0),
        ]
        report = build_trace_report(records)
        assert report.shards[0].duration_s is None
        assert report.slowest == []
        assert report.retry_timeline == []

    def test_two_plans_do_not_cross_attribute(self):
        # Shard 0 of plan A and shard 0 of plan B share an index; the
        # report must keep their stories separate.
        records = [
            trace_record("shard-started", 0, 0.0, plan="a"),
            trace_record("shard-started", 0, 1.0, plan="b"),
            trace_record("shard-finished", 0, 2.0, plan="a", attempt=1),
            trace_record("shard-quarantined", 0, 3.0, plan="b", attempt=3),
        ]
        report = build_trace_report(records)
        assert report.plans == ["a", "b"]
        by_plan = {p.plan_label: p for p in report.shards}
        assert by_plan["a"].status == "completed"
        assert by_plan["a"].duration_s == pytest.approx(2.0)
        assert by_plan["b"].status == "quarantined"
        assert by_plan["b"].duration_s is None

    def test_distributed_worker_attribution(self):
        # "host:pid" identities from distributed runs land in the per-
        # worker tally and on the slowest-shard lines.
        records = [
            trace_record("shard-started", 0, 0.0, worker_pid="boxa:10"),
            trace_record("shard-started", 1, 0.0, worker_pid="boxb:20"),
            trace_record("shard-finished", 0, 3.0, worker_pid="boxa:10"),
            trace_record("shard-finished", 1, 1.0, worker_pid="boxb:20"),
            trace_record("shard-started", 2, 1.0, worker_pid="boxb:20"),
            trace_record("shard-finished", 2, 2.0, worker_pid="boxb:20"),
        ]
        report = build_trace_report(records)
        assert report.workers == {"boxa:10": 1, "boxb:20": 2}
        rendered = report.render()
        assert "shards per worker: boxb:20: 2, boxa:10: 1" in rendered
        assert "worker=boxa:10" in rendered

    def test_retry_before_first_start_clamps_elapsed(self):
        # A retry record that predates the report's base timestamp (mixed
        # epochs again) clamps to +0.00s instead of going negative.
        records = [
            trace_record("shard-started", 0, 50.0),
            trace_record("shard-retried", 0, 10.0, attempt=1, detail="lost"),
        ]
        report = build_trace_report(records)
        assert report.retry_timeline[0].elapsed_s == 0.0
        assert "+0.00s" in report.render()


class TestResumedEtaAccounting:
    """Regression: checkpoint-loaded cycles must not inflate throughput."""

    def make(self, cycles_total=100):
        now = [0.0]
        telemetry = EngineTelemetry(
            shards_total=4, cycles_total=cycles_total, clock=lambda: now[0]
        )
        return now, telemetry

    def test_skipped_cycles_excluded_from_rate(self):
        now, telemetry = self.make()
        now[0] = 1.0
        telemetry.shard_skipped("x", 0, 4, 50)
        # 50 cycles "done" instantly, but none executed: no rate, no ETA.
        assert telemetry.cycles_done == 50
        assert telemetry.cycles_skipped == 50
        assert telemetry.cycles_executed == 0
        assert telemetry.cycles_per_sec == 0.0
        assert telemetry.eta_s is None
        now[0] = 6.0
        telemetry.shard_finished("x", 1, 4, 25)
        # Only the 25 executed cycles feed the rate; the buggy accounting
        # would have claimed 75/6 = 12.5 cycles/s and an ETA of 2s.
        assert telemetry.cycles_per_sec == pytest.approx(25 / 6.0)
        assert telemetry.eta_s == pytest.approx(25 / (25 / 6.0))

    def test_skipped_cycles_still_advance_progress(self):
        now, telemetry = self.make()
        now[0] = 2.0
        telemetry.shard_skipped("x", 0, 4, 50)
        telemetry.shard_finished("x", 1, 4, 30)
        assert telemetry.cycles_done == 80  # progress counts both
        assert telemetry.cycles_executed == 30
        # ETA covers the 20 remaining cycles at the executed rate.
        assert telemetry.eta_s == pytest.approx(20 / (30 / 2.0))

    def test_pure_execution_rate_unchanged(self):
        now, telemetry = self.make(cycles_total=4)
        now[0] = 2.0
        telemetry.shard_finished("x", 0, 2, 2)
        assert telemetry.cycles_per_sec == pytest.approx(1.0)
        assert telemetry.eta_s == pytest.approx(2.0)

    def test_events_carry_cycles_skipped(self):
        events = []
        now, telemetry = self.make()
        telemetry._hook = events.append
        now[0] = 1.0
        telemetry.shard_skipped("x", 0, 4, 50)
        assert events[-1].cycles_skipped == 50
        assert events[-1].cycles_per_sec == 0.0

    def test_one_clock_reading_per_event(self):
        # A clock that moves on every read: fields taken from separate
        # readings would disagree about when the event happened.
        ticks = iter(range(100, 200))
        events = []
        telemetry = EngineTelemetry(
            shards_total=3, cycles_total=7, hook=events.append,
            clock=lambda: float(next(ticks)),
        )
        telemetry.shard_started("x", 0, 3, attempt=1)
        telemetry.shard_finished("x", 0, 3, 2, attempt=1)
        telemetry.checkpoint_written("x", 0, 3, commit_lag_s=0.0)
        telemetry.shard_skipped("x", 1, 3, 3)
        telemetry.shard_retried("x", 2, 3, "crash", attempt=1)
        telemetry.shard_finished("x", 2, 3, 2, attempt=2)
        telemetry.plan_finished("x", 3)
        for event in events:
            assert event.mono_time_s - event.elapsed_s == 100
            executed = event.cycles_done - event.cycles_skipped
            assert event.cycles_per_sec == executed / event.elapsed_s
            if executed:
                remaining = event.cycles_total - event.cycles_done
                assert event.eta_s == remaining / event.cycles_per_sec


class TestPlanFinishedSentinel:
    def test_plan_finished_does_not_alias_a_real_shard(self):
        events = []
        run_plan(small_plan(faults=2, shard_faults=1), progress=events.append)
        finished = [e for e in events if e.kind == "plan-finished"]
        assert len(finished) == 1
        assert finished[0].shard_index == PLAN_EVENT_INDEX
        real_keys = {
            (e.plan_label, e.shard_index)
            for e in events
            if e.kind in ("shard-started", "shard-finished")
        }
        assert (finished[0].plan_label, finished[0].shard_index) not in real_keys

    def test_console_renders_sentinel_as_plan_scope(self):
        import io

        stream = io.StringIO()
        hook = ConsoleProgress(stream=stream)
        hook(
            ProgressEvent(
                kind="plan-finished", plan_label="p", shard_index=PLAN_EVENT_INDEX,
                shard_count=4, wall_time_s=1001.0, mono_time_s=1.0,
                shards_done=4, shards_total=4, cycles_done=4, cycles_total=4,
                cycles_skipped=0, elapsed_s=1.0, cycles_per_sec=4.0, eta_s=0.0,
            )
        )
        line = stream.getvalue()
        assert "all 4 shards" in line
        assert "shard 0/" not in line

    def test_sentinel_survives_the_trace_round_trip(self, tmp_path):
        path = tmp_path / "run.trace.jsonl"
        run_traced(path, jobs=1)
        last = read_trace(path)[-1]
        assert last.kind == "plan-finished"
        assert last.shard_index == PLAN_EVENT_INDEX


class TestShardTimings:
    def test_supervisor_populates_execution_timings(self, tmp_path):
        result = run_plan(small_plan(), jobs=2, checkpoint=tmp_path / "ck.jsonl")
        timings = result.execution.timings
        assert len(timings) == 4
        assert [t.shard_index for t in timings] == [0, 1, 2, 3]
        for timing in timings:
            assert timing.status == "completed"
            assert timing.attempts == 1
            assert timing.duration_s is not None and timing.duration_s >= 0.0
            assert timing.pickup_latency_s is not None
            assert timing.pickup_latency_s >= 0.0

    def test_resumed_shards_have_no_timing(self, tmp_path):
        checkpoint = tmp_path / "ck.jsonl"
        run_plan(small_plan(), jobs=1, checkpoint=checkpoint)
        resumed = run_plan(small_plan(), jobs=1, checkpoint=checkpoint, resume=True)
        assert all(t.status == "resumed" for t in resumed.execution.timings)
        assert all(t.duration_s is None for t in resumed.execution.timings)

    def test_timings_merge_and_stay_out_of_summary(self, tmp_path):
        first = run_plan(small_plan(), jobs=1)
        second = run_plan(small_plan(seed=43), jobs=1)
        merged = first.merged_with(second)
        assert len(merged.execution.timings) == 8
        assert "timings" not in merged.execution.summary()


class TestHookFanout:
    def test_fanout_composes_and_degenerates(self):
        seen_a, seen_b = [], []
        hook_a = seen_a.append
        assert fanout_hooks(None, None) is None
        assert fanout_hooks(hook_a) is hook_a  # single hook passes through
        hook = fanout_hooks(hook_a, None, seen_b.append)
        event = ProgressEvent(
            kind="shard-started", plan_label="p", shard_index=0, shard_count=1,
            wall_time_s=1000.0, mono_time_s=0.0,
            shards_done=0, shards_total=1, cycles_done=0, cycles_total=1,
            cycles_skipped=0, elapsed_s=0.0, cycles_per_sec=0.0, eta_s=None,
        )
        hook(event)
        assert seen_a == [event] and seen_b == [event]


class TestTraceSchema:
    def test_records_are_flat_json_with_required_fields(self, tmp_path):
        from repro.engine.trace import REQUIRED_FIELDS, TRACE_VERSION

        path = tmp_path / "run.trace.jsonl"
        run_traced(path, jobs=1)
        for line in path.read_text().splitlines():
            payload = json.loads(line)
            assert payload["v"] == TRACE_VERSION
            for name in REQUIRED_FIELDS:
                assert name in payload, f"missing {name}"


# Seven hand-built events, one of each kind, with fixed capture stamps.  The
# lines below are what the writer produced for them before events carried
# their own stamps (it stamped each line from its own clocks); the format,
# key order and JSON bytes must never drift.
GOLDEN_EVENTS = [
    dict(kind="shard-started", plan_label="golden ssd-a", shard_index=0,
         shard_count=2, shards_done=0, shards_total=2, cycles_done=0,
         cycles_total=5, cycles_skipped=0, elapsed_s=0.0, cycles_per_sec=0.0,
         eta_s=None, attempt=1, worker_pid=4242),
    dict(kind="shard-finished", plan_label="golden ssd-a", shard_index=0,
         shard_count=2, shards_done=1, shards_total=2, cycles_done=3,
         cycles_total=5, cycles_skipped=0, elapsed_s=10.000000000000002,
         cycles_per_sec=0.1 + 0.2, eta_s=6.666666666666667, attempt=1,
         worker_pid="node-a:4242"),
    dict(kind="shard-retried", plan_label="golden ssd-a", shard_index=1,
         shard_count=2, shards_done=1, shards_total=2, cycles_done=3,
         cycles_total=5, cycles_skipped=0, elapsed_s=11.25,
         cycles_per_sec=0.26666666666666666, eta_s=7.5, attempt=1,
         detail="worker lost: \u201cEOF\u201d (shard 1, attempt 1)"),
    dict(kind="shard-skipped", plan_label="golden ssd-b", shard_index=0,
         shard_count=1, shards_done=2, shards_total=4, cycles_done=5,
         cycles_total=8, cycles_skipped=2, elapsed_s=12.0, cycles_per_sec=0.25,
         eta_s=12.0, detail="from checkpoint"),
    dict(kind="shard-quarantined", plan_label="golden ssd-a", shard_index=1,
         shard_count=2, shards_done=3, shards_total=4, cycles_done=5,
         cycles_total=8, cycles_skipped=2, elapsed_s=20.5,
         cycles_per_sec=0.14634146341463414, eta_s=20.5, attempt=3,
         detail="injected crash (shard 1, attempt 3)"),
    dict(kind="checkpoint-written", plan_label="golden ssd-a", shard_index=0,
         shard_count=2, shards_done=3, shards_total=4, cycles_done=5,
         cycles_total=8, cycles_skipped=2, elapsed_s=20.75,
         cycles_per_sec=0.14457831325301204, eta_s=20.75, commit_lag_s=0.0125),
    dict(kind="plan-finished", plan_label="golden ssd-a",
         shard_index=PLAN_EVENT_INDEX, shard_count=2, shards_done=4,
         shards_total=4, cycles_done=8, cycles_total=8, cycles_skipped=2,
         elapsed_s=31.0, cycles_per_sec=0.1935483870967742, eta_s=0.0),
]

GOLDEN_LINES = [
    '{"v":1,"kind":"shard-started","plan":"golden ssd-a","shard":0,"shard_count":2,"wall_time_s":1760000000.125,"mono_time_s":86400.0625,"shards_done":0,"shards_total":2,"cycles_done":0,"cycles_total":5,"cycles_skipped":0,"elapsed_s":0.0,"cycles_per_sec":0.0,"eta_s":null,"attempt":1,"worker_pid":4242,"commit_lag_s":null,"detail":""}',
    '{"v":1,"kind":"shard-finished","plan":"golden ssd-a","shard":0,"shard_count":2,"wall_time_s":1760000001.625,"mono_time_s":86401.5625,"shards_done":1,"shards_total":2,"cycles_done":3,"cycles_total":5,"cycles_skipped":0,"elapsed_s":10.000000000000002,"cycles_per_sec":0.30000000000000004,"eta_s":6.666666666666667,"attempt":1,"worker_pid":"node-a:4242","commit_lag_s":null,"detail":""}',
    '{"v":1,"kind":"shard-retried","plan":"golden ssd-a","shard":1,"shard_count":2,"wall_time_s":1760000003.125,"mono_time_s":86403.0625,"shards_done":1,"shards_total":2,"cycles_done":3,"cycles_total":5,"cycles_skipped":0,"elapsed_s":11.25,"cycles_per_sec":0.26666666666666666,"eta_s":7.5,"attempt":1,"worker_pid":null,"commit_lag_s":null,"detail":"worker lost: \\u201cEOF\\u201d (shard 1, attempt 1)"}',
    '{"v":1,"kind":"shard-skipped","plan":"golden ssd-b","shard":0,"shard_count":1,"wall_time_s":1760000004.625,"mono_time_s":86404.5625,"shards_done":2,"shards_total":4,"cycles_done":5,"cycles_total":8,"cycles_skipped":2,"elapsed_s":12.0,"cycles_per_sec":0.25,"eta_s":12.0,"attempt":null,"worker_pid":null,"commit_lag_s":null,"detail":"from checkpoint"}',
    '{"v":1,"kind":"shard-quarantined","plan":"golden ssd-a","shard":1,"shard_count":2,"wall_time_s":1760000006.125,"mono_time_s":86406.0625,"shards_done":3,"shards_total":4,"cycles_done":5,"cycles_total":8,"cycles_skipped":2,"elapsed_s":20.5,"cycles_per_sec":0.14634146341463414,"eta_s":20.5,"attempt":3,"worker_pid":null,"commit_lag_s":null,"detail":"injected crash (shard 1, attempt 3)"}',
    '{"v":1,"kind":"checkpoint-written","plan":"golden ssd-a","shard":0,"shard_count":2,"wall_time_s":1760000007.625,"mono_time_s":86407.5625,"shards_done":3,"shards_total":4,"cycles_done":5,"cycles_total":8,"cycles_skipped":2,"elapsed_s":20.75,"cycles_per_sec":0.14457831325301204,"eta_s":20.75,"attempt":null,"worker_pid":null,"commit_lag_s":0.0125,"detail":""}',
    '{"v":1,"kind":"plan-finished","plan":"golden ssd-a","shard":-1,"shard_count":2,"wall_time_s":1760000009.125,"mono_time_s":86409.0625,"shards_done":4,"shards_total":4,"cycles_done":8,"cycles_total":8,"cycles_skipped":2,"elapsed_s":31.0,"cycles_per_sec":0.1935483870967742,"eta_s":0.0,"attempt":null,"worker_pid":null,"commit_lag_s":null,"detail":""}',
]


def golden_events():
    return [
        ProgressEvent(
            wall_time_s=1760000000.125 + 1.5 * index,
            mono_time_s=86400.0625 + 1.5 * index,
            **fields,
        )
        for index, fields in enumerate(GOLDEN_EVENTS)
    ]


ENGINE_LINES = [
    "[engine] shard-finished golden ssd-a shard 1/2 | shards 1/2 | cycles 3/5 | 0.30 cycles/s | ETA 7s",
    "[engine] shard-retried  golden ssd-a shard 2/2 | shards 1/2 | cycles 3/5 | 0.27 cycles/s | ETA 8s | worker lost: \u201cEOF\u201d (shard 1, attempt 1)",
    "[engine] shard-skipped  golden ssd-b shard 1/1 | shards 2/4 | cycles 5/8 | 0.25 cycles/s | ETA 12s | from checkpoint",
    "[engine] shard-quarantined golden ssd-a shard 2/2 | shards 3/4 | cycles 5/8 | 0.15 cycles/s | ETA 20s | injected crash (shard 1, attempt 3)",
    "[engine] plan-finished  golden ssd-a all 2 shards | shards 4/4 | cycles 8/8 | 0.19 cycles/s | ETA 0s",
]
"""``--progress`` lines of the golden events: shard starts and checkpoint
writes are not rendered."""

SERVE_LINES = [
    "[serve] shard-started  golden ssd-a shard 1/2 | shards 0/2 | cycles 0/5 | ETA ?",
    "[serve] shard-finished golden ssd-a shard 1/2 | shards 1/2 | cycles 3/5 | ETA 7s",
    "[serve] shard-retried  golden ssd-a shard 2/2 | shards 1/2 | cycles 3/5 | ETA 8s | worker lost: \u201cEOF\u201d (shard 1, attempt 1)",
    "[serve] shard-skipped  golden ssd-b shard 1/1 | shards 2/4 | cycles 5/8 | ETA 12s | from checkpoint",
    "[serve] shard-quarantined golden ssd-a shard 2/2 | shards 3/4 | cycles 5/8 | ETA 20s | injected crash (shard 1, attempt 3)",
    "[serve] checkpoint-written golden ssd-a shard 1/2 | shards 3/4 | cycles 5/8 | ETA 21s",
    "[serve] plan-finished  golden ssd-a all 2 shards | shards 4/4 | cycles 8/8 | ETA 0s",
]
"""``repro submit --progress`` / ``repro follow`` lines of the golden events."""


class TestConsoleLines:
    """The ``[engine]`` and ``[serve]`` lines of every event kind."""

    def test_engine_lines(self):
        stream = io.StringIO()
        hook = ConsoleProgress(stream=stream)
        for event in golden_events():
            hook(event)
        assert stream.getvalue().splitlines() == ENGINE_LINES

    def test_serve_lines(self, capsys):
        from repro.cli import _render_streamed_record

        for event in golden_events():
            _render_streamed_record(event)
        assert capsys.readouterr().err.splitlines() == SERVE_LINES


class TestOneRecord:
    """A ProgressEvent is the trace record: written, read back, equal."""

    def test_golden_lines(self, tmp_path):
        path = tmp_path / "golden.jsonl"
        with TraceWriter(path) as writer:
            for event in golden_events():
                writer(event)
        assert {event.kind for event in golden_events()} == EVENT_KINDS
        assert path.read_text(encoding="utf-8").splitlines() == GOLDEN_LINES

    def test_golden_lines_read_back_as_the_events(self, tmp_path):
        path = tmp_path / "golden.jsonl"
        path.write_text("\n".join(GOLDEN_LINES) + "\n", encoding="utf-8")
        assert read_trace(path) == golden_events()

    def test_hook_events_equal_the_trace_read_back(self, tmp_path, monkeypatch):
        monkeypatch.setenv(TEST_FAULT_ENV, "crash:1:1")
        path = tmp_path / "run.trace.jsonl"
        events = []
        with TraceWriter(path) as writer:
            run_plan(
                small_plan(), jobs=1, retry_policy=FAST,
                progress=fanout_hooks(events.append, writer),
            )
        assert [e.kind for e in events].count("shard-retried") == 1
        assert read_trace(path) == events

    def test_text_fields_are_checked_before_numbers(self):
        payload = json.loads(GOLDEN_LINES[1])
        payload.update(shard="0", worker_pid=[4242])
        with pytest.raises(EngineTraceError, match="worker_pid"):
            record_from_dict(payload)
