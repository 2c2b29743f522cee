"""Tests for the tracing toolchain (blktrace / blkparse / btt stand-ins)."""

import pytest

from repro.errors import TraceError
from repro.sim import Kernel
from repro.trace import Action, BlockTracer, Btt, TraceEvent, format_event, format_trace
from repro.trace.btt import DELAYED_REQUEST_TIMEOUT_US
from repro.units import SEC


def tracer_with(kernel=None):
    return BlockTracer(kernel or Kernel())


class TestBlockTracer:
    def test_record_and_iterate(self):
        t = tracer_with()
        t.record(Action.QUEUE, 1, 0, 4, True)
        t.record(Action.COMPLETE, 1, 0, 4, True)
        assert t.event_count == 2
        actions = [e.action for e in t.events()]
        assert actions == [Action.QUEUE, Action.COMPLETE]

    def test_sequence_monotone(self):
        t = tracer_with()
        events = [t.record(Action.QUEUE, i, 0, 1, False) for i in range(5)]
        assert [e.sequence for e in events] == [0, 1, 2, 3, 4]

    def test_events_for_filters(self):
        t = tracer_with()
        t.record(Action.QUEUE, 1, 0, 1, True)
        t.record(Action.QUEUE, 2, 0, 1, True)
        t.record(Action.COMPLETE, 1, 0, 1, True)
        assert len(t.events_for(1)) == 2
        assert len(t.events_for(2)) == 1

    def test_reset(self):
        t = tracer_with()
        t.record(Action.QUEUE, 1, 0, 1, True)
        assert t.reset() == 1
        assert t.event_count == 0

    def test_sink_streams_live(self):
        t = tracer_with()
        seen = []
        t.add_sink(seen.append)
        t.record(Action.QUEUE, 1, 0, 1, True)
        assert len(seen) == 1


class TestEventProperties:
    def test_sector_math(self):
        e = TraceEvent(0, 0, Action.QUEUE, 1, lpn=10, page_count=2, is_write=True)
        assert e.sector == 80
        assert e.sectors == 16
        assert e.rwbs == "W"

    def test_read_marker(self):
        e = TraceEvent(0, 0, Action.QUEUE, 1, lpn=0, page_count=1, is_write=False)
        assert e.rwbs == "R"


class TestBlkparse:
    def test_format_contains_fields(self):
        e = TraceEvent(17, 48731, Action.QUEUE, 4211, 256, 2, True)
        line = format_event(e)
        assert "Q" in line
        assert "W" in line
        assert "2048 + 16" in line
        assert "0.048731000" in line

    def test_format_trace_lines(self):
        t = tracer_with()
        t.record(Action.QUEUE, 1, 0, 1, True)
        t.record(Action.COMPLETE, 1, 0, 1, True)
        lines = format_trace(t.events())
        assert len(lines) == 2


class TestBtt:
    def make_request_trace(self, t, rid=1, complete=True, error=False):
        t.record(Action.QUEUE, rid, 0, 4, True)
        t.record(Action.GET_REQUEST, rid, 0, 4, True)
        t.record(Action.ISSUE, rid, 0, 4, True)
        if complete:
            t.record(Action.COMPLETE, rid, 0, 4, True)
        if error:
            t.record(Action.COMPLETE_ERROR, rid, 0, 4, True)

    def test_completed_flag(self):
        k = Kernel()
        t = BlockTracer(k)
        self.make_request_trace(t)
        btt = Btt(t)
        record = btt.record_for(1)
        assert record.completed
        assert not record.errored

    def test_errored_flag(self):
        t = tracer_with()
        self.make_request_trace(t, complete=False, error=True)
        record = Btt(t).record_for(1)
        assert not record.completed
        assert record.errored

    def test_pending_and_delayed(self):
        k = Kernel()
        t = BlockTracer(k)
        self.make_request_trace(t, complete=False)
        record = Btt(t).record_for(1)
        assert record.incomplete_at(k.now)
        assert not record.delayed(k.now)
        assert record.delayed(k.now + DELAYED_REQUEST_TIMEOUT_US + 1)

    def test_unknown_request_raises(self):
        t = tracer_with()
        with pytest.raises(TraceError):
            Btt(t).record_for(99)

    def test_summary_counts(self):
        t = tracer_with()
        self.make_request_trace(t, rid=1)
        self.make_request_trace(t, rid=2, complete=False, error=True)
        self.make_request_trace(t, rid=3, complete=False)
        summary = Btt(t).summary(now=0)
        assert summary == {
            "requests": 3,
            "completed": 1,
            "errored": 1,
            "split": 0,
            "pending": 1,
        }

    def test_latency_fields(self):
        k = Kernel()
        t = BlockTracer(k)
        t.record(Action.QUEUE, 1, 0, 1, True)
        k.schedule(100, lambda: t.record(Action.ISSUE, 1, 0, 1, True))
        k.schedule(300, lambda: t.record(Action.COMPLETE, 1, 0, 1, True))
        k.run()
        record = Btt(t).record_for(1)
        assert record.queue_to_complete_us == 300
        assert record.dispatch_to_complete_us == 200

    def test_30s_rule_constant(self):
        assert DELAYED_REQUEST_TIMEOUT_US == 30 * SEC


class TestBttLatencyStats:
    def make_completed(self, t, rid, q, d, c):
        k = t.kernel
        k.schedule(q, lambda: t.record(Action.QUEUE, rid, 0, 1, True))
        k.schedule(d, lambda: t.record(Action.ISSUE, rid, 0, 1, True))
        k.schedule(c, lambda: t.record(Action.COMPLETE, rid, 0, 1, True))

    def build(self):
        k = Kernel()
        t = BlockTracer(k)
        self.make_completed(t, 1, q=0, d=50, c=100)
        self.make_completed(t, 2, q=0, d=100, c=300)
        self.make_completed(t, 3, q=0, d=150, c=500)
        k.run()
        return Btt(t)

    def test_q2c_stats(self):
        stats = self.build().latency_stats("q2c")
        assert stats["count"] == 3
        assert stats["min"] == 100
        assert stats["max"] == 500
        assert stats["avg"] == pytest.approx(300.0)

    def test_d2c_stats(self):
        stats = self.build().latency_stats("d2c")
        assert stats["count"] == 3
        assert stats["min"] == 50
        assert stats["max"] == 350

    def test_empty_stats(self):
        btt = Btt(BlockTracer(Kernel()))
        assert btt.latency_stats()["count"] == 0

    def test_unknown_phase(self):
        with pytest.raises(TraceError):
            self.build().latency_stats("x2y")

    def test_histogram_buckets(self):
        histogram = self.build().latency_histogram("q2c", bucket_us=200)
        assert histogram == {0: 1, 200: 1, 400: 1}

    def test_histogram_validation(self):
        with pytest.raises(TraceError):
            self.build().latency_histogram(bucket_us=0)
