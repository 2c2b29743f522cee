"""Tests for the discrete-event kernel."""

import pytest

from repro.errors import SimulationError
from repro.sim import Kernel


class TestScheduling:
    def test_events_fire_in_time_order(self):
        k = Kernel()
        out = []
        k.schedule(30, out.append, "c")
        k.schedule(10, out.append, "a")
        k.schedule(20, out.append, "b")
        k.run()
        assert out == ["a", "b", "c"]

    def test_same_time_events_fifo(self):
        k = Kernel()
        out = []
        for tag in range(5):
            k.schedule(10, out.append, tag)
        k.run()
        assert out == [0, 1, 2, 3, 4]

    def test_clock_advances_to_event_time(self):
        k = Kernel()
        seen = []
        k.schedule(123, lambda: seen.append(k.now))
        k.run()
        assert seen == [123]
        assert k.now == 123

    def test_negative_delay_rejected(self):
        k = Kernel()
        with pytest.raises(SimulationError):
            k.schedule(-1, lambda: None)

    def test_schedule_at_past_rejected(self):
        k = Kernel()
        k.run(until=100)
        with pytest.raises(SimulationError):
            k.schedule_at(50, lambda: None)

    def test_nested_scheduling_from_handler(self):
        k = Kernel()
        out = []

        def outer():
            out.append(("outer", k.now))
            k.schedule(5, lambda: out.append(("inner", k.now)))

        k.schedule(10, outer)
        k.run()
        assert out == [("outer", 10), ("inner", 15)]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        k = Kernel()
        out = []
        event = k.schedule(10, out.append, "x")
        event.cancel()
        k.run()
        assert out == []

    def test_pending_property(self):
        k = Kernel()
        event = k.schedule(10, lambda: None)
        assert event.pending
        event.cancel()
        assert not event.pending

    def test_fired_event_not_pending(self):
        k = Kernel()
        event = k.schedule(10, lambda: None)
        k.run()
        assert not event.pending
        assert event.fired


class TestRunControl:
    def test_run_until_stops_at_boundary(self):
        k = Kernel()
        out = []
        k.schedule(10, out.append, "a")
        k.schedule(30, out.append, "b")
        k.run(until=20)
        assert out == ["a"]
        assert k.now == 20  # clock advanced to boundary even though idle

    def test_run_until_includes_boundary_events(self):
        k = Kernel()
        out = []
        k.schedule(20, out.append, "edge")
        k.run(until=20)
        assert out == ["edge"]

    def test_run_for(self):
        k = Kernel()
        k.run_for(500)
        assert k.now == 500

    def test_resume_after_run_until(self):
        k = Kernel()
        out = []
        k.schedule(10, out.append, "a")
        k.schedule(30, out.append, "b")
        k.run(until=20)
        k.run()
        assert out == ["a", "b"]

    def test_stop_halts_loop(self):
        k = Kernel()
        out = []
        k.schedule(10, lambda: (out.append("a"), k.stop()))
        k.schedule(20, out.append, "b")
        k.run()
        assert out == ["a"]
        k.run()
        assert out == ["a", "b"]

    def test_step_returns_false_when_empty(self):
        k = Kernel()
        assert k.step() is False

    def test_step_fires_single_event(self):
        k = Kernel()
        out = []
        k.schedule(5, out.append, 1)
        k.schedule(6, out.append, 2)
        assert k.step() is True
        assert out == [1]

    def test_run_not_reentrant(self):
        k = Kernel()

        def evil():
            k.run()

        k.schedule(1, evil)
        with pytest.raises(SimulationError):
            k.run()


class TestPumpUntil:
    def test_stops_at_the_event_that_satisfies_the_predicate(self):
        k = Kernel()
        fired = []
        for t in (10, 20, 30):
            k.schedule(t, fired.append, t)
        k.pump_until(lambda: 20 in fired, 1_000, "t=20")
        assert fired == [10, 20]
        assert k.now == 20

    def test_returns_at_once_when_already_done(self):
        k = Kernel()
        k.schedule(5, lambda: None)
        k.pump_until(lambda: True, 0, "nothing")
        assert k.now == 0
        assert k.pending_count() == 1

    def test_deadline_raises_at_the_deadline(self):
        k = Kernel()
        k.schedule(500, lambda: None)
        with pytest.raises(SimulationError, match="timed out waiting for the flag"):
            k.pump_until(lambda: False, 100, "the flag")
        assert k.now == 100

    def test_idle_heap_raises_the_given_error(self):
        class IoFailed(Exception):
            pass

        k = Kernel()
        with pytest.raises(IoFailed, match="went idle waiting for the read"):
            k.pump_until(lambda: False, 100, "the read", IoFailed)


class TestIntrospection:
    def test_pending_count_excludes_cancelled(self):
        k = Kernel()
        k.schedule(5, lambda: None)
        event = k.schedule(6, lambda: None)
        event.cancel()
        assert k.pending_count() == 1

    def test_next_event_time(self):
        k = Kernel()
        assert k.next_event_time() is None
        first = k.schedule(7, lambda: None)
        k.schedule(9, lambda: None)
        assert k.next_event_time() == 7
        first.cancel()
        assert k.next_event_time() == 9


class TestKernelDeterminismProperty:
    """Hypothesis: any schedule/cancel interleaving fires in (time, seq) order."""

    from hypothesis import given as _given
    from hypothesis import strategies as _st

    @_given(
        _st.lists(
            _st.tuples(_st.integers(0, 1000), _st.booleans()),
            min_size=1,
            max_size=40,
        )
    )
    def test_fire_order_is_time_then_fifo(self, plan):
        k = Kernel()
        fired = []
        events = []
        for seq, (delay, cancel) in enumerate(plan):
            event = k.schedule(delay, fired.append, (delay, seq))
            events.append((event, cancel))
        for event, cancel in events:
            if cancel:
                event.cancel()
        k.run()
        expected = sorted(
            (delay, seq)
            for seq, (delay, cancel) in enumerate(plan)
            if not plan[seq][1]
        )
        assert fired == expected

    @_given(_st.lists(_st.integers(0, 500), min_size=1, max_size=30))
    def test_clock_never_goes_backwards(self, delays):
        k = Kernel()
        stamps = []
        for delay in delays:
            k.schedule(delay, lambda: stamps.append(k.now))
        k.run()
        assert stamps == sorted(stamps)
        assert k.now == max(delays)


class TestHeapCompactionAndPooling:
    """The O(1)-next-event machinery: lazy compaction and event pooling."""

    def test_compaction_triggers_when_cancelled_majority(self):
        k = Kernel()
        events = [k.schedule(i + 1, lambda: None) for i in range(200)]
        assert len(k._heap) == 200
        for event in events[:150]:
            event.cancel()
        # Cancelled entries outnumber live ones -> heap must have compacted
        # down to (close to) the live set instead of retaining all 200.
        assert len(k._heap) < 200
        assert k.pending_count() == 50
        assert k._cancelled_pending * 2 <= max(len(k._heap), 1)

    def test_pending_count_tracks_cancellations(self):
        k = Kernel()
        events = [k.schedule(i + 1, lambda: None) for i in range(10)]
        assert k.pending_count() == 10
        events[3].cancel()
        events[7].cancel()
        assert k.pending_count() == 8
        events[3].cancel()  # double cancel must not double count
        assert k.pending_count() == 8
        k.run()
        assert k.pending_count() == 0

    def test_cancelled_events_are_pooled_and_reused(self):
        k = Kernel()
        stale = k.schedule(5, lambda: None)
        stale.cancel()
        k.run()  # drains the cancelled entry into the freelist
        assert k._freelist
        fresh = k.schedule(1, lambda: None)
        assert fresh is stale  # recycled object, per the handle-drop contract
        assert not fresh.cancelled and not fresh.fired
        fired = []
        k.schedule(2, fired.append, (2,))
        k.run()
        assert fresh.fired and fired == [(2,)]

    def test_fired_events_are_never_recycled(self):
        k = Kernel()
        done = k.schedule(1, lambda: None)
        k.run()
        assert done.fired
        done.cancel()  # cancel-after-fire is a no-op...
        assert not done.cancelled
        replacement = k.schedule(2, lambda: None)
        assert replacement is not done  # ...and the object is never pooled

    def test_next_event_time_skips_cancelled_heads(self):
        k = Kernel()
        early = k.schedule(1, lambda: None)
        k.schedule(10, lambda: None)
        early.cancel()
        assert k.next_event_time() == 10
        assert k.pending_count() == 1

    def test_compaction_preserves_fire_order(self):
        k = Kernel()
        fired = []
        keepers = []
        for i in range(300):
            event = k.schedule(301 - i, fired.append, 301 - i)
            if i % 3:
                event.cancel()
            else:
                keepers.append(301 - i)
        k.run()
        assert fired == sorted(keepers)
