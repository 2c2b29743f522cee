"""Tests for generator-based processes, signals, and killing a process."""

import pytest

from repro.errors import SimulationError
from repro.sim import Kernel, Process, Signal


class TestBasicProcess:
    def test_sequential_delays(self):
        k = Kernel()
        log = []

        def worker():
            log.append(k.now)
            yield 100
            log.append(k.now)
            yield 50
            log.append(k.now)

        Process(k, worker())
        k.run()
        assert log == [0, 100, 150]

    def test_result_captured(self):
        k = Kernel()

        def worker():
            yield 10
            return "done"

        p = Process(k, worker())
        k.run()
        assert not p.alive
        assert p.result == "done"

    def test_done_signal_fires(self):
        k = Kernel()
        observed = []

        def worker():
            yield 10

        def watcher(proc):
            payload = yield proc.done_signal
            observed.append((k.now, payload))

        p = Process(k, worker())
        Process(k, watcher(p))
        k.run()
        assert observed == [(10, None)]

    def test_negative_yield_crashes(self):
        k = Kernel()

        def worker():
            yield -5

        Process(k, worker())
        with pytest.raises(SimulationError):
            k.run()

    def test_bad_yield_type_crashes(self):
        k = Kernel()

        def worker():
            yield "nope"

        Process(k, worker())
        with pytest.raises(SimulationError):
            k.run()


class TestSignals:
    def test_signal_wakes_all_waiters(self):
        k = Kernel()
        sig = Signal("go")
        woken = []

        def waiter(tag):
            payload = yield sig
            woken.append((tag, payload, k.now))

        Process(k, waiter("a"))
        Process(k, waiter("b"))
        k.schedule(40, sig.fire, "payload")
        k.run()
        assert woken == [("a", "payload", 40), ("b", "payload", 40)]

    def test_fire_returns_waiter_count(self):
        k = Kernel()
        sig = Signal()

        def waiter():
            yield sig

        Process(k, waiter())
        k.run()
        assert sig.waiter_count() == 1
        assert sig.fire() == 1
        assert sig.waiter_count() == 0

    def test_fire_with_no_waiters_is_noop(self):
        sig = Signal()
        assert sig.fire() == 0


class TestInterruption:
    def test_kill_stops_without_running_body(self):
        k = Kernel()
        log = []

        def worker():
            yield 1_000
            log.append("never")

        p = Process(k, worker())
        k.run(until=10)
        p.kill()
        k.run()
        assert log == []
        assert not p.alive

    def test_kill_unparks_a_signal_waiter(self):
        k = Kernel()
        sig = Signal()
        log = []

        def worker():
            yield sig
            log.append("never")

        p = Process(k, worker())
        k.run()
        assert sig.waiter_count() == 1
        p.kill()
        assert sig.waiter_count() == 0
        assert sig.fire() == 0
        assert log == []
        assert not p.alive
