"""The discrete-event loop.

The kernel keeps a binary heap of ``(time, sequence, Event)`` entries.  The
monotonically increasing sequence number makes ordering of same-time events
deterministic (FIFO in scheduling order), which matters for reproducibility
of fault-injection campaigns.

Cancellation is lazy (a cancelled event stays in the heap and is skipped when
it surfaces), but the kernel tracks how many cancelled events the heap is
carrying and compacts it once they outnumber the pending ones, so
far-future timers cancelled long before they are due (the map journal's
commit timer and a device's init timer at a power fault, a drained block
layer's 30 s timeout timer) cannot pile up and be dragged through every
sift.  Cancelled events that leave the heap are pooled on a freelist and
reused by :meth:`Kernel.schedule`.

Handle-retention contract: an :class:`Event` handle is only meaningful until
it fires or until you cancel it.  After calling :meth:`Event.cancel`, drop
the reference — the kernel recycles cancelled ``Event`` objects, so a stale
handle may later alias a completely different scheduled callback.  (Fired
events are never recycled, so cancelling an already-fired handle — as the
PSU does when clearing its pending list — remains a safe no-op.)
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional, Tuple, Type

from repro.errors import SimulationError

_COMPACT_MIN_HEAP = 64
"""Never bother compacting heaps smaller than this (re-sifting is cheap)."""

_FREELIST_MAX = 4096
"""Upper bound on pooled Event objects (churn beyond this just allocates)."""


class Event:
    """A scheduled callback.  Returned by :meth:`Kernel.schedule`.

    Events may be cancelled before they fire; a cancelled event stays in the
    heap but is skipped by the loop (lazy deletion).  See the module
    docstring for the handle-retention contract.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "fired", "_kernel")

    def __init__(
        self,
        time: int,
        seq: int,
        callback: Callable[..., Any],
        args: tuple,
        kernel: "Optional[Kernel]" = None,
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.fired = False
        self._kernel = kernel

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent; no-op if already fired."""
        if self.cancelled or self.fired:
            return
        self.cancelled = True
        if self._kernel is not None:
            self._kernel._note_cancelled()

    @property
    def pending(self) -> bool:
        """True while the event is still going to fire."""
        return not self.cancelled and not self.fired

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else ("fired" if self.fired else "pending")
        return f"<Event t={self.time} seq={self.seq} {state} {self.callback!r}>"


class Kernel:
    """Discrete-event loop with integer-microsecond time.

    Example
    -------
    >>> k = Kernel()
    >>> out = []
    >>> _ = k.schedule(10, out.append, "a")
    >>> _ = k.schedule(5, out.append, "b")
    >>> k.run()
    >>> out
    ['b', 'a']
    >>> k.now
    10
    """

    def __init__(self) -> None:
        self._now = 0
        self._heap: List[Tuple[int, int, Event]] = []
        self._seq = 0
        self._running = False
        self._stopped = False
        self._cancelled_pending = 0
        self._freelist: List[Event] = []

    # -- time ---------------------------------------------------------------

    @property
    def now(self) -> int:
        """Current simulation time in microseconds."""
        return self._now

    # -- scheduling ----------------------------------------------------------

    def schedule(self, delay: int, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` µs from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay} us in the past")
        return self.schedule_at(self._now + int(delay), callback, *args)

    def schedule_at(self, time: int, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``callback(*args)`` at absolute time ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time} (now is t={self._now})"
            )
        if self._freelist:
            event = self._freelist.pop()
            event.time = int(time)
            event.seq = self._seq
            event.callback = callback
            event.args = args
            event.cancelled = False
            event.fired = False
        else:
            event = Event(int(time), self._seq, callback, args, self)
        self._seq += 1
        heapq.heappush(self._heap, (event.time, event.seq, event))
        return event

    # -- cancellation bookkeeping ---------------------------------------------

    def _note_cancelled(self) -> None:
        """A pending in-heap event was just cancelled; compact when stale
        entries outnumber live ones."""
        self._cancelled_pending += 1
        if (
            len(self._heap) > _COMPACT_MIN_HEAP
            and self._cancelled_pending * 2 > len(self._heap)
        ):
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap with only pending events (drops cancelled ones)."""
        pending = []
        for entry in self._heap:
            if entry[2].cancelled:
                self._recycle(entry[2])
            else:
                pending.append(entry)
        heapq.heapify(pending)
        self._heap = pending
        self._cancelled_pending = 0

    def _recycle(self, event: Event) -> None:
        """Pool a cancelled event that left the heap for reuse by schedule().

        Only cancelled events are ever pooled: fired handles may still be
        held (and re-cancelled) by callers, so they are never reused.
        """
        event.callback = None  # type: ignore[assignment]
        event.args = ()
        if len(self._freelist) < _FREELIST_MAX:
            self._freelist.append(event)

    # -- execution -----------------------------------------------------------

    def step(self) -> bool:
        """Fire the single next pending event.  Returns False if none remain."""
        while self._heap:
            event = heapq.heappop(self._heap)[2]
            if event.cancelled:
                self._cancelled_pending -= 1
                self._recycle(event)
                continue
            self._now = event.time
            event.fired = True
            event.callback(*event.args)
            return True
        return False

    def run(self, until: Optional[int] = None) -> None:
        """Run events in order.

        With ``until`` set, runs every event with ``time <= until`` and then
        advances the clock to exactly ``until`` (even if idle).  Without it,
        runs until the heap drains or :meth:`stop` is called.
        """
        if self._running:
            raise SimulationError("kernel.run() is not re-entrant")
        self._running = True
        self._stopped = False
        try:
            while self._heap and not self._stopped:
                head = self._heap[0][2]
                if head.cancelled:
                    heapq.heappop(self._heap)
                    self._cancelled_pending -= 1
                    self._recycle(head)
                    continue
                if until is not None and head.time > until:
                    break
                heapq.heappop(self._heap)
                self._now = head.time
                head.fired = True
                head.callback(*head.args)
            if until is not None and not self._stopped and until > self._now:
                self._now = until
        finally:
            self._running = False

    def run_for(self, duration: int) -> None:
        """Convenience wrapper: run for ``duration`` µs of simulated time."""
        if duration < 0:
            raise SimulationError("duration must be non-negative")
        self.run(until=self._now + duration)

    def stop(self) -> None:
        """Request the current :meth:`run` call to return after this event."""
        self._stopped = True

    def pump_until(
        self,
        done: Callable[[], bool],
        timeout_us: int,
        what: str,
        error: Type[Exception] = SimulationError,
    ) -> None:
        """Run events one instant at a time until ``done()`` holds.

        Raises ``error`` when ``timeout_us`` of simulated time pass first, or
        when the heap drains with ``done()`` still false; ``what`` names the
        awaited condition in the message.
        """
        deadline = self._now + timeout_us
        while not done():
            if self._now >= deadline:
                raise error(f"timed out waiting for {what}")
            next_event = self.next_event_time()
            if next_event is None:
                raise error(f"simulation went idle waiting for {what}")
            self.run(until=min(next_event, deadline))

    # -- introspection --------------------------------------------------------

    def pending_count(self) -> int:
        """Number of not-yet-cancelled events still in the heap."""
        return len(self._heap) - self._cancelled_pending

    def next_event_time(self) -> Optional[int]:
        """Time of the next pending event, or None when idle.

        Pops cancelled events off the heap top as a side effect, so the
        common poll-then-run loop stays O(1) amortised instead of sorting
        the whole heap per call.
        """
        heap = self._heap
        while heap:
            head = heap[0][2]
            if not head.cancelled:
                return head.time
            heapq.heappop(heap)
            self._cancelled_pending -= 1
            self._recycle(head)
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Kernel t={self._now} pending={self.pending_count()}>"
