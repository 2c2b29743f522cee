"""The event collector (blktrace stand-in).

An in-memory buffer of :class:`~repro.trace.events.TraceEvent` records.
Campaigns reset the collector at each fault-cycle boundary, exactly as the
paper re-runs blktrace per injection.
"""

from __future__ import annotations

from typing import Callable, Iterator, List

from repro.sim.kernel import Kernel
from repro.trace.events import Action, TraceEvent


class BlockTracer:
    """Collects block-layer events.

    Example
    -------
    >>> from repro.sim import Kernel
    >>> tracer = BlockTracer(Kernel())
    >>> event = tracer.record(Action.QUEUE, request_id=1, lpn=0, page_count=1, is_write=True)
    >>> event.sequence, event.rwbs, event.sector
    (0, 'W', 0)
    >>> tracer.event_count
    1
    """

    def __init__(self, kernel: Kernel) -> None:
        self.kernel = kernel
        self._events: List[TraceEvent] = []
        self._sequence = 0
        self._sinks: List[Callable[[TraceEvent], None]] = []

    def add_sink(self, sink: Callable[[TraceEvent], None]) -> None:
        """Stream events to a live consumer as they are recorded."""
        self._sinks.append(sink)

    def record(
        self,
        action: Action,
        request_id: int,
        lpn: int,
        page_count: int,
        is_write: bool,
    ) -> TraceEvent:
        """Append one event at the current simulation time."""
        event = TraceEvent(
            self._sequence, self.kernel.now, action, request_id, lpn, page_count, is_write
        )
        self._sequence += 1
        self._events.append(event)
        for sink in self._sinks:
            sink(event)
        return event

    # -- access -------------------------------------------------------------------

    @property
    def event_count(self) -> int:
        """Events currently buffered."""
        return len(self._events)

    def events(self) -> Iterator[TraceEvent]:
        """Iterate buffered events in record order."""
        return iter(self._events)

    def events_for(self, request_id: int) -> List[TraceEvent]:
        """All buffered events of one request."""
        return [e for e in self._events if e.request_id == request_id]

    def reset(self) -> int:
        """Drop the buffer (per-injection restart).  Returns events dropped."""
        count = len(self._events)
        self._events.clear()
        return count
