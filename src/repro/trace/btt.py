"""Per-IO reassembly — the paper's *modified btt*.

The stock ``btt --per-io-dump`` prints per-IO traces; the paper extended it
to (a) reassemble requests split into sub-requests in the block layer,
(b) expose timing and addressing in a machine-readable layout, and (c) flag
requests as complete/incomplete, treating anything pending longer than 30 s
as failed.  :class:`Btt` does the same over a :class:`~repro.trace.blktrace.
BlockTracer` buffer, producing the ``completed`` flag the Analyzer's failure
taxonomy (§III-B) starts from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import TraceError
from repro.trace.blktrace import BlockTracer
from repro.trace.events import Action, TraceEvent
from repro.units import SEC

DELAYED_REQUEST_TIMEOUT_US = 30 * SEC
"""The paper's 30-second rule for requests that never complete."""


@dataclass
class PerIoRecord:
    """Reassembled view of one request (one row of the per-IO dump)."""

    request_id: int
    lpn: int = -1
    page_count: int = 0
    is_write: bool = False
    queue_time: Optional[int] = None
    issue_time: Optional[int] = None
    complete_time: Optional[int] = None
    error_time: Optional[int] = None
    split: bool = False
    events: List[TraceEvent] = field(default_factory=list)

    @property
    def completed(self) -> bool:
        """The paper's ``completed`` flag: all sub-requests finished OK."""
        return self.complete_time is not None

    @property
    def errored(self) -> bool:
        """Completed with error (device unavailable / timeout)."""
        return self.error_time is not None

    def incomplete_at(self, now: int) -> bool:
        """Neither completed nor errored — pending or silently lost."""
        return not self.completed and not self.errored

    def delayed(self, now: int) -> bool:
        """Pending beyond the 30 s rule -> treated as failed."""
        if self.completed or self.errored or self.queue_time is None:
            return False
        return now - self.queue_time > DELAYED_REQUEST_TIMEOUT_US

    @property
    def queue_to_complete_us(self) -> Optional[int]:
        """Q-to-C latency when available (btt's Q2C)."""
        if self.queue_time is None or self.complete_time is None:
            return None
        return self.complete_time - self.queue_time

    @property
    def dispatch_to_complete_us(self) -> Optional[int]:
        """D-to-C latency when available (btt's D2C)."""
        if self.issue_time is None or self.complete_time is None:
            return None
        return self.complete_time - self.issue_time


class Btt:
    """Post-processor turning a trace buffer into per-IO records."""

    def __init__(self, tracer: BlockTracer) -> None:
        self.tracer = tracer

    def per_io_dump(self) -> Dict[int, PerIoRecord]:
        """Reassemble every request seen in the buffer."""
        records: Dict[int, PerIoRecord] = {}
        for event in self.tracer.events():
            record = records.get(event.request_id)
            if record is None:
                record = PerIoRecord(request_id=event.request_id)
                records[event.request_id] = record
            record.events.append(event)
            if event.action is Action.QUEUE:
                record.queue_time = event.time_us
                record.lpn = event.lpn
                record.page_count = event.page_count
                record.is_write = event.is_write
            elif event.action is Action.SPLIT:
                record.split = True
            elif event.action is Action.ISSUE:
                record.issue_time = event.time_us
            elif event.action is Action.COMPLETE:
                record.complete_time = event.time_us
            elif event.action is Action.COMPLETE_ERROR:
                record.error_time = event.time_us
        return records

    def record_for(self, request_id: int) -> PerIoRecord:
        """Per-IO record of one request."""
        records = self.per_io_dump()
        if request_id not in records:
            raise TraceError(f"request {request_id} not in trace")
        return records[request_id]

    def completed_ids(self) -> List[int]:
        """Requests whose ``completed`` flag is set."""
        return [rid for rid, rec in self.per_io_dump().items() if rec.completed]

    def summary(self, now: int) -> Dict[str, int]:
        """Aggregate counts (btt's bottom table)."""
        records = self.per_io_dump()
        return {
            "requests": len(records),
            "completed": sum(1 for r in records.values() if r.completed),
            "errored": sum(1 for r in records.values() if r.errored),
            "split": sum(1 for r in records.values() if r.split),
            "pending": sum(1 for r in records.values() if r.incomplete_at(now)),
        }

    # -- latency analysis (btt's Q2C / D2C tables) -----------------------------------

    def latency_stats(self, phase: str = "q2c") -> Dict[str, float]:
        """Min/avg/percentile/max of a latency phase over completed IOs.

        ``phase`` is ``"q2c"`` (queue to complete) or ``"d2c"`` (dispatch to
        complete), matching btt's headline tables.  Returns zeros when no
        completed request carries the phase.
        """
        if phase not in ("q2c", "d2c"):
            raise TraceError(f"unknown latency phase {phase!r}")
        samples = []
        for record in self.per_io_dump().values():
            value = (
                record.queue_to_complete_us
                if phase == "q2c"
                else record.dispatch_to_complete_us
            )
            if value is not None:
                samples.append(value)
        if not samples:
            return {"count": 0, "min": 0.0, "avg": 0.0, "p50": 0.0, "p95": 0.0, "max": 0.0}
        samples.sort()

        def percentile(fraction: float) -> float:
            index = min(len(samples) - 1, int(fraction * len(samples)))
            return float(samples[index])

        return {
            "count": len(samples),
            "min": float(samples[0]),
            "avg": sum(samples) / len(samples),
            "p50": percentile(0.50),
            "p95": percentile(0.95),
            "max": float(samples[-1]),
        }

    def latency_histogram(self, phase: str = "q2c", bucket_us: int = 100) -> Dict[int, int]:
        """Latency histogram: bucket lower bound (µs) -> IO count."""
        if bucket_us <= 0:
            raise TraceError("bucket width must be positive")
        histogram: Dict[int, int] = {}
        for record in self.per_io_dump().values():
            value = (
                record.queue_to_complete_us
                if phase == "q2c"
                else record.dispatch_to_complete_us
            )
            if value is None:
                continue
            bucket = (value // bucket_us) * bucket_us
            histogram[bucket] = histogram.get(bucket, 0) + 1
        return dict(sorted(histogram.items()))
