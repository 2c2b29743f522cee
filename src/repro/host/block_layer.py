"""The kernel block layer between applications and the device.

Responsibilities modelled:

- **splitting**: requests larger than :data:`MAX_SEGMENT_PAGES` fan out
  into multiple device commands (sub-requests); the parent completes when
  every child does, and fails if any child fails;
- **queueing**: at most the device's ``queue_depth`` commands are
  outstanding on it (NCQ); excess requests wait in a FIFO dispatch queue;
- **tracing**: every lifecycle step emits a blktrace-style event through an
  attached :class:`~repro.trace.blktrace.BlockTracer`;
- **timeout**: requests stuck longer than the paper's 30 s rule
  (:data:`~repro.trace.btt.DELAYED_REQUEST_TIMEOUT_US`) complete with IO
  error, like the kernel's request timeout.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional
from collections import deque

from repro.errors import ProtocolError
from repro.sim.kernel import Event, Kernel
from repro.ssd.command import CommandStatus, IoCommand
from repro.ssd.device import SsdDevice
from repro.trace.blktrace import BlockTracer
from repro.trace.btt import DELAYED_REQUEST_TIMEOUT_US
from repro.trace.events import Action

MAX_SEGMENT_PAGES = 128
"""Largest device command in 4 KiB pages: 512 KiB, Linux's ``max_sectors_kb``."""


class RequestState(enum.Enum):
    """Host-visible lifecycle of a block request."""

    QUEUED = "queued"
    DISPATCHED = "dispatched"
    COMPLETED = "completed"
    FAILED = "failed"
    TIMED_OUT = "timed_out"


@dataclass
class BlockRequest:
    """One application-level IO request.

    ``is_write`` requests carry ``tokens`` (one per 4 KiB page); reads get
    their tokens filled on completion.
    """

    lpn: int
    page_count: int
    is_write: bool
    tokens: List[int] = field(default_factory=list)
    on_done: Optional[Callable[["BlockRequest"], None]] = None
    request_id: int = -1
    state: RequestState = RequestState.QUEUED
    queue_time: int = -1
    dispatch_time: int = -1
    complete_time: int = -1
    children: List[IoCommand] = field(default_factory=list)
    _pending_children: int = 0

    def __post_init__(self) -> None:
        if self.page_count <= 0:
            raise ProtocolError("zero-length block request")
        if self.lpn < 0:
            raise ProtocolError("negative LPN")
        if self.is_write and len(self.tokens) != self.page_count:
            raise ProtocolError("write request needs one token per page")

    @property
    def bytes(self) -> int:
        """Request payload size."""
        return self.page_count * 4096

    @property
    def done(self) -> bool:
        """True in any terminal state."""
        return self.state in (
            RequestState.COMPLETED,
            RequestState.FAILED,
            RequestState.TIMED_OUT,
        )

    @property
    def ok(self) -> bool:
        """True when the request completed successfully."""
        return self.state is RequestState.COMPLETED

    @property
    def latency_us(self) -> Optional[int]:
        """Queue-to-completion latency for finished requests."""
        if self.complete_time < 0:
            return None
        return self.complete_time - self.queue_time


class BlockLayer:
    """Splits, queues, dispatches, traces, and times out block requests.

    Example
    -------
    See ``tests/test_host_block_layer.py`` for full scenarios; minimal use::

        layer = BlockLayer(kernel, device, tracer)
        req = BlockRequest(lpn=0, page_count=2, is_write=True, tokens=[1, 2])
        layer.submit(req)
    """

    def __init__(
        self,
        kernel: Kernel,
        device: SsdDevice,
        tracer: Optional[BlockTracer] = None,
    ) -> None:
        self.kernel = kernel
        self.device = device
        self.tracer = tracer
        self.queue_depth = device.config.queue_depth
        self._dispatch_queue: Deque[BlockRequest] = deque()
        self._outstanding = 0
        self._pumping = False
        self._pump_again = False
        self._next_id = 1
        self._timeout_events: Dict[int, Event] = {}
        # Statistics.
        self.submitted = 0
        self.completed = 0
        self.failed = 0
        self.timed_out = 0

    # -- submission ----------------------------------------------------------------

    def submit(self, request: BlockRequest) -> BlockRequest:
        """Enter a request into the block layer (Q event)."""
        request.request_id = self._next_id
        self._next_id += 1
        request.queue_time = self.kernel.now
        request.state = RequestState.QUEUED
        self.submitted += 1
        self._trace(request, Action.QUEUE)
        self._split(request)
        self._trace(request, Action.GET_REQUEST)
        self._timeout_events[request.request_id] = self.kernel.schedule(
            DELAYED_REQUEST_TIMEOUT_US, self._timeout_fired, request
        )
        self._dispatch_queue.append(request)
        self._pump()
        return request

    def _split(self, request: BlockRequest) -> None:
        """Fan a request out into device-sized sub-commands (X events)."""
        offset = 0
        while offset < request.page_count:
            take = min(MAX_SEGMENT_PAGES, request.page_count - offset)
            if request.is_write:
                child = IoCommand.write(
                    request.lpn + offset,
                    request.tokens[offset : offset + take],
                )
            else:
                child = IoCommand.read(request.lpn + offset, take)
            child.tag = request.request_id
            child.on_complete = self._child_done(request)
            request.children.append(child)
            offset += take
        request._pending_children = len(request.children)
        if len(request.children) > 1:
            self._trace(request, Action.SPLIT)

    # -- dispatch ------------------------------------------------------------------

    def _pump(self) -> None:
        # device.submit can complete a command synchronously (device off),
        # which re-enters _pump through the completion callback; the guard
        # collapses that recursion into one loop.
        if self._pumping:
            self._pump_again = True
            return
        self._pumping = True
        try:
            self._pump_again = True
            while self._pump_again:
                self._pump_again = False
                self._pump_once()
        finally:
            self._pumping = False

    def _pump_once(self) -> None:
        while self._dispatch_queue and self._outstanding < self.queue_depth:
            head = self._dispatch_queue[0]
            if head.done:  # timed out while waiting
                self._dispatch_queue.popleft()
                continue
            remaining = [c for c in head.children if c.status is CommandStatus.PENDING and c.submit_time < 0]
            if not remaining:
                self._dispatch_queue.popleft()
                continue
            budget = self.queue_depth - self._outstanding
            for child in remaining[:budget]:
                self._outstanding += 1
                if head.state is RequestState.QUEUED:
                    head.state = RequestState.DISPATCHED
                    head.dispatch_time = self.kernel.now
                    self._trace(head, Action.ISSUE)
                self.device.submit(child)
            if all(
                c.submit_time >= 0 or c.status is not CommandStatus.PENDING
                for c in head.children
            ):
                self._dispatch_queue.popleft()

    def _child_done(self, request: BlockRequest) -> Callable[[IoCommand], None]:
        def on_complete(command: IoCommand) -> None:
            if command.submit_time >= 0:
                self._outstanding = max(0, self._outstanding - 1)
            request._pending_children -= 1
            if request._pending_children <= 0 and not request.done:
                self._finish(request)
            self._pump()

        return on_complete

    def _finish(self, request: BlockRequest) -> None:
        request.complete_time = self.kernel.now
        failed = any(c.status is not CommandStatus.OK for c in request.children)
        if failed:
            request.state = RequestState.FAILED
            self.failed += 1
            self._trace(request, Action.COMPLETE_ERROR)
        else:
            request.state = RequestState.COMPLETED
            self.completed += 1
            if not request.is_write:
                request.tokens = [
                    token for child in request.children for token in child.tokens
                ]
            self._trace(request, Action.COMPLETE)
        timeout = self._timeout_events.pop(request.request_id, None)
        if timeout is not None:
            timeout.cancel()
        if request.on_done is not None:
            request.on_done(request)

    def _timeout_fired(self, request: BlockRequest) -> None:
        self._timeout_events.pop(request.request_id, None)
        if request.done:
            return
        request.state = RequestState.TIMED_OUT
        request.complete_time = self.kernel.now
        self.timed_out += 1
        self._trace(request, Action.COMPLETE_ERROR)
        if request.on_done is not None:
            request.on_done(request)

    # -- power-fault housekeeping -----------------------------------------------------

    def flush_queue_as_errors(self) -> int:
        """Fail everything still queued (used between fault cycles).

        Device-side commands already got IO errors at detach; this clears
        host-side requests that never dispatched.  Returns how many failed.
        """
        count = 0
        while self._dispatch_queue:
            request = self._dispatch_queue.popleft()
            if request.done:
                continue
            request.state = RequestState.FAILED
            request.complete_time = self.kernel.now
            self.failed += 1
            self._trace(request, Action.COMPLETE_ERROR)
            timeout = self._timeout_events.pop(request.request_id, None)
            if timeout is not None:
                timeout.cancel()
            if request.on_done is not None:
                request.on_done(request)
            count += 1
        self._outstanding = 0
        return count

    @property
    def backlog(self) -> int:
        """Requests waiting to dispatch."""
        return len(self._dispatch_queue)

    # -- tracing --------------------------------------------------------------------

    def _trace(self, request: BlockRequest, action: Action) -> None:
        if self.tracer is not None:
            self.tracer.record(
                action=action,
                request_id=request.request_id,
                lpn=request.lpn,
                page_count=request.page_count,
                is_write=request.is_write,
            )
