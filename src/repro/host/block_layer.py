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
  error, like the kernel's request timeout.  Every deadline is queue time
  plus the same 30 s, so submit order is deadline order, and one kernel
  event per layer, armed at the oldest unfinished request's deadline,
  serves them all.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, Deque, Dict, List, Optional

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
    _dispatched_children: int = 0
    _child_failed: bool = False

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
        # Unfinished requests by id, in submit order, which is deadline
        # order; the one timeout timer is armed while any is unfinished, at
        # or before the oldest one's deadline.
        self._unfinished: Dict[int, BlockRequest] = {}
        self._timer: Optional[Event] = None
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
        self._unfinished[request.request_id] = request
        if self._timer is None:
            self._timer = self.kernel.schedule(
                DELAYED_REQUEST_TIMEOUT_US, self._timer_fired
            )
        self._dispatch_queue.append(request)
        self._pump()
        return request

    def _split(self, request: BlockRequest) -> None:
        """Fan a request out into device-sized sub-commands (X events)."""
        on_complete = self._child_done
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
            child.on_complete = on_complete
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
        queue = self._dispatch_queue
        while queue and self._outstanding < self.queue_depth:
            head = queue[0]
            if head.done:  # timed out while waiting
                queue.popleft()
                continue
            # Children before the cursor are on the device; submit the next
            # ones the queue depth allows, and pop the head once all are.
            children = head.children
            first = head._dispatched_children
            last = min(len(children), first + self.queue_depth - self._outstanding)
            head._dispatched_children = last
            if head.state is RequestState.QUEUED:
                head.state = RequestState.DISPATCHED
                head.dispatch_time = self.kernel.now
                self._trace(head, Action.ISSUE)
            if last == len(children):
                queue.popleft()
            for child in children[first:last]:
                self._outstanding += 1
                self.device.submit(child)

    def _child_done(self, command: IoCommand) -> None:
        if command.submit_time >= 0:
            self._outstanding = max(0, self._outstanding - 1)
        request = self._unfinished.get(command.tag)
        if request is not None:
            if command.status is not CommandStatus.OK:
                request._child_failed = True
            request._pending_children -= 1
            if request._pending_children <= 0:
                self._finish(request)
        self._pump()

    def _finish(self, request: BlockRequest) -> None:
        request.complete_time = self.kernel.now
        if request._child_failed:
            request.state = RequestState.FAILED
            self.failed += 1
            self._trace(request, Action.COMPLETE_ERROR)
        else:
            request.state = RequestState.COMPLETED
            self.completed += 1
            if not request.is_write:
                request.tokens = list(
                    chain.from_iterable(child.tokens for child in request.children)
                )
            self._trace(request, Action.COMPLETE)
        self._retire(request)
        if request.on_done is not None:
            request.on_done(request)

    # -- the 30 s rule ----------------------------------------------------------------

    def _retire(self, request: BlockRequest) -> None:
        """Forget a request that reached a terminal state.

        Once no request is unfinished the timer is cancelled, so a drained
        layer leaves nothing in the kernel's heap.
        """
        del self._unfinished[request.request_id]
        if not self._unfinished and self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _timer_fired(self) -> None:
        """Time out every request that is due, then re-arm for the next.

        The timer may have been armed for a request that has since
        finished; then nothing is due and it only re-arms.
        """
        now = self.kernel.now
        due: List[BlockRequest] = []
        self._timer = None
        for request in self._unfinished.values():
            deadline = request.queue_time + DELAYED_REQUEST_TIMEOUT_US
            if deadline > now:
                self._timer = self.kernel.schedule_at(deadline, self._timer_fired)
                break
            due.append(request)
        for request in due:
            if request.done:  # failed by an earlier request's on_done
                continue
            request.state = RequestState.TIMED_OUT
            request.complete_time = now
            self.timed_out += 1
            self._trace(request, Action.COMPLETE_ERROR)
            self._retire(request)
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
            self._retire(request)
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
                action,
                request.request_id,
                request.lpn,
                request.page_count,
                request.is_write,
            )
