"""Generator-based cooperative processes on top of the event kernel.

Device models are much easier to read as sequential code ("take a batch,
wait for the flash, commit, ...") than as chains of callbacks.  A
:class:`Process` wraps a generator; the generator *yields* either

- an ``int`` — sleep that many microseconds, or
- a :class:`Signal` — park until the signal fires.

A power loss ends a process with :meth:`Process.kill`, which closes the
generator without running any more of its body; the device resolves the
work the process had in flight itself.
"""

from __future__ import annotations

from typing import Any, Generator, List, Optional

from repro.errors import SimulationError
from repro.sim.kernel import Event, Kernel


class Signal:
    """A broadcast wake-up primitive.

    Processes yield the signal to park on it; :meth:`fire` wakes all of them
    at the current simulation time.  A payload passed to ``fire`` becomes the
    value of the ``yield`` expression in each waiter.
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._waiters: List["Process"] = []

    def fire(self, payload: Any = None) -> int:
        """Wake every waiter now.  Returns the number of processes woken."""
        waiters, self._waiters = self._waiters, []
        for proc in waiters:
            proc._wake(payload)
        return len(waiters)

    def _park(self, proc: "Process") -> None:
        self._waiters.append(proc)

    def _unpark(self, proc: "Process") -> None:
        try:
            self._waiters.remove(proc)
        except ValueError:
            pass

    def waiter_count(self) -> int:
        """Number of processes currently parked on the signal."""
        return len(self._waiters)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Signal {self.name!r} waiters={len(self._waiters)}>"


class Process:
    """A cooperative process driven by the kernel.

    Example
    -------
    >>> from repro.sim import Kernel
    >>> k = Kernel()
    >>> log = []
    >>> def worker():
    ...     log.append(("start", k.now))
    ...     yield 100
    ...     log.append(("end", k.now))
    >>> p = Process(k, worker())
    >>> k.run()
    >>> log
    [('start', 0), ('end', 100)]
    """

    def __init__(self, kernel: Kernel, generator: Generator, name: str = "") -> None:
        self.kernel = kernel
        self.name = name or getattr(generator, "__name__", "process")
        self._gen = generator
        self.alive = True
        self.result: Any = None
        self.exception: Optional[BaseException] = None
        self._pending_event: Optional[Event] = None
        self._parked_on: Optional[Signal] = None
        self.done_signal = Signal(f"{self.name}.done")
        # Start on the next kernel dispatch at the current time so that a
        # process created inside an event handler begins deterministically.
        self._pending_event = kernel.schedule(0, self._advance, None)

    # -- driving ---------------------------------------------------------------

    def _advance(self, send_value: Any) -> None:
        self._pending_event = None
        self._parked_on = None
        try:
            yielded = self._gen.send(send_value)
        except StopIteration as stop:
            self._finish(result=stop.value)
            return
        if isinstance(yielded, int):
            if yielded < 0:
                self._crash(SimulationError("process yielded a negative delay"))
                return
            self._pending_event = self.kernel.schedule(yielded, self._advance, None)
        elif isinstance(yielded, Signal):
            self._parked_on = yielded
            yielded._park(self)
        else:
            self._crash(
                SimulationError(f"process yielded unsupported value {yielded!r}")
            )

    def _wake(self, payload: Any) -> None:
        if self.alive:
            self._advance(payload)

    def _finish(self, result: Any) -> None:
        self.alive = False
        self.result = result
        self.done_signal.fire(result)

    def _crash(self, exc: BaseException) -> None:
        self.alive = False
        self.exception = exc
        self.done_signal.fire(None)
        raise exc

    # -- public control ----------------------------------------------------------

    def kill(self) -> None:
        """Terminate the process without running any more of its body."""
        if not self.alive:
            return
        if self._pending_event is not None:
            self._pending_event.cancel()
            self._pending_event = None
        if self._parked_on is not None:
            self._parked_on._unpark(self)
            self._parked_on = None
        self._gen.close()
        self._finish(result=None)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "alive" if self.alive else "done"
        return f"<Process {self.name!r} {state}>"
