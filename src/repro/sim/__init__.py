"""Discrete-event simulation kernel.

A minimal core used by every substrate in the testbed.  Time is an integer
number of microseconds (see :mod:`repro.units`).

Public surface:

- :class:`~repro.sim.kernel.Kernel` — the event loop, and
  :meth:`~repro.sim.kernel.Kernel.pump_until`, the run-until-a-condition
  loop every blocking host-side helper uses.
- :class:`~repro.sim.kernel.Event` — cancellable scheduled callback.
- :class:`~repro.sim.process.Process` — generator-based cooperative process.
- :class:`~repro.sim.process.Signal` — broadcast wake-up primitive.
"""

from repro.sim.kernel import Event, Kernel
from repro.sim.process import Process, Signal

__all__ = ["Kernel", "Event", "Process", "Signal"]
