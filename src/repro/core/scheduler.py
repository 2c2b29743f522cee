"""The fault Scheduler (paper Fig. 1, software part).

"It determines the random time instances in which power failure will be
occurred.  It sends On/Off Commands to the hardware part ..." — the class
below draws those instants and fires the Off command through the
:class:`~repro.power.controller.PowerController` (serial -> Arduino -> ATX);
the campaign restores power once the rail has fully discharged.
"""

from __future__ import annotations

from random import Random
from typing import List

from repro.core import calibration
from repro.power.controller import PowerController
from repro.sim.kernel import Kernel


class FaultScheduler:
    """Draws fault instants and drives the power-control chain.

    Example
    -------
    >>> from repro.sim import Kernel
    >>> from repro.power import PowerController
    >>> from random import Random
    >>> k = Kernel()
    >>> sched = FaultScheduler(k, PowerController(k), Random(3))
    >>> delay = sched.draw_fault_delay()
    >>> calibration.CYCLE_MIN_US <= delay <= calibration.CYCLE_MAX_US
    True
    """

    def __init__(self, kernel: Kernel, power: PowerController, rng: Random) -> None:
        self.kernel = kernel
        self.power = power
        self.rng = rng
        self.injections: List[int] = []

    def draw_fault_delay(self) -> int:
        """Uniform random fault instant within the cycle window."""
        return self.rng.randint(calibration.CYCLE_MIN_US, calibration.CYCLE_MAX_US)

    def inject_now(self) -> int:
        """Send the Off command immediately.  Returns the injection time."""
        self.power.power_off()
        self.injections.append(self.kernel.now)
        return self.kernel.now
