"""The fault Scheduler (paper Fig. 1, software part).

"It determines the random time instances in which power failure will be
occurred.  It sends On/Off Commands to the hardware part ..." — the class
below draws those instants, fires the Off command through the
:class:`~repro.power.controller.PowerController` (serial -> Arduino -> ATX),
and arranges restoration after the rail has fully discharged.
"""

from __future__ import annotations

from random import Random
from typing import List, Optional

from repro.core import calibration
from repro.errors import CampaignError
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

    def schedule_injection(self, delay_us: Optional[int] = None) -> int:
        """Arrange a fault ``delay_us`` from now (drawn if omitted).

        Returns the absolute injection time.
        """
        if delay_us is None:
            delay_us = self.draw_fault_delay()
        if delay_us < 0:
            raise CampaignError("fault delay must be non-negative")
        at = self.kernel.now + delay_us
        self.power.schedule_off(delay_us, note=lambda: self.injections.append(at))
        return at

    def schedule_restore(self, delay_us: int = calibration.RECOVERY_SETTLE_US) -> None:
        """Arrange the On command after the rail has settled."""
        self.power.schedule_on(delay_us)

    @property
    def fault_count(self) -> int:
        """Faults injected so far."""
        return len(self.injections)
