"""Software-facing power-control facade.

Bundles the full actuation chain of the paper's hardware part —

    Scheduler --(serial)--> Arduino UNO --(pin 13)--> ATX PS_ON# --> PSU rail

— behind two methods, :meth:`power_off` and :meth:`power_on`.  The
Scheduler in :mod:`repro.core.scheduler` talks only to this class, never to
the PSU directly, mirroring the paper's strict HW/SW split (Fig. 1).
"""

from __future__ import annotations

from typing import Optional

from repro.power.arduino import CMD_OFF, CMD_ON, Microcontroller
from repro.power.atx import AtxController
from repro.power.psu import AtxPsu, PsuState
from repro.sim.kernel import Kernel


class PowerController:
    """Drives the PSU through the Arduino/ATX chain, as the software part does.

    Parameters
    ----------
    kernel:
        The simulation kernel.
    psu:
        The supply under control.  Pass an
        :class:`~repro.power.psu.InstantCutoffPsu` to emulate prior-work
        transistor platforms for the ablation study.

    Example
    -------
    >>> from repro.sim import Kernel
    >>> k = Kernel()
    >>> pc = PowerController(k)
    >>> pc.power_on(); k.run()
    >>> pc.is_powered
    True
    >>> pc.power_off(); k.run()
    >>> pc.psu.voltage() < 0.1
    True
    """

    def __init__(self, kernel: Kernel, psu: Optional[AtxPsu] = None) -> None:
        self.kernel = kernel
        self.psu = psu if psu is not None else AtxPsu(kernel)
        self.psu.mains_on()
        self.atx = AtxController(kernel, self.psu)
        self.mcu = Microcontroller(kernel)
        self.mcu.attach_pin13(self._pin13_changed)
        self.off_commands_sent = 0
        self.on_commands_sent = 0

    # -- actuation chain ------------------------------------------------------------

    def _pin13_changed(self, high: bool) -> None:
        # Pin 13 HIGH applies +5 V to PS_ON# (pin 16) -> outputs cut.
        self.atx.drive_ps_on_pin(5.0 if high else 0.0)

    def power_on(self) -> None:
        """Send the On command through the serial/firmware chain."""
        self.on_commands_sent += 1
        self.mcu.serial_write(CMD_ON)

    def power_off(self) -> None:
        """Send the Off command: this is the fault-injection trigger."""
        self.off_commands_sent += 1
        self.mcu.serial_write(CMD_OFF)

    # -- state ----------------------------------------------------------------------

    @property
    def is_powered(self) -> bool:
        """True while the rail is regulated at nominal."""
        return self.psu.state is PsuState.ON

    @property
    def rail_volts(self) -> float:
        """Instantaneous rail voltage."""
        return self.psu.voltage()
