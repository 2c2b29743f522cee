"""ATX connector / ``PS_ON#`` pin logic.

Pin 16 of the 24-pin ATX connector is *active low*: pulling it to ground
turns the supply's main outputs on; applying +5 V (or letting it float high)
turns them off.  The paper wires Arduino digital pin 13 straight to this pin,
so writing ``1`` from the microcontroller **cuts** power and ``0`` restores
it — the inversion lives here, exactly as in the real harness (Fig. 3).
"""

from __future__ import annotations

from repro.errors import PowerError
from repro.power.psu import AtxPsu

PS_ON_PIN = 16
"""ATX connector pin number carrying PS_ON# (active low)."""

STANDBY_5V_PIN = 9
"""ATX connector pin carrying the always-on 5 VSB rail."""

GROUND_PIN = 15
"""One of the ATX ground pins referenced in the paper's wiring diagram."""

LOGIC_HIGH_THRESHOLD = 2.0
"""Input voltage above which the controller reads a logic high."""


class AtxController:
    """The PSU-side controller sampling the ``PS_ON#`` pin.

    Example
    -------
    >>> from repro.sim import Kernel
    >>> k = Kernel()
    >>> psu = AtxPsu(k); psu.mains_on()
    >>> ctl = AtxController(k, psu)
    >>> ctl.drive_ps_on_pin(0.0)   # grounded -> outputs on
    >>> k.run(); psu.output_enabled
    True
    >>> ctl.drive_ps_on_pin(5.0)   # +5 V -> outputs cut
    >>> psu.output_enabled
    False
    """

    def __init__(self, kernel, psu: AtxPsu) -> None:
        self.kernel = kernel
        self.psu = psu
        self._pin_volts = 5.0  # floats high via internal pull-up: outputs off
        self.transitions = 0

    def drive_ps_on_pin(self, volts: float) -> None:
        """Apply ``volts`` to pin 16 and update the supply accordingly."""
        if volts < 0 or volts > 5.5:
            raise PowerError(f"PS_ON# pin driven outside 0..5.5 V: {volts}")
        was_high = self._pin_volts > LOGIC_HIGH_THRESHOLD
        self._pin_volts = volts
        is_high = volts > LOGIC_HIGH_THRESHOLD
        if was_high == is_high:
            return
        self.transitions += 1
        # Active low: logic low  -> enable outputs; logic high -> disable.
        self.psu.set_ps_on(active=not is_high)

    def standby_rail_volts(self) -> float:
        """The 5 VSB rail (pin 9): present whenever mains is applied."""
        from repro.power.psu import PsuState

        return 5.0 if self.psu.state is not PsuState.MAINS_OFF else 0.0
