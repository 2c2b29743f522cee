"""Oscilloscope-style rail sampling.

Used to regenerate the paper's Fig. 4 waveforms: attach a :class:`RailProbe`
to a PSU, trigger a capture window, and read back ``(time_ms, volts)``
samples.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.errors import PowerError
from repro.power.psu import AtxPsu
from repro.sim.kernel import Kernel
from repro.units import MSEC, to_msec


class RailProbe:
    """Samples a PSU output rail at a fixed interval during a capture window.

    Example
    -------
    >>> from repro.sim import Kernel
    >>> k = Kernel()
    >>> psu = AtxPsu(k); psu.mains_on(); psu.set_ps_on(True); k.run()
    >>> probe = RailProbe(k, psu, interval_us=MSEC)
    >>> probe.start_capture(duration_us=5 * MSEC)
    >>> k.run()
    >>> len(probe.samples)
    6
    """

    def __init__(self, kernel: Kernel, psu: AtxPsu, interval_us: int = MSEC) -> None:
        if interval_us <= 0:
            raise PowerError("probe interval must be positive")
        self.kernel = kernel
        self.psu = psu
        self.interval_us = interval_us
        self.samples: List[Tuple[int, float]] = []
        self._remaining = 0
        self._active = False

    def start_capture(self, duration_us: int) -> None:
        """Begin capturing ``duration_us`` of waveform starting now."""
        if duration_us <= 0:
            raise PowerError("capture duration must be positive")
        if self._active:
            raise PowerError("capture already in progress")
        self.samples = []
        self._remaining = duration_us // self.interval_us
        self._active = True
        self._sample()

    def _sample(self) -> None:
        self.samples.append((self.kernel.now, self.psu.voltage()))
        if self._remaining > 0:
            self._remaining -= 1
            self.kernel.schedule(self.interval_us, self._sample)
        else:
            self._active = False

    @property
    def capturing(self) -> bool:
        """True while a capture window is open."""
        return self._active

    # -- analysis helpers (used by the Fig. 4 bench and tests) --------------------

    def waveform_ms(self) -> List[Tuple[float, float]]:
        """Samples as ``(milliseconds since first sample, volts)``."""
        if not self.samples:
            return []
        t0 = self.samples[0][0]
        return [(to_msec(t - t0), v) for t, v in self.samples]

    def time_below(self, volts: float) -> Optional[float]:
        """Milliseconds (from capture start) of the first sample below ``volts``."""
        for t_ms, v in self.waveform_ms():
            if v < volts:
                return t_ms
        return None
