"""ATX power-supply model with a load-dependent capacitor-discharge phase.

The paper measured the 5 V rail of a real ATX PSU after deasserting
``PS_ON#`` (their Fig. 4):

- with **no load** the rail takes about **1400 ms** to discharge fully;
- with **one SSD attached** it takes about **900 ms**, and the rail crosses
  the SSD's 4.5 V host-detach threshold after roughly **40 ms**.

We reproduce that waveform with a two-phase behavioural model:

1. *hold-up phase* — secondary-side regulation keeps the rail near nominal,
   drooping linearly from 5.0 V to 4.5 V over ``holdup`` µs;
2. *decay phase* — regulation is lost and the bulk capacitors discharge
   through the load, giving an exponential ``4.5 * exp(-(t - holdup)/tau)``.

``holdup`` and ``tau`` shrink as the attached load current grows; the default
coefficients are calibrated so the three numbers above come out of the model
(see :meth:`DischargeProfile.for_load`).  The model is *behavioural* — the
constants are fit to the paper's oscilloscope traces, not derived from
component values.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Protocol

from repro.errors import PowerError
from repro.sim.kernel import Event, Kernel
from repro.units import ATX_5V_RAIL, MSEC


class PsuState(enum.Enum):
    """Operating state of the supply."""

    MAINS_OFF = "mains_off"
    STANDBY = "standby"  # mains present, PS_ON# deasserted, rail discharged
    ON = "on"  # rail regulated at nominal
    DISCHARGING = "discharging"  # PS_ON# deasserted, rail still falling
    CHARGING = "charging"  # PS_ON# asserted, rail rising to nominal


class Load(Protocol):
    """Anything that draws current from the 5 V rail."""

    def current_draw_amps(self) -> float:
        """Instantaneous current draw in amperes."""
        ...


@dataclass(frozen=True)
class DischargeProfile:
    """Waveform parameters for one discharge episode.

    Attributes
    ----------
    holdup_us:
        Duration of the regulated droop from 5.0 V to 4.5 V.
    tau_us:
        Exponential time constant of the post-regulation decay.
    """

    holdup_us: int
    tau_us: int

    # Calibration targets from the paper's Fig. 4 (see module docstring).
    UNLOADED_HOLDUP_US = 150 * MSEC
    UNLOADED_TAU_US = 272 * MSEC
    HOLDUP_LOAD_COEFF = 2.75  # per ampere
    TAU_LOAD_COEFF = 0.43  # per ampere

    @classmethod
    def for_load(cls, load_amps: float) -> "DischargeProfile":
        """Profile for a given total load current.

        ``for_load(0.0)`` fully discharges in ~1400 ms (Fig. 4a);
        ``for_load(1.0)`` (one SSD) crosses 4.5 V at ~40 ms and fully
        discharges in ~900 ms (Fig. 4b).
        """
        if load_amps < 0:
            raise PowerError("load current cannot be negative")
        holdup = cls.UNLOADED_HOLDUP_US / (1.0 + cls.HOLDUP_LOAD_COEFF * load_amps)
        tau = cls.UNLOADED_TAU_US / (1.0 + cls.TAU_LOAD_COEFF * load_amps)
        return cls(holdup_us=round(holdup), tau_us=round(tau))

    # -- waveform ---------------------------------------------------------------

    def voltage_at(self, elapsed_us: int, v_nominal: float = ATX_5V_RAIL) -> float:
        """Rail voltage ``elapsed_us`` after the discharge began."""
        if elapsed_us < 0:
            return v_nominal
        v_knee = 0.9 * v_nominal  # 4.5 V on the 5 V rail
        if elapsed_us <= self.holdup_us:
            if self.holdup_us == 0:
                return v_knee
            droop = (v_nominal - v_knee) * (elapsed_us / self.holdup_us)
            return v_nominal - droop
        decay = math.exp(-(elapsed_us - self.holdup_us) / self.tau_us)
        return v_knee * decay

    def time_to_reach(self, volts: float, v_nominal: float = ATX_5V_RAIL) -> int:
        """Microseconds after discharge start at which the rail hits ``volts``."""
        if volts >= v_nominal:
            return 0
        v_knee = 0.9 * v_nominal
        if volts >= v_knee:
            frac = (v_nominal - volts) / (v_nominal - v_knee)
            return round(self.holdup_us * frac)
        if volts <= 0:
            raise PowerError("exponential decay never reaches 0 V exactly")
        return self.holdup_us + round(self.tau_us * math.log(v_knee / volts))


@dataclass
class _Watcher:
    """A falling- or rising-edge voltage threshold callback registration."""

    volts: float
    falling: Callable[[float], None]
    rising: Optional[Callable[[float], None]]
    armed_event: Optional[Event] = None


class AtxPsu:
    """An ATX PSU with standby logic, PS_ON# control, and discharge physics.

    The supply owns the 5 V rail feeding the device under test.  Components
    interested in rail voltage register *threshold watchers*; when a
    discharge (or recharge) episode starts, the PSU solves the analytic
    waveform for each threshold's crossing time and schedules one kernel
    event per watcher — no polling.

    Example
    -------
    >>> from repro.sim import Kernel
    >>> from repro.units import MSEC
    >>> k = Kernel()
    >>> psu = AtxPsu(k)
    >>> psu.mains_on(); psu.set_ps_on(True); k.run()
    >>> psu.voltage() == 5.0
    True
    """

    V_NOMINAL = ATX_5V_RAIL
    V_FULLY_DISCHARGED = 0.05
    CHARGE_RAMP_US = 10 * MSEC  # rail rise time on power-good, typical ATX

    def __init__(self, kernel: Kernel, name: str = "psu") -> None:
        self.kernel = kernel
        self.name = name
        self.state = PsuState.MAINS_OFF
        self._ps_on = False
        self._loads: List[Load] = []
        self._watchers: List[_Watcher] = []
        self._episode_start: Optional[int] = None  # discharge start time
        self._episode_profile: Optional[DischargeProfile] = None
        self._charge_start: Optional[int] = None
        self._charge_from_volts = 0.0
        self._pending: List[Event] = []
        # Statistics used by tests and the Fig. 4 bench.
        self.discharge_count = 0
        self.power_on_count = 0

    # -- load management ----------------------------------------------------------

    def attach_load(self, load: Load) -> None:
        """Attach a device to the 5 V rail (affects the discharge waveform)."""
        self._loads.append(load)

    def total_load_amps(self) -> float:
        """Sum of instantaneous current draw over all attached loads."""
        return sum(load.current_draw_amps() for load in self._loads)

    # -- threshold watchers ---------------------------------------------------------

    def watch_threshold(
        self,
        volts: float,
        on_falling: Callable[[float], None],
        on_rising: Optional[Callable[[float], None]] = None,
    ) -> None:
        """Register callbacks for the rail crossing ``volts``.

        ``on_falling(volts)`` fires when a discharge episode crosses the
        threshold downward; ``on_rising(volts)`` (optional) fires when a
        recharge crosses it upward.
        """
        if not 0.0 < volts < self.V_NOMINAL:
            raise PowerError(f"threshold {volts} V outside (0, {self.V_NOMINAL})")
        self._watchers.append(_Watcher(volts, on_falling, on_rising))

    # -- control ------------------------------------------------------------------

    def mains_on(self) -> None:
        """Apply mains input; the supply enters standby."""
        if self.state is PsuState.MAINS_OFF:
            self.state = PsuState.STANDBY

    def mains_off(self) -> None:
        """Remove mains input entirely (also deasserts the rail)."""
        if self.state in (PsuState.ON, PsuState.CHARGING):
            self._begin_discharge()
        self.state = PsuState.MAINS_OFF

    def set_ps_on(self, active: bool) -> None:
        """Drive the ``PS_ON#`` function: True turns the rail on.

        (The electrical pin is active-low; :class:`~repro.power.atx.AtxController`
        performs that inversion.  Here ``active=True`` means "output enabled".)
        """
        if self.state is PsuState.MAINS_OFF:
            raise PowerError("PS_ON has no effect without mains input")
        if active == self._ps_on:
            return
        self._ps_on = active
        if active:
            self._begin_charge()
        else:
            self._begin_discharge()

    # -- waveform state ---------------------------------------------------------------

    def voltage(self) -> float:
        """Instantaneous 5 V rail voltage at the current kernel time."""
        now = self.kernel.now
        if self.state is PsuState.ON:
            return self.V_NOMINAL
        if self.state is PsuState.DISCHARGING:
            assert self._episode_profile is not None and self._episode_start is not None
            return self._episode_profile.voltage_at(now - self._episode_start)
        if self.state is PsuState.CHARGING:
            assert self._charge_start is not None
            frac = min(1.0, (now - self._charge_start) / self.CHARGE_RAMP_US)
            return self._charge_from_volts + (self.V_NOMINAL - self._charge_from_volts) * frac
        return 0.0

    def voltage_at(self, time_us: int) -> float:
        """Rail voltage at an instant within the current episode.

        Used by batch bookkeeping that resolves *past* commit instants after
        a power fault: during a discharge episode the analytic waveform is
        evaluated at ``time_us``; outside one the rail was nominal (ON) or
        dead.  ``time_us`` must not predate the current episode.
        """
        if self.state is PsuState.DISCHARGING:
            assert self._episode_profile is not None and self._episode_start is not None
            return self._episode_profile.voltage_at(time_us - self._episode_start)
        if self.state is PsuState.ON:
            return self.V_NOMINAL
        if self.state is PsuState.CHARGING:
            assert self._charge_start is not None
            frac = min(1.0, max(0.0, (time_us - self._charge_start) / self.CHARGE_RAMP_US))
            return self._charge_from_volts + (self.V_NOMINAL - self._charge_from_volts) * frac
        return 0.0

    @property
    def output_enabled(self) -> bool:
        """True when PS_ON requests the rail up."""
        return self._ps_on

    def current_profile(self) -> Optional[DischargeProfile]:
        """The discharge profile of the episode in progress, if any."""
        return self._episode_profile

    # -- internals ------------------------------------------------------------------

    def _cancel_pending(self) -> None:
        for event in self._pending:
            event.cancel()
        self._pending.clear()

    def _begin_discharge(self) -> None:
        if self.state in (PsuState.STANDBY, PsuState.MAINS_OFF):
            return
        self._cancel_pending()
        self.discharge_count += 1
        profile = DischargeProfile.for_load(self.total_load_amps())
        self._episode_profile = profile
        self._episode_start = self.kernel.now
        self.state = PsuState.DISCHARGING
        for watcher in self._watchers:
            delay = profile.time_to_reach(watcher.volts)
            event = self.kernel.schedule(delay, self._fire_falling, watcher)
            self._pending.append(event)
        settle = profile.time_to_reach(self.V_FULLY_DISCHARGED)
        self._pending.append(self.kernel.schedule(settle, self._settle_discharged))

    def _settle_discharged(self) -> None:
        if self.state is PsuState.DISCHARGING:
            self.state = PsuState.STANDBY if not self._ps_on else self.state
            self._episode_profile = None
            self._episode_start = None

    def _begin_charge(self) -> None:
        self._cancel_pending()
        self.power_on_count += 1
        self._charge_from_volts = self.voltage()
        self._charge_start = self.kernel.now
        self._episode_profile = None
        self._episode_start = None
        self.state = PsuState.CHARGING
        span = self.V_NOMINAL - self._charge_from_volts
        for watcher in self._watchers:
            if watcher.rising is None or watcher.volts <= self._charge_from_volts:
                continue
            frac = (watcher.volts - self._charge_from_volts) / span
            delay = round(self.CHARGE_RAMP_US * frac)
            event = self.kernel.schedule(delay, self._fire_rising, watcher)
            self._pending.append(event)
        self._pending.append(self.kernel.schedule(self.CHARGE_RAMP_US, self._settle_on))

    def _settle_on(self) -> None:
        if self.state is PsuState.CHARGING:
            self.state = PsuState.ON

    def _fire_falling(self, watcher: _Watcher) -> None:
        watcher.falling(watcher.volts)

    def _fire_rising(self, watcher: _Watcher) -> None:
        assert watcher.rising is not None
        watcher.rising(watcher.volts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<AtxPsu {self.name!r} {self.state.value} {self.voltage():.2f}V>"


class InstantCutoffPsu(AtxPsu):
    """Baseline injector from prior work (Zheng et al., Tseng et al.).

    Cuts the rail with a high-speed power transistor: the voltage collapses
    in microseconds rather than hundreds of milliseconds.  Used by the
    discharge-ablation bench to show what the realistic waveform changes.
    """

    CUTOFF_US = 50  # "the reported delay is in micro seconds order" (§III-A2)

    def _begin_discharge(self) -> None:
        if self.state in (PsuState.STANDBY, PsuState.MAINS_OFF):
            return
        self._cancel_pending()
        self.discharge_count += 1
        # A near-vertical edge: no regulated hold-up, a ~50 us collapse.
        profile = DischargeProfile(holdup_us=0, tau_us=self.CUTOFF_US)
        self._episode_profile = profile
        self._episode_start = self.kernel.now
        self.state = PsuState.DISCHARGING
        for watcher in self._watchers:
            delay = profile.time_to_reach(watcher.volts)
            event = self.kernel.schedule(delay, self._fire_falling, watcher)
            self._pending.append(event)
        settle = profile.time_to_reach(self.V_FULLY_DISCHARGED)
        self._pending.append(self.kernel.schedule(settle, self._settle_discharged))
