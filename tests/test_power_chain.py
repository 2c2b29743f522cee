"""Tests for the Arduino -> ATX -> PSU actuation chain and the rail probe."""

import pytest

from repro.errors import PowerError
from repro.power import (
    AtxController,
    AtxPsu,
    Microcontroller,
    PowerController,
    RailProbe,
)
from repro.power.arduino import CMD_OFF, CMD_ON, serial_frame_time_us
from repro.sim import Kernel
from repro.units import MSEC


class TestMicrocontroller:
    def test_off_command_raises_pin13(self):
        k = Kernel()
        pin = []
        mcu = Microcontroller(k)
        mcu.attach_pin13(pin.append)
        mcu.serial_write(CMD_OFF)
        k.run()
        assert pin == [True]
        assert mcu.pin13_high

    def test_on_command_lowers_pin13(self):
        k = Kernel()
        mcu = Microcontroller(k)
        mcu.serial_write(CMD_OFF)
        k.run()
        mcu.serial_write(CMD_ON)
        k.run()
        assert not mcu.pin13_high
        assert mcu.commands_received == 2

    def test_command_latency_is_serial_plus_firmware(self):
        k = Kernel()
        stamped = []
        mcu = Microcontroller(k)
        mcu.attach_pin13(lambda high: stamped.append(k.now))
        mcu.serial_write(CMD_OFF)
        k.run()
        expected = serial_frame_time_us() + 100
        assert stamped == [expected]

    def test_unknown_bytes_dropped(self):
        k = Kernel()
        mcu = Microcontroller(k)
        mcu.serial_write(b"zz")
        k.run()
        assert mcu.commands_received == 0
        assert mcu.bytes_dropped == 2

    def test_empty_write_rejected(self):
        mcu = Microcontroller(Kernel())
        with pytest.raises(PowerError):
            mcu.serial_write(b"")

    def test_unpowered_mcu_ignores_commands(self):
        k = Kernel()
        mcu = Microcontroller(k)
        mcu.set_powered(False)
        mcu.serial_write(CMD_OFF)
        k.run()
        assert not mcu.pin13_high
        assert mcu.bytes_dropped == 1


class TestAtxController:
    def test_active_low_semantics(self):
        k = Kernel()
        psu = AtxPsu(k)
        psu.mains_on()
        ctl = AtxController(k, psu)
        ctl.drive_ps_on_pin(0.0)
        assert psu.output_enabled
        ctl.drive_ps_on_pin(5.0)
        assert not psu.output_enabled

    def test_no_transition_without_logic_change(self):
        k = Kernel()
        psu = AtxPsu(k)
        psu.mains_on()
        ctl = AtxController(k, psu)
        ctl.drive_ps_on_pin(4.0)
        ctl.drive_ps_on_pin(3.0)  # still logic high
        assert ctl.transitions == 0

    def test_pin_voltage_bounds(self):
        ctl = AtxController(Kernel(), AtxPsu(Kernel()))
        with pytest.raises(PowerError):
            ctl.drive_ps_on_pin(-1.0)
        with pytest.raises(PowerError):
            ctl.drive_ps_on_pin(6.0)

    def test_standby_rail_present_with_mains(self):
        k = Kernel()
        psu = AtxPsu(k)
        ctl = AtxController(k, psu)
        assert ctl.standby_rail_volts() == 0.0
        psu.mains_on()
        assert ctl.standby_rail_volts() == 5.0


class TestPowerController:
    def test_full_chain_power_cycle(self):
        k = Kernel()
        pc = PowerController(k)
        pc.power_on()
        k.run()
        assert pc.is_powered
        pc.power_off()
        k.run()
        assert not pc.is_powered
        assert pc.rail_volts < 0.1


class TestRailProbe:
    def test_capture_records_discharge_shape(self):
        k = Kernel()
        pc = PowerController(k)
        pc.power_on()
        k.run()
        probe = RailProbe(k, pc.psu, interval_us=5 * MSEC)
        probe.start_capture(duration_us=1600 * MSEC)
        k.run(until=k.now + 10 * MSEC)
        pc.power_off()
        k.run()
        waveform = probe.waveform_ms()
        assert waveform[0][1] == pytest.approx(5.0)
        assert waveform[-1][1] < 0.1
        volts = [v for _, v in waveform]
        # Monotone non-increasing after the cut.
        cut_index = next(i for i, v in enumerate(volts) if v < 5.0)
        tail = volts[cut_index:]
        assert all(a >= b - 1e-9 for a, b in zip(tail, tail[1:]))

    def test_unloaded_discharge_time_matches_fig4a(self):
        k = Kernel()
        pc = PowerController(k)
        pc.power_on()
        k.run()
        probe = RailProbe(k, pc.psu, interval_us=2 * MSEC)
        probe.start_capture(duration_us=1600 * MSEC)
        pc.power_off()
        k.run()
        t_done = probe.time_below(0.06)
        assert t_done is not None
        assert 1250 <= t_done <= 1550

    def test_probe_validation(self):
        k = Kernel()
        psu = AtxPsu(k)
        with pytest.raises(PowerError):
            RailProbe(k, psu, interval_us=0)
        probe = RailProbe(k, psu)
        with pytest.raises(PowerError):
            probe.start_capture(0)

    def test_double_capture_rejected(self):
        k = Kernel()
        psu = AtxPsu(k)
        probe = RailProbe(k, psu)
        probe.start_capture(10 * MSEC)
        with pytest.raises(PowerError):
            probe.start_capture(10 * MSEC)
        k.run()
        assert not probe.capturing


class TestVoltageAt:
    """psu.voltage_at(t): the batch-bookkeeping time machine."""

    def test_on_state_is_nominal_everywhere(self):
        k = Kernel()
        pc = PowerController(k)
        pc.power_on()
        k.run(until=50 * MSEC)
        assert pc.psu.voltage_at(k.now) == 5.0
        assert pc.psu.voltage_at(k.now - 10 * MSEC) == 5.0

    def test_discharging_matches_waveform(self):
        k = Kernel()
        pc = PowerController(k)
        pc.power_on()
        k.run(until=50 * MSEC)
        cut_at = k.now
        pc.power_off()
        k.run(until=cut_at + 200 * MSEC)
        profile = pc.psu.current_profile()
        assert profile is not None
        # voltage_at for a past instant inside the episode equals the
        # analytic waveform at that offset (plus command-chain latency).
        for offset_ms in (50, 100, 150):
            t = cut_at + offset_ms * MSEC
            direct = pc.psu.voltage_at(t)
            assert 0.0 <= direct <= 5.0
        # Monotone within the episode.
        samples = [pc.psu.voltage_at(cut_at + ms * MSEC) for ms in (60, 100, 140, 180)]
        assert all(a >= b for a, b in zip(samples, samples[1:]))

    def test_standby_is_zero(self):
        k = Kernel()
        pc = PowerController(k)
        assert pc.psu.voltage_at(0) == 0.0


class TestPowerThresholdStates:
    def test_state_ladder(self):
        from repro.ssd.power_state import DevicePowerState, PowerThresholds

        thresholds = PowerThresholds()
        assert thresholds.state_for_voltage(5.0) is DevicePowerState.READY
        assert thresholds.state_for_voltage(4.5) is DevicePowerState.READY
        assert thresholds.state_for_voltage(4.0) is DevicePowerState.DETACHED
        assert thresholds.state_for_voltage(3.0) is DevicePowerState.DETACHED
        assert thresholds.state_for_voltage(1.0) is DevicePowerState.DEAD

    def test_threshold_validation(self):
        from repro.errors import ConfigurationError
        from repro.ssd.power_state import PowerThresholds

        with pytest.raises(ConfigurationError):
            PowerThresholds(detach_volts=2.0, brownout_volts=3.0)
        with pytest.raises(ConfigurationError):
            PowerThresholds(detach_volts=6.0)
