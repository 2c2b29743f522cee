"""Edge-case fault scenarios: faults at awkward instants.

The paper injects faults "at any time during an IO operation"; these tests
pin down the corner timings — during initialization, during recovery,
back-to-back double faults, a fault with a completely idle device, and a
power restore that begins before the rail has fully discharged.
"""

import pytest

from repro.ftl import FtlConfig
from repro.host import HostSystem
from repro.ssd import DevicePowerState
from repro.ssd.device import SsdConfig
from repro.units import GIB, MSEC, SEC


def make_host(seed=31, **overrides):
    defaults = dict(capacity_bytes=1 * GIB, init_time_us=100 * MSEC)
    defaults.update(overrides)
    host = HostSystem(config=SsdConfig(**defaults), seed=seed)
    return host


class TestFaultDuringBoot:
    def test_fault_mid_initialization(self):
        host = make_host()
        host.power.power_on()
        host.run_for_ms(30)  # rail up, still INITIALIZING
        assert host.ssd.state is DevicePowerState.INITIALIZING
        host.cut_power()
        host.run_for_ms(1500)
        assert host.ssd.state is DevicePowerState.DEAD
        host.restore_power()
        host.wait_until_ready()
        assert host.ssd.is_ready

    def test_fault_before_first_boot_completes_then_works(self):
        host = make_host()
        host.power.power_on()
        host.run_for_ms(30)
        host.cut_power()
        host.run_for_ms(1500)
        host.restore_power()
        host.wait_until_ready()
        req = host.write(0, [1])
        host.run_for_ms(50)
        assert req.ok


class TestReadyDeadline:
    def test_slow_initialisation_fits_the_one_ready_deadline(self):
        # Every wait for READY reads the same 10 s deadline, so a drive that
        # takes 6 s to initialise comes up through boot() and through a
        # restore alike.
        host = make_host(init_time_us=6 * SEC)
        host.boot()
        assert host.ssd.is_ready
        host.cut_power()
        host.wait_until_dead()
        host.run_for_ms(1500)
        host.restore_power()
        host.wait_until_ready()
        assert host.ssd.is_ready


class TestIdleFault:
    def test_fault_with_no_traffic_is_harmless(self):
        host = make_host()
        host.boot()
        host.cut_power()
        host.run_for_ms(1500)
        host.restore_power()
        host.wait_until_ready()
        assert host.ssd.last_damage is not None
        assert host.ssd.last_damage.dirty_pages_lost == 0
        assert host.ssd.last_recovery.stranded_updates == 0

    def test_clean_data_survives_idle_fault(self):
        host = make_host()
        host.boot()
        host.write(5, [42])
        host.run_for_ms(300)
        host.ssd.ftl.checkpoint()
        host.cut_power()
        host.run_for_ms(1500)
        host.restore_power()
        host.wait_until_ready()
        assert host.ssd.peek(5) == 42


class TestDoubleFault:
    def test_fault_during_recovery_initialization(self):
        host = make_host()
        host.boot()
        host.write(0, [1])
        host.run_for_ms(50)
        host.cut_power()
        host.run_for_ms(1500)
        host.restore_power()
        host.run_for_ms(50)  # mid-INITIALIZING again
        assert host.ssd.state is DevicePowerState.INITIALIZING
        host.cut_power()
        host.run_for_ms(1500)
        host.restore_power()
        host.wait_until_ready()
        assert host.ssd.is_ready
        # The second cycle counted as a power cycle; only one unclean loss
        # produced damage (no traffic during the second).
        assert host.ssd.power_cycles >= 3

    def test_fault_during_ftl_recovery_window(self):
        # With a real recovery window the device passes through RECOVERING
        # after an unclean loss; a second rail drop inside that window is
        # the power-loss-during-power-loss-recovery transition.  It must be
        # counted (recovery_interruptions, one extra unsafe shutdown) and
        # the *next* power-on must run recovery again and reach READY.
        # The window must outlast the rail's ~40-50 ms decay to the detach
        # threshold, or the cut lands after recovery already finished.
        host = make_host(recovery_time_us=200 * MSEC)
        host.boot()
        host.write(0, [1])
        host.run_for_ms(50)
        host.cut_power()
        host.run_for_ms(1500)
        host.restore_power()
        host.run_for_ms(150)  # init (~100 ms) done, inside recovery window
        assert host.ssd.state is DevicePowerState.RECOVERING
        host.cut_power()
        host.run_for_ms(1500)
        assert host.ssd.recovery_interruptions == 1
        host.restore_power()
        host.wait_until_ready()
        assert host.ssd.is_ready
        # Both rail drops were dirty: two unsafe shutdowns, and the final
        # recovery pass knows it resumed after an interrupted attempt
        # (pass_index counts *completed* passes, so the aborted one does
        # not appear in it).
        assert host.ssd.unsafe_shutdowns == 2
        assert host.ssd.last_recovery.resumed_after_interrupt
        assert host.ssd.last_recovery.pass_index == 1

    def test_device_usable_after_interrupted_recovery(self):
        host = make_host(recovery_time_us=200 * MSEC)
        host.boot()
        host.write(3, [9])
        host.run_for_ms(300)
        host.ssd.ftl.checkpoint()
        host.cut_power()
        host.run_for_ms(1500)
        host.restore_power()
        host.run_for_ms(150)
        assert host.ssd.state is DevicePowerState.RECOVERING
        host.cut_power()
        host.run_for_ms(1500)
        host.restore_power()
        host.wait_until_ready()
        # Checkpointed data survives the interrupted recovery, and fresh
        # traffic completes normally afterwards.
        assert host.ssd.peek(3) == 9
        req = host.write(4, [11])
        host.run_for_ms(50)
        assert req.ok

    def test_many_consecutive_faults(self):
        host = make_host()
        host.boot()
        for cycle in range(4):
            host.write(cycle * 8, [cycle + 1])
            host.run_for_ms(30)
            host.cut_power()
            host.run_for_ms(1500)
            host.restore_power()
            host.wait_until_ready()
        assert host.ssd.unclean_losses == 4
        assert host.ssd.is_ready


class TestEarlyRestore:
    def test_restore_before_full_discharge(self):
        # Power back on while the rail is still between detach and brownout:
        # the device must re-initialize cleanly from DETACHED.
        host = make_host()
        host.boot()
        host.write(0, [7])
        host.run_for_ms(50)
        host.cut_power()
        host.run_for_ms(60)  # past detach (~40-50 ms), before brownout
        assert host.ssd.state is DevicePowerState.DETACHED
        host.restore_power()
        host.wait_until_ready()
        assert host.ssd.is_ready
        # No brownout happened: volatile state survived, data readable.
        assert host.ssd.peek(0) == 7

    def test_restore_mid_window_no_unclean_loss(self):
        host = make_host()
        host.boot()
        host.cut_power()
        host.run_for_ms(60)
        host.restore_power()
        host.wait_until_ready()
        assert host.ssd.unclean_losses == 0


class TestFaultDuringWriteThrough:
    def test_inflight_write_through_resolved(self):
        host = make_host(
            seed=33,
            cache_enabled=False,
            ftl=FtlConfig(page_recovery_prob=1.0, extent_recovery_prob=1.0),
        )
        host.boot()
        # A long write-through request; fault lands mid-NAND-write.
        req = host.write(0, list(range(1, 257)))
        host.run_for_ms(5)
        host.cut_power()
        host.run_for_ms(1500)
        assert req.done
        host.restore_power()
        host.wait_until_ready()
        # Some prefix of the request's pages may be durable; reads must be
        # self-consistent (token or erased, never an exception).
        for lpn in range(0, 256, 16):
            host.ssd.peek(lpn)
