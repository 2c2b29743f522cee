"""Tests for SMART-style health reporting."""

import pytest

from repro.ftl import FtlConfig
from repro.host import HostSystem
from repro.ssd import smart
from repro.ssd.device import CORRUPT_TOKEN, SsdConfig
from repro.units import GIB, MSEC


def make_host(seed=6):
    host = HostSystem(
        config=SsdConfig(capacity_bytes=1 * GIB, init_time_us=30 * MSEC), seed=seed
    )
    host.boot()
    return host


class TestSmartLog:
    def test_initial_snapshot(self):
        host = make_host()
        log = host.ssd.smart_log()
        assert log.value(smart.POWER_CYCLE_COUNT) == 1
        assert log.value(smart.UNEXPECTED_POWER_LOSS) == 0
        assert log.by_name("Write_Amplification_x100") == 100

    def test_unsafe_shutdown_counted(self):
        host = make_host()
        host.cut_power()
        host.run_for_ms(1500)
        host.restore_power()
        host.wait_until_ready()
        log = host.ssd.smart_log()
        assert log.value(smart.UNEXPECTED_POWER_LOSS) == 1
        assert log.value(smart.POWER_CYCLE_COUNT) == 2

    def test_host_writes_tracked(self):
        host = make_host()
        host.write(0, [1, 2, 3, 4])
        host.run_for_ms(300)
        log = host.ssd.smart_log()
        assert log.by_name("Host_Pages_Written") == 4
        # Journal writes push NAND pages above host pages.
        host.ssd.ftl.checkpoint()
        log = host.ssd.smart_log()
        assert log.by_name("NAND_Pages_Written") > 4

    def test_write_amplification(self):
        host = make_host()
        host.write(0, [1])
        host.run_for_ms(300)
        host.ssd.ftl.checkpoint()
        log = host.ssd.smart_log()
        assert log.by_name("Write_Amplification_x100") >= 100

    def test_render_and_dict(self):
        host = make_host()
        log = host.ssd.smart_log()
        text = log.render()
        assert "Power_Cycle_Count" in text
        assert "SMART data for" in text
        as_dict = log.as_dict()
        assert as_dict["Power_Cycle_Count"] == 1

    def test_unknown_attribute_raises(self):
        host = make_host()
        log = host.ssd.smart_log()
        with pytest.raises(KeyError):
            log.value(999)
        with pytest.raises(KeyError):
            log.by_name("Nope")

    def test_uncorrectable_reads_surface(self):
        host = make_host()
        host.write(0, [1])
        host.run_for_ms(300)
        ppa = host.ssd.ftl.lookup(0)
        host.ssd.chip.store.set_error_bits(ppa, 100_000)
        # A forensic read sees the damage but is not a host read.
        assert host.ssd.peek_run(0, 1) == [CORRUPT_TOKEN]
        assert host.ssd.smart_log().value(smart.REPORTED_UNCORRECTABLE) == 0
        request = host.read(0, 1)
        host.run_for_ms(10)
        assert request.done and request.tokens == [CORRUPT_TOKEN]
        log = host.ssd.smart_log()
        assert log.value(smart.REPORTED_UNCORRECTABLE) == 1
