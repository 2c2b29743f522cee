"""Integration tests for the SSD device model under normal and fault conditions."""

import dataclasses

import pytest

from repro.cache import FlushPolicy, SupercapBackup
from repro.errors import ConfigurationError, ProtocolError
from repro.ftl import FtlConfig
from repro.nand import CorruptionModel
from repro.nand.pagestore import STATE_VALID
from repro.power import AtxPsu, PowerController
from repro.rand import RandomStreams
from repro.sim import Kernel
from repro.ssd import CommandStatus, DevicePowerState, IoCommand, SsdConfig, SsdDevice
from repro.ssd.device import CORRUPT_TOKEN
from repro.units import GIB, MSEC, SEC


def small_config(**overrides):
    defaults = dict(
        capacity_bytes=1 * GIB,
        ftl=FtlConfig(journal_commit_interval_us=700 * MSEC),
        init_time_us=50 * MSEC,
    )
    defaults.update(overrides)
    return SsdConfig(**defaults)


def rig(config=None, seed=1):
    """Kernel + powered PSU + device, run until READY."""
    k = Kernel()
    pc = PowerController(k)
    config = config or small_config()
    ssd = SsdDevice(k, config, pc.psu, RandomStreams(seed))
    pc.power_on()
    k.run(until=config.init_time_us + 100 * MSEC)
    assert ssd.state is DevicePowerState.READY
    return k, pc, ssd


def submit_write(ssd, lpn, tokens, results):
    cmd = IoCommand.write(lpn, tokens, on_complete=results.append)
    ssd.submit(cmd)
    return cmd


class TestConfig:
    def test_transfer_us(self):
        config = SsdConfig(link_mib_per_sec=512)
        assert config.transfer_us(512 * 1024 * 1024) == pytest.approx(1_000_000, rel=0.01)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SsdConfig(capacity_bytes=0)
        with pytest.raises(ConfigurationError):
            SsdConfig(queue_depth=0)
        with pytest.raises(ConfigurationError):
            SsdConfig(current_draw_amps=50.0)


class TestBootAndBasics:
    def test_boot_sequence(self):
        k = Kernel()
        pc = PowerController(k)
        config = small_config()
        ssd = SsdDevice(k, config, pc.psu, RandomStreams(1))
        assert ssd.state is DevicePowerState.OFF
        pc.power_on()
        k.run(until=12 * MSEC)  # serial + charge ramp first
        assert ssd.state is DevicePowerState.INITIALIZING
        k.run(until=200 * MSEC)
        assert ssd.state is DevicePowerState.READY
        assert ssd.power_cycles == 1

    def test_submit_while_off_errors(self):
        k = Kernel()
        pc = PowerController(k)
        ssd = SsdDevice(k, small_config(), pc.psu, RandomStreams(1))
        results = []
        submit_write(ssd, 0, [1], results)
        k.run(until=MSEC)
        assert results[0].status is CommandStatus.IO_ERROR

    def test_capacity_guard(self):
        k, pc, ssd = rig()
        huge_lpn = ssd.chip.geometry.total_pages
        with pytest.raises(ProtocolError):
            ssd.submit(IoCommand.read(huge_lpn, 1))


class TestWritePath:
    def test_write_acks_from_cache(self):
        k, pc, ssd = rig()
        results = []
        submit_write(ssd, 10, [101, 102], results)
        k.run(until=k.now + 10 * MSEC)
        assert results[0].status is CommandStatus.OK
        # Acked long before any flash program could finish.
        assert results[0].latency_us < ssd.page_write_us

    def test_written_data_flushes_to_flash(self):
        k, pc, ssd = rig()
        results = []
        submit_write(ssd, 10, [101, 102], results)
        k.run(until=k.now + 200 * MSEC)
        assert ssd.cache.dirty_count == 0
        assert ssd.ftl.read(10).token == 101
        assert ssd.ftl.read(11).token == 102

    def test_read_hits_dirty_cache(self):
        k, pc, ssd = rig()
        results = []
        submit_write(ssd, 10, [7], results)
        read_results = []
        cmd = IoCommand.read(10, 1, on_complete=read_results.append)
        k.run(until=k.now + MSEC)
        ssd.submit(cmd)
        k.run(until=k.now + 5 * MSEC)
        assert read_results and read_results[0].tokens == [7]

    def test_read_after_flush_from_flash(self):
        k, pc, ssd = rig()
        results = []
        submit_write(ssd, 10, [7], results)
        k.run(until=k.now + 200 * MSEC)
        read_results = []
        ssd.submit(IoCommand.read(10, 1, on_complete=read_results.append))
        k.run(until=k.now + 50 * MSEC)
        assert read_results[0].tokens == [7]

    def test_unwritten_read_returns_zero_tokens(self):
        k, pc, ssd = rig()
        read_results = []
        ssd.submit(IoCommand.read(500, 2, on_complete=read_results.append))
        k.run(until=k.now + 50 * MSEC)
        assert read_results[0].tokens == [0, 0]

    def test_flush_command_drains_and_checkpoints(self):
        k, pc, ssd = rig()
        results = []
        submit_write(ssd, 10, [1, 2, 3], results)
        flushed = []
        ssd.submit(IoCommand.flush(on_complete=flushed.append))
        k.run(until=k.now + SEC)
        assert flushed[0].status is CommandStatus.OK
        assert ssd.cache.dirty_count == 0
        assert ssd.ftl.journal.pending_count == 0

    def test_throttle_bounds_dirty_pages(self):
        config = small_config(flush=FlushPolicy(batch_pages=32, max_dirty_pages=64))
        k, pc, ssd = rig(config)
        results = []
        for i in range(40):
            submit_write(ssd, i * 64, list(range(i * 64 + 1, i * 64 + 33)), results)
        peak = 0
        end = k.now + 2 * SEC
        while k.now < end and len(results) < 40:
            k.run(until=k.now + MSEC)
            peak = max(peak, ssd.cache.dirty_count)
        assert len(results) == 40
        assert peak <= 64 + 32  # budget plus one in-flight command

    def test_write_iops_ceiling(self):
        # 4 KiB writes are overhead-bound: ~1/(overhead+transfer) IOPS.
        k, pc, ssd = rig()
        results = []
        for i in range(200):
            submit_write(ssd, i, [i + 1], results)
        start = k.now
        k.run(until=start + SEC)
        assert len(results) == 200
        per_cmd = ssd.config.interface_overhead_us + ssd.config.transfer_us(4096)
        measured = (results[-1].complete_time - start) / 200
        assert measured == pytest.approx(per_cmd, rel=0.25)


class TestPowerFault:
    def fault(self, k, pc, ssd, settle_ms=1200):
        """Cut power and let the rail fully discharge."""
        pc.power_off()
        k.run(until=k.now + settle_ms * MSEC)

    def test_detach_errors_outstanding_commands(self):
        k, pc, ssd = rig()
        results = []
        # Saturate the dispatcher so commands are queued when the fault lands.
        for i in range(2000):
            submit_write(ssd, i * 2, [i + 1], results)
        pc.power_off()
        k.run(until=k.now + 300 * MSEC)
        errored = [r for r in results if r.status is CommandStatus.IO_ERROR]
        assert ssd.state is DevicePowerState.DEAD
        assert errored, "queued commands must surface IO errors at detach"
        assert ssd.last_damage.commands_errored > 0

    def test_detach_happens_around_40ms(self):
        k, pc, ssd = rig()
        t0 = k.now
        pc.power_off()
        while ssd.state is DevicePowerState.READY:
            k.step()
        detach_elapsed = k.now - t0
        assert 25 * MSEC <= detach_elapsed <= 60 * MSEC

    def test_dirty_cache_lost_at_brownout(self):
        # Linger longer than the whole discharge window so the dirty pages
        # are still in DRAM when the controller browns out.
        config = small_config(
            flush=FlushPolicy(batch_pages=64, linger_us=400 * MSEC, max_dirty_pages=512),
            ftl=FtlConfig(page_recovery_prob=0.0, extent_recovery_prob=0.0),
        )
        k, pc, ssd = rig(config)
        results = []
        submit_write(ssd, 10, [5, 6], results)
        k.run(until=k.now + 2 * MSEC)  # acked, still lingering in cache
        assert ssd.cache.dirty_count == 2
        self.fault(k, pc, ssd)
        assert ssd.state is DevicePowerState.DEAD
        assert ssd.cache.dirty_count == 0
        damage = ssd.last_damage
        assert damage.dirty_pages_lost + damage.inflight_pages_torn >= 1

    def test_brownout_tears_the_inflight_flush_batch(self):
        # A wide batch under a deep throttle is still programming when the
        # internals brown out.  Marginal programs keep the nominal error
        # rate and every stranded map update is recovered, so what reads
        # back depends only on how the torn batch was resolved.
        config = small_config(
            flush=FlushPolicy(batch_pages=256, max_dirty_pages=4096, linger_us=0),
            corruption=CorruptionModel(marginal_error_multiplier=1.0),
            ftl=FtlConfig(
                journal_commit_interval_us=700 * MSEC,
                page_recovery_prob=1.0,
                extent_recovery_prob=1.0,
            ),
        )
        k, pc, ssd = rig(config, seed=3)
        results = []
        for lpn in range(0, 32 * 128, 128):
            submit_write(ssd, lpn, [lpn + i + 1 for i in range(128)], results)
        k.run(until=k.now + MSEC)
        pc.power_off()
        while ssd.state is not DevicePowerState.DEAD:
            batch = ssd._active_batch
            k.step()
        committed = batch.committed_prefix(k.now)
        started = batch.started_count(k.now)
        assert 0 < committed < started
        assert ssd.last_damage.inflight_pages_torn == started - committed
        self.fault(k, pc, ssd)
        pc.power_on()
        k.run(until=k.now + SEC)
        assert all(r.status is CommandStatus.OK for r in results)
        # Token t was written at LPN t - 1.
        assert all(ssd.peek(t - 1) == t for t in batch.tokens[:committed])
        assert not any(ssd.peek(t - 1) == t for t in batch.tokens[committed:])

    def test_recovery_restores_ready_and_durable_data(self):
        k, pc, ssd = rig()
        results = []
        submit_write(ssd, 10, [5], results)
        flushed = []
        ssd.submit(IoCommand.flush(on_complete=flushed.append))
        k.run(until=k.now + SEC)
        self.fault(k, pc, ssd)
        pc.power_on()
        k.run(until=k.now + SEC)
        assert ssd.state is DevicePowerState.READY
        assert ssd.peek(10) == 5
        assert ssd.unclean_losses == 1
        assert ssd.last_recovery is not None

    def test_stranded_map_update_rolls_back(self):
        config = small_config(
            ftl=FtlConfig(
                journal_commit_interval_us=10 * SEC,
                page_recovery_prob=0.0,
                extent_recovery_prob=0.0,
            )
        )
        k, pc, ssd = rig(config)
        results = []
        submit_write(ssd, 10, [5], results)
        k.run(until=k.now + 300 * MSEC)  # flushed to NAND, map update volatile
        assert ssd.cache.dirty_count == 0
        self.fault(k, pc, ssd)
        pc.power_on()
        k.run(until=k.now + SEC)
        # FWA shape: the device acked the write but the address reads erased.
        assert ssd.peek(10) is None
        assert ssd.last_recovery.lost_updates >= 1

    def test_marginal_window_degrades_flush_quality(self):
        config = small_config(
            flush=FlushPolicy(batch_pages=8, linger_us=30 * MSEC, max_dirty_pages=512),
            ftl=FtlConfig(page_recovery_prob=1.0, extent_recovery_prob=1.0),
        )
        k, pc, ssd = rig(config)
        results = []
        # Queue enough dirty data that flushing continues into the sag window.
        for i in range(32):
            submit_write(ssd, i * 4, [i + 1] * 2, results)
        k.run(until=k.now + 5 * MSEC)
        self.fault(k, pc, ssd)
        qualities = [
            quality
            for _, state, token, _, quality in ssd.chip.store.iter_entries()
            if state == STATE_VALID and token != 0
        ]
        assert qualities, "some pages must have been flushed"
        assert min(qualities) < 1.0, "pages flushed on the sagging rail are marginal"

    def test_write_through_device_still_fails_via_map(self):
        config = small_config(
            cache_enabled=False,
            ftl=FtlConfig(
                journal_commit_interval_us=10 * SEC,
                page_recovery_prob=0.0,
                extent_recovery_prob=0.0,
            ),
        )
        k, pc, ssd = rig(config)
        results = []
        submit_write(ssd, 10, [5], results)
        k.run(until=k.now + 300 * MSEC)
        assert results[0].status is CommandStatus.OK  # durable-before-ack
        self.fault(k, pc, ssd)
        pc.power_on()
        k.run(until=k.now + SEC)
        # The paper's conclusion: failures are NOT only the DRAM cache.
        assert ssd.peek(10) is None

    def test_supercap_saves_dirty_data(self):
        config = small_config(
            supercap=SupercapBackup(hold_time_us=500 * MSEC),
            flush=FlushPolicy(batch_pages=64, linger_us=400 * MSEC, max_dirty_pages=512),
            ftl=FtlConfig(page_recovery_prob=0.0, extent_recovery_prob=0.0),
        )
        k, pc, ssd = rig(config)
        results = []
        submit_write(ssd, 10, [5, 6], results)
        k.run(until=k.now + 2 * MSEC)
        assert ssd.cache.dirty_count == 2
        pc.power_off()
        k.run(until=k.now + 1500 * MSEC)
        assert ssd.last_damage.supercap_pages_saved >= 2
        pc.power_on()
        k.run(until=k.now + SEC)
        assert ssd.peek(10) == 5
        assert ssd.peek(11) == 6

    def test_multiple_power_cycles(self):
        k, pc, ssd = rig()
        for cycle in range(3):
            results = []
            submit_write(ssd, cycle, [cycle + 100], results)
            k.run(until=k.now + 100 * MSEC)
            self.fault(k, pc, ssd)
            pc.power_on()
            k.run(until=k.now + SEC)
            assert ssd.state is DevicePowerState.READY
        assert ssd.power_cycles == 4  # initial boot + 3 recoveries
        assert ssd.unclean_losses == 3


class TestPeek:
    def test_peek_sees_cache_then_flash(self):
        k, pc, ssd = rig()
        results = []
        submit_write(ssd, 10, [5], results)
        k.run(until=k.now + MSEC)
        assert ssd.peek(10) == 5  # still dirty
        k.run(until=k.now + 300 * MSEC)
        assert ssd.peek(10) == 5  # now from flash

    def test_peek_unwritten_is_none(self):
        k, pc, ssd = rig()
        assert ssd.peek(12345) is None

    def test_peek_corrupt_token(self):
        k, pc, ssd = rig()
        results = []
        submit_write(ssd, 10, [5], results)
        k.run(until=k.now + 300 * MSEC)
        ppa = ssd.ftl.lookup(10)
        ssd.chip.store.set_error_bits(ppa, 10_000)  # beyond any ECC budget
        assert ssd.peek(10) == CORRUPT_TOKEN
