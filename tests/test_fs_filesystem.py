"""Integration tests for the journaling filesystem, including power faults."""

import pytest

from repro.fs import (
    FileNotFound,
    FileSystem,
    FileVerdict,
    FsError,
    FsExpectation,
    audit_filesystem,
)
from repro.ftl import FtlConfig
from repro.host import HostSystem
from repro.nand.pagestore import STATE_VALID
from repro.ssd.command import CommandOp, CommandStatus
from repro.ssd.device import SsdConfig
from repro.units import GIB, MSEC


def make_fs(seed=71, journal_blocks=64, **config_overrides):
    defaults = dict(capacity_bytes=2 * GIB, init_time_us=30 * MSEC)
    defaults.update(config_overrides)
    host = HostSystem(config=SsdConfig(**defaults), seed=seed)
    host.boot()
    fs = FileSystem(host, journal_blocks=journal_blocks)
    fs.format()
    return host, fs


def remount(host, fs):
    """Power-cycle the device and mount a fresh FS view over the same CAS."""
    host.cut_power()
    host.run_for_ms(1500)
    host.restore_power()
    host.wait_until_ready()
    fresh = FileSystem(host, journal_blocks=fs.journal_blocks, cas=fs.cas)
    report = fresh.mount()
    return fresh, report


class TestBasicOps:
    def test_create_write_read(self):
        _, fs = make_fs()
        fs.create("a.txt")
        fs.write_file("a.txt", b"hello world")
        assert fs.read_file("a.txt") == b"hello world"
        assert fs.list_files() == ["a.txt"]

    def test_multi_block_file(self):
        _, fs = make_fs()
        fs.create("big.bin")
        payload = bytes(range(256)) * 64  # 16 KiB
        fs.write_file("big.bin", payload)
        assert fs.read_file("big.bin") == payload
        assert fs.stat("big.bin").block_count == 4

    def test_overwrite_in_place(self):
        _, fs = make_fs()
        fs.create("a.txt")
        fs.write_file("a.txt", b"x" * 4096)
        fs.write_file("a.txt", b"y" * 4096)
        assert fs.read_file("a.txt") == b"y" * 4096

    def test_write_at_offset_extends(self):
        _, fs = make_fs()
        fs.create("a.bin")
        fs.write_file("a.bin", b"A" * 4096)
        fs.write_file("a.bin", b"B" * 4096, offset=4096)
        assert fs.read_file("a.bin", offset=4096, length=4096) == b"B" * 4096
        assert fs.stat("a.bin").size_bytes == 8192

    def test_partial_read(self):
        _, fs = make_fs()
        fs.create("a.txt")
        fs.write_file("a.txt", b"0123456789")
        assert fs.read_file("a.txt", offset=3, length=4) == b"3456"

    def test_delete_frees_blocks(self):
        _, fs = make_fs()
        fs.create("a.txt")
        fs.write_file("a.txt", b"x" * 8192)
        blocks = fs.stat("a.txt").blocks()
        fs.delete("a.txt")
        assert not fs.exists("a.txt")
        assert set(blocks) <= fs.state.free_blocks
        # Freed blocks are reused.
        fs.create("b.txt")
        fs.write_file("b.txt", b"y" * 8192)
        assert set(fs.stat("b.txt").blocks()) == set(blocks)

    def test_errors(self):
        _, fs = make_fs()
        with pytest.raises(FileNotFound):
            fs.read_file("nope")
        fs.create("a.txt")
        with pytest.raises(FsError):
            fs.create("a.txt")
        with pytest.raises(FsError):
            fs.create("bad/name")
        with pytest.raises(FsError):
            fs.write_file("a.txt", b"x", offset=100)  # unaligned
        with pytest.raises(FsError):
            fs.read_file("a.txt", offset=0, length=5)  # beyond size


class TestRemountCleanPath:
    def test_mount_after_unmount_restores_everything(self):
        host, fs = make_fs()
        fs.create("a.txt")
        fs.write_file("a.txt", b"persistent data")
        fs.unmount()
        fresh = FileSystem(host, journal_blocks=fs.journal_blocks, cas=fs.cas)
        report = fresh.mount()
        assert report.files == 1
        assert fresh.read_file("a.txt") == b"persistent data"

    def test_mount_replays_journal_beyond_checkpoint(self):
        host, fs = make_fs()
        fs.create("a.txt")
        fs.write_file("a.txt", b"v1" * 100, sync=True)
        # No unmount (no final checkpoint): the txns live in the journal.
        host.cut_power()
        host.run_for_ms(1500)
        host.restore_power()
        host.wait_until_ready()
        fresh = FileSystem(host, journal_blocks=fs.journal_blocks, cas=fs.cas)
        report = fresh.mount()
        assert report.transactions_replayed >= 1
        assert fresh.read_file("a.txt") == b"v1" * 100

    def test_journal_wrap_checkpoints(self):
        host, fs = make_fs(journal_blocks=16)
        for index in range(12):  # 3 pages per create-txn -> forces wraps
            fs.create(f"f{index}")
        assert fs.checkpoints_written >= 2
        assert len(fs.list_files()) == 12

    def test_mount_on_blank_device_fails(self):
        host = HostSystem(
            config=SsdConfig(capacity_bytes=1 * GIB, init_time_us=30 * MSEC), seed=5
        )
        host.boot()
        fs = FileSystem(host)
        from repro.fs import FsCorruption

        with pytest.raises(FsCorruption):
            fs.mount()


class TestPowerFaults:
    def test_synced_file_survives_fault(self):
        host, fs = make_fs()
        fs.create("durable.txt")
        fs.write_file("durable.txt", b"must survive", sync=True)
        fresh, report = remount(host, fs)
        assert fresh.read_file("durable.txt") == b"must survive"

    def test_unsynced_write_may_roll_back_but_mount_succeeds(self):
        host, fs = make_fs()
        fs.create("risky.txt", sync=True)
        fs.write_file("risky.txt", b"unsynced!")
        fresh, report = remount(host, fs)
        # Whatever happened, the filesystem is consistent: either the new
        # content, or a clean earlier state.
        if fresh.exists("risky.txt"):
            content = fresh.read_file("risky.txt")
            assert content in (b"unsynced!", b"")

    def test_audit_detects_durability_contract(self):
        host, fs = make_fs(
            ftl=FtlConfig(page_recovery_prob=1.0, extent_recovery_prob=1.0)
        )
        expectations = []
        for index in range(6):
            name = f"file{index}.dat"
            fs.create(name)
            expect = FsExpectation(name)
            payload = bytes([index]) * 4096
            fs.write_file(name, payload, sync=(index % 2 == 0))
            expect.note_write(payload)
            if index % 2 == 0:
                expect.note_sync()
            expectations.append(expect)
        fresh, report = remount(host, fs)
        audit = audit_filesystem(fresh, expectations)
        # With a perfect recovery scan, every synced file must be intact.
        for index in range(0, 6, 2):
            assert audit.verdicts[f"file{index}.dat"] in (
                FileVerdict.INTACT,
            ), audit.details
        assert audit.durability_violations == 0

    def test_audit_reports_lost_synced_data_with_bad_firmware(self):
        # A drive that loses every volatile map update: even synced files
        # can be damaged if their FLUSH didn't reach a checkpointed state...
        host, fs = make_fs(
            seed=73,
            ftl=FtlConfig(page_recovery_prob=0.0, extent_recovery_prob=0.0),
        )
        fs.create("a.dat")
        expect = FsExpectation("a.dat")
        fs.write_file("a.dat", b"z" * 4096, sync=True)
        expect.note_write(b"z" * 4096)
        expect.note_sync()
        fresh, report = remount(host, fs)
        audit = audit_filesystem(fresh, [expect])
        # The FLUSH barrier checkpoints the FTL map, so even this hostile
        # firmware keeps the synced file: the barrier is doing its job.
        assert audit.verdicts["a.dat"] is FileVerdict.INTACT

    def test_fault_mid_untracked_burst_keeps_fs_mountable(self):
        host, fs = make_fs(seed=74)
        for index in range(8):
            fs.create(f"burst{index}")
            fs.write_file(f"burst{index}", bytes([index]) * 8192)
        # Fault with no unmount, journal half-hot.
        fresh, report = remount(host, fs)
        assert report.files <= 8
        for name in fresh.list_files():
            fresh.read_file(name)  # must never raise on a mounted view


class TestJournalDamageIntegration:
    def test_corrupted_journal_page_discards_only_its_txn(self):
        host, fs = make_fs(seed=75)
        fs.create("keep.txt", sync=True)
        fs.write_file("keep.txt", b"safe" * 1024, sync=True)
        fs.create("victim.txt", sync=True)
        # Corrupt the journal page holding the victim's *create* txn commit:
        # find journal blocks whose stored token decodes to a commit record
        # for the last txid and blast one of them.
        from repro.fs.filesystem import JOURNAL_START

        target_ppa = None
        for block in range(JOURNAL_START, JOURNAL_START + fs.journal_blocks):
            ppa = host.ssd.ftl.lookup(block)
            if ppa is None:
                continue
            entry = host.ssd.chip.store.entry(ppa)
            if entry is None or entry[0] != STATE_VALID:
                continue
            payload = fs.cas.bytes_for(entry[1])
            if payload and b'"victim.txt"' in payload:
                target_ppa = ppa
        assert target_ppa is not None
        host.ssd.chip.store.set_error_bits(target_ppa, 100_000)

        host.cut_power()
        host.run_for_ms(1500)
        host.restore_power()
        host.wait_until_ready()
        fresh = FileSystem(host, journal_blocks=fs.journal_blocks, cas=fs.cas)
        report = fresh.mount()
        # The earlier file survives; the victim's transaction was torn.
        assert fresh.exists("keep.txt")
        assert fresh.read_file("keep.txt") == b"safe" * 1024
        assert report.transactions_discarded >= 1
        assert not fresh.exists("victim.txt")


class TestRenameAndTruncate:
    def test_rename_basic(self):
        _, fs = make_fs(seed=81)
        fs.create("old.txt")
        fs.write_file("old.txt", b"payload")
        fs.rename("old.txt", "new.txt")
        assert not fs.exists("old.txt")
        assert fs.read_file("new.txt") == b"payload"

    def test_rename_validation(self):
        _, fs = make_fs(seed=82)
        fs.create("a.txt")
        fs.create("b.txt")
        with pytest.raises(FileNotFound):
            fs.rename("missing", "x")
        with pytest.raises(FsError):
            fs.rename("a.txt", "b.txt")  # target exists
        with pytest.raises(FsError):
            fs.rename("a.txt", "bad/name")

    def test_rename_survives_remount(self):
        host, fs = make_fs(seed=83)
        fs.create("old.txt")
        fs.write_file("old.txt", b"data" * 512, sync=True)
        fs.rename("old.txt", "new.txt", sync=True)
        fresh, _ = remount(host, fs)
        assert fresh.exists("new.txt")
        assert not fresh.exists("old.txt")
        assert fresh.read_file("new.txt") == b"data" * 512

    def test_rename_crash_atomicity(self):
        # Unsynced rename + fault: the file exists under exactly one name
        # with intact content (rename may roll back, never half-apply).
        host, fs = make_fs(seed=84)
        fs.create("old.txt")
        fs.write_file("old.txt", b"atomic" * 100, sync=True)
        fs.rename("old.txt", "new.txt")  # no sync
        fresh, _ = remount(host, fs)
        names = [n for n in ("old.txt", "new.txt") if fresh.exists(n)]
        assert len(names) == 1, names
        assert fresh.read_file(names[0]) == b"atomic" * 100

    def test_truncate_shrinks_and_frees(self):
        _, fs = make_fs(seed=85)
        fs.create("f.bin")
        fs.write_file("f.bin", b"x" * (4 * 4096))
        blocks_before = fs.stat("f.bin").blocks()
        fs.truncate("f.bin", 4096)
        assert fs.stat("f.bin").size_bytes == 4096
        assert fs.stat("f.bin").block_count == 1
        assert set(blocks_before[1:]) <= fs.state.free_blocks
        assert fs.read_file("f.bin") == b"x" * 4096

    def test_truncate_to_zero(self):
        _, fs = make_fs(seed=86)
        fs.create("f.bin")
        fs.write_file("f.bin", b"y" * 8192)
        fs.truncate("f.bin", 0)
        assert fs.stat("f.bin").size_bytes == 0
        assert fs.read_file("f.bin") == b""

    def test_truncate_validation(self):
        _, fs = make_fs(seed=87)
        fs.create("f.bin")
        fs.write_file("f.bin", b"z" * 4096)
        with pytest.raises(FsError):
            fs.truncate("f.bin", -1)
        with pytest.raises(FsError):
            fs.truncate("f.bin", 8192)  # cannot grow

    def test_truncate_survives_remount(self):
        host, fs = make_fs(seed=88)
        fs.create("f.bin")
        fs.write_file("f.bin", b"q" * 8192, sync=True)
        fs.truncate("f.bin", 4096, sync=True)
        fresh, _ = remount(host, fs)
        assert fresh.stat("f.bin").size_bytes == 4096
        assert fresh.read_file("f.bin") == b"q" * 4096


class TestFlushBarrierRegressions:
    """Durability holes closed while building the app workloads: a FLUSH
    completing with IO_ERROR must surface to the caller (fsync is allowed
    to fail, never to lie), and the checkpoint a journal wrap writes must
    itself be flushed before the old lap is overwritten."""

    def test_failed_flush_raises_instead_of_acking(self):
        host, fs = make_fs(seed=90)
        fs.create("f.bin")
        fs.write_file("f.bin", b"d" * 4096)
        real_submit = host.ssd.submit

        def failing_submit(command):
            if command.op is CommandOp.FLUSH:
                command.status = CommandStatus.IO_ERROR
                if command.on_complete is not None:
                    command.on_complete(command)
                return
            real_submit(command)

        host.ssd.submit = failing_submit
        with pytest.raises(FsError, match="flush barrier failed"):
            fs.fsync("f.bin")
        with pytest.raises(FsError, match="flush barrier failed"):
            fs.write_file("f.bin", b"e" * 4096, sync=True)
        host.ssd.submit = real_submit
        fs.fsync("f.bin")  # barrier works again once FLUSH succeeds

    def test_journal_wrap_checkpoint_survives_power_cut(self):
        # Zero-luck FTL (map journal only commits at FLUSH, no recovery
        # fortune) and a tiny FS journal so synced writes force wraps.
        # Every wrap folds the journal into a checkpoint; if that
        # checkpoint were not flushed before the journal restarted, the
        # power cut would roll it back after the old journal lap had
        # already been overwritten — losing previously-fsynced files.
        host, fs = make_fs(
            seed=91,
            journal_blocks=8,
            capacity_bytes=1 * GIB,
            ftl=FtlConfig(
                journal_commit_interval_us=10_000 * MSEC,
                page_recovery_prob=0.0,
                extent_recovery_prob=0.0,
            ),
        )
        payloads = {}
        for index in range(10):
            name = f"f{index}.bin"
            fs.create(name)
            payloads[name] = bytes([index]) * 4096
            fs.write_file(name, payloads[name], sync=True)
        assert fs.checkpoints_written > 1, "journal never wrapped"
        fresh, report = remount(host, fs)
        for name, payload in payloads.items():
            assert fresh.read_file(name) == payload, name
