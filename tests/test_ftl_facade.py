"""End-to-end FTL tests: write/read, streams, journal staleness, recovery."""

import random

import pytest

from repro.errors import AddressError, RecoveryError
from repro.ftl import Ftl, FtlConfig
from repro.ftl.ftl import STREAM_RANDOM, STREAM_SEQUENTIAL
from repro.nand import FlashChip, NandGeometry
from repro.nand.chip import PageState
from repro.sim import Kernel
from repro.units import MSEC


def make_ftl(seed=0, policy="auto", journal_ms=700, blocks=64, pages_per_block=32,
             page_recovery_prob=0.55, extent_recovery_prob=0.55):
    k = Kernel()
    geometry = NandGeometry(
        channels=1,
        dies_per_channel=1,
        planes_per_die=1,
        blocks_per_plane=blocks,
        pages_per_block=pages_per_block,
    )
    chip = FlashChip(geometry, rng=random.Random(seed))
    config = FtlConfig(
        mapping_policy=policy,
        journal_commit_interval_us=journal_ms * MSEC,
        page_recovery_prob=page_recovery_prob,
        extent_recovery_prob=extent_recovery_prob,
    )
    ftl = Ftl(k, chip, config, random.Random(seed + 1))
    ftl.start()
    return k, chip, ftl


class TestWriteReadPath:
    def test_roundtrip(self):
        _, _, ftl = make_ftl()
        plan = ftl.prepare_write([10, 11, 12])
        ftl.commit_write(plan, tokens=[1, 2, 3])
        assert [ftl.read(lpn).token for lpn in (10, 11, 12)] == [1, 2, 3]

    def test_unmapped_reads_erased(self):
        _, _, ftl = make_ftl()
        result = ftl.read(999)
        assert result.state is PageState.ERASED
        assert result.token is None

    def test_overwrite_latest_wins(self):
        _, _, ftl = make_ftl()
        plan = ftl.prepare_write([5])
        ftl.commit_write(plan, tokens=[1])
        plan = ftl.prepare_write([5])
        ftl.commit_write(plan, tokens=[2])
        assert ftl.read(5).token == 2

    def test_empty_write_rejected(self):
        _, _, ftl = make_ftl()
        with pytest.raises(AddressError):
            ftl.prepare_write([])

    def test_token_count_mismatch_rejected(self):
        _, _, ftl = make_ftl()
        plan = ftl.prepare_write([1, 2])
        with pytest.raises(AddressError):
            ftl.commit_write(plan, tokens=[1])

    def test_partial_commit_slice(self):
        _, _, ftl = make_ftl()
        plan = ftl.prepare_write([20, 21, 22, 23])
        ftl.commit_batch([plan], tokens=[1, 2])  # a power-fault prefix
        assert ftl.read(20).token == 1
        assert ftl.read(21).token == 2
        assert ftl.read(22).state is PageState.ERASED


class TestStreamClassification:
    def test_page_policy_uses_page_map(self):
        _, _, ftl = make_ftl(policy="page")
        plan = ftl.prepare_write(list(range(100, 120)))
        ftl.commit_write(plan, tokens=list(range(1, 21)))
        assert ftl.page_map.entry_count() == 20
        assert ftl.extent_map.entry_count() == 0

    def test_extent_policy_uses_extent_map(self):
        _, _, ftl = make_ftl(policy="extent")
        plan = ftl.prepare_write(list(range(100, 120)))
        ftl.commit_write(plan, tokens=list(range(1, 21)))
        assert ftl.extent_map.entry_count() == 1
        assert ftl.page_map.entry_count() == 0
        assert ftl.read(110).token == 11

    def test_auto_detects_sequential_stream(self):
        _, _, ftl = make_ftl(policy="auto")
        # Three back-to-back contiguous writes form one stream.
        next_tok = 1
        for start in (0, 8, 16):
            lpns = list(range(start, start + 8))
            plan = ftl.prepare_write(lpns)
            ftl.commit_write(plan, tokens=list(range(next_tok, next_tok + 8)))
            next_tok += 8
        # First write is classified random (no stream yet); the follow-ons
        # extend one extent.
        assert ftl.extent_map.entry_count() >= 1
        assert ftl.read(20).token == 21

    def test_auto_keeps_scattered_writes_in_page_map(self):
        _, _, ftl = make_ftl(policy="auto")
        for start, tok in ((100, 1), (500, 2), (900, 3)):
            plan = ftl.prepare_write([start, start + 1])
            ftl.commit_write(plan, tokens=[tok, tok + 10])
        assert ftl.extent_map.entry_count() == 0
        assert ftl.page_map.entry_count() == 6

    def test_sequential_extends_single_entry(self):
        _, _, ftl = make_ftl(policy="extent")
        next_tok = 1
        for start in range(0, 24, 8):
            plan = ftl.prepare_write(list(range(start, start + 8)))
            ftl.commit_write(plan, tokens=list(range(next_tok, next_tok + 8)))
            next_tok += 8
        # A single growing run as long as it stays inside one block.
        assert ftl.extent_map.entry_count() == 1
        assert ftl.extent_map.mapped_page_count() == 24


class TestJournalStaleness:
    def test_updates_commit_on_interval(self):
        k, _, ftl = make_ftl(journal_ms=100)
        plan = ftl.prepare_write([1])
        ftl.commit_write(plan, tokens=[9])
        assert ftl.journal.pending_count == 1
        k.run(until=150 * MSEC)
        assert ftl.journal.pending_count == 0
        assert ftl.journal_pages_written >= 1

    def test_journal_write_charges_background_time(self):
        k, _, ftl = make_ftl(journal_ms=100)
        plan = ftl.prepare_write([1])
        ftl.commit_write(plan, tokens=[9])
        k.run(until=150 * MSEC)
        assert ftl.consume_background_us() > 0

    def test_checkpoint_commits_now(self):
        _, _, ftl = make_ftl(journal_ms=10_000)
        plan = ftl.prepare_write([1])
        ftl.commit_write(plan, tokens=[9])
        ftl.checkpoint()
        assert ftl.journal.pending_count == 0


class TestPowerLossRecovery:
    def test_committed_updates_survive(self):
        k, chip, ftl = make_ftl(journal_ms=50, page_recovery_prob=0.0)
        plan = ftl.prepare_write([7])
        ftl.commit_write(plan, tokens=[42])
        k.run(until=100 * MSEC)  # journal commit happened
        ftl.power_loss()
        chip.power_loss()
        chip.power_on()
        report = ftl.power_on_recover()
        assert report.stranded_updates == 0
        assert ftl.read(7).token == 42

    def test_stranded_update_lost_rolls_back_to_old_data(self):
        k, chip, ftl = make_ftl(journal_ms=10_000, page_recovery_prob=0.0)
        plan = ftl.prepare_write([7])
        ftl.commit_write(plan, tokens=[1])
        ftl.checkpoint()  # first version durable
        plan = ftl.prepare_write([7])
        ftl.commit_write(plan, tokens=[2])  # second version volatile
        ftl.power_loss()
        chip.power_loss()
        chip.power_on()
        report = ftl.power_on_recover()
        assert report.lost_updates == 1
        assert report.lost_lpns == [7]
        # FWA shape: address reads the *old* acknowledged data.
        assert ftl.read(7).token == 1

    def test_stranded_update_recovered_by_scan(self):
        k, chip, ftl = make_ftl(journal_ms=10_000, page_recovery_prob=1.0)
        plan = ftl.prepare_write([7])
        ftl.commit_write(plan, tokens=[2])
        ftl.power_loss()
        chip.power_loss()
        chip.power_on()
        report = ftl.power_on_recover()
        assert report.recovered_updates == 1
        assert ftl.read(7).token == 2

    def test_first_write_lost_reads_erased(self):
        k, chip, ftl = make_ftl(journal_ms=10_000, page_recovery_prob=0.0)
        plan = ftl.prepare_write([7])
        ftl.commit_write(plan, tokens=[2])
        ftl.power_loss()
        chip.power_loss()
        chip.power_on()
        ftl.power_on_recover()
        assert ftl.read(7).state is PageState.ERASED

    def test_extent_run_lost_as_a_unit(self):
        k, chip, ftl = make_ftl(
            journal_ms=10_000, policy="extent", extent_recovery_prob=0.0
        )
        next_tok = 1
        for start in range(0, 24, 8):
            plan = ftl.prepare_write(list(range(start, start + 8)))
            ftl.commit_write(plan, tokens=list(range(next_tok, next_tok + 8)))
            next_tok += 8
        ftl.power_loss()
        chip.power_loss()
        chip.power_on()
        report = ftl.power_on_recover()
        # All three updates share one extent entry -> all lost together.
        assert report.lost_updates == 3
        assert report.lost_extent_runs == 1
        assert len(report.lost_lpns) == 24
        assert all(ftl.read(lpn).state is PageState.ERASED for lpn in range(24))

    def test_extent_run_survives_as_a_unit(self):
        k, chip, ftl = make_ftl(
            journal_ms=10_000, policy="extent", extent_recovery_prob=1.0
        )
        plan = ftl.prepare_write(list(range(0, 8)))
        ftl.commit_write(plan, tokens=list(range(1, 9)))
        ftl.power_loss()
        chip.power_loss()
        chip.power_on()
        report = ftl.power_on_recover()
        assert report.lost_updates == 0
        assert ftl.read(4).token == 5

    def test_recover_requires_power(self):
        k, chip, ftl = make_ftl()
        ftl.power_loss()
        chip.power_loss()
        with pytest.raises(RecoveryError):
            ftl.power_on_recover()

    def test_waw_rollback_restores_first_write(self):
        k, chip, ftl = make_ftl(journal_ms=10_000, page_recovery_prob=0.0)
        plan = ftl.prepare_write([7])
        ftl.commit_write(plan, tokens=[1])
        plan = ftl.prepare_write([7])
        ftl.commit_write(plan, tokens=[2])
        # Both updates stranded; both lost; rollback unwinds to unmapped.
        ftl.power_loss()
        chip.power_loss()
        chip.power_on()
        ftl.power_on_recover()
        assert ftl.read(7).state is PageState.ERASED


class TestStats:
    def test_stats_shape(self):
        _, _, ftl = make_ftl()
        plan = ftl.prepare_write([1, 2])
        ftl.commit_write(plan, tokens=[1, 2])
        stats = ftl.stats()
        assert stats["host_pages_written"] == 2
        assert stats["page_map_entries"] == 2
        assert "gc" in stats

    def test_map_entry_count_mixes_tables(self):
        _, _, ftl = make_ftl(policy="extent")
        plan = ftl.prepare_write(list(range(8)))
        ftl.commit_write(plan, tokens=list(range(1, 9)))
        assert ftl.map_entry_count() == 1
