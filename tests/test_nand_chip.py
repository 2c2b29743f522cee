"""Tests for the FlashChip state machine: programs, programs torn by a power
fault, paired-page collateral, ECC, and the chip's per-page RNG order."""

import random

import pytest

from repro.errors import (
    AddressError,
    ConfigurationError,
    DeviceUnavailableError,
    ProtocolError,
)
from repro.nand import CorruptionModel, EccScheme, FlashChip, NandGeometry
from repro.nand.chip import CORRUPT_TOKEN, PageState
from repro.nand.pagestore import STATE_CORRUPT, STATE_VALID


def make_chip(seed=1, **kwargs):
    geometry = kwargs.pop(
        "geometry",
        NandGeometry(
            channels=1,
            dies_per_channel=2,
            planes_per_die=1,
            blocks_per_plane=4,
            pages_per_block=16,
        ),
    )
    return FlashChip(geometry, rng=random.Random(seed), **kwargs)


class TestImmediateApi:
    def test_commit_and_read(self):
        chip = make_chip()
        chip.program_pages([0], [42])
        result = chip.read_page(0)
        assert result.ok
        assert result.token == 42
        assert result.state is PageState.VALID

    def test_unwritten_page_reads_erased(self):
        chip = make_chip()
        result = chip.read_page(5)
        assert result.state is PageState.ERASED
        assert result.token is None
        assert result.correctable

    def test_no_in_place_update(self):
        chip = make_chip()
        chip.program_pages([0], [1])
        with pytest.raises(ProtocolError):
            chip.program_pages([0], [2])

    def test_erase_then_reprogram(self):
        chip = make_chip()
        chip.program_pages([0], [1])
        chip.erase_block_now(0)
        assert chip.read_page(0).state is PageState.ERASED
        chip.program_pages([0], [2])
        assert chip.read_page(0).token == 2

    def test_address_validation(self):
        chip = make_chip()
        with pytest.raises(AddressError):
            chip.program_pages([chip.geometry.total_pages], [1])
        with pytest.raises(AddressError):
            chip.read_page(-1)
        with pytest.raises(AddressError):
            chip.erase_block_now(chip.geometry.blocks)
        with pytest.raises(AddressError):
            chip.apply_interruption_batch([(chip.geometry.total_pages, 0.5, 1)])

    def test_unpowered_rejects_ops(self):
        chip = make_chip()
        chip.power_loss()
        with pytest.raises(DeviceUnavailableError):
            chip.program_pages([0], [1])
        with pytest.raises(DeviceUnavailableError):
            chip.read_page(0)
        chip.power_on()
        chip.program_pages([0], [1])

    def test_low_voltage_commit_degrades_quality(self):
        chip = make_chip()
        chip.voltage_source = lambda: 3.2
        chip.program_pages([0], [7])
        _, _, raw_error_bits, quality = chip.store.entry(0)
        assert quality < 0.2
        assert raw_error_bits > 20

    def test_per_page_volts_set_each_page_quality(self):
        chip = make_chip()
        chip.voltage_source = lambda: 3.2
        chip.program_pages([0, 1, 2], [1, 2, 3], [5.0, 3.2, None])
        qualities = [chip.store.entry(ppa)[3] for ppa in (0, 1, 2)]
        assert qualities[0] == 1.0
        assert qualities[1] < 0.2
        assert qualities[2] == qualities[1]  # None samples the live rail

    def test_failed_page_keeps_the_committed_prefix(self):
        # A repeated page fails the non-erased check, -1 the range check.
        for bad_page, error in ((0, ProtocolError), (-1, AddressError)):
            chip = make_chip()
            with pytest.raises(error):
                chip.program_pages([0, 1, bad_page, 2], [1, 2, 3, 4])
            assert chip.programs_committed == 2
            # The failed page's checks came before its draw: none was taken.
            prefix = make_chip()
            prefix.program_pages([0, 1], [1, 2])
            assert chip.rng.getstate() == prefix.rng.getstate()
            assert chip.read_page(1).token == 2
            assert chip.read_page(2).state is PageState.ERASED


class TestPowerLoss:
    def test_inflight_program_interrupted(self):
        # Torn at a quarter of ISPP: the page is destroyed w.p. 0.85, else it
        # keeps a mostly-erased level.  Both outcomes occur over these seeds.
        outcomes = set()
        for seed in range(40):
            chip = make_chip(seed=seed)
            report = chip.apply_interruption_batch([(0, 0.25, 5)])
            entry = chip.store.entry(0)
            if report.corrupted_pages:
                assert report.corrupted_pages == [0]
                assert entry[0] == STATE_CORRUPT
                assert not chip.read_page(0).ok
            else:
                assert entry is None
                assert chip.read_page(0).state is PageState.ERASED
            assert chip.programs_committed == 0
            outcomes.add(bool(report.corrupted_pages))
        assert outcomes == {True, False}

    def test_nearly_done_program_commits_weakly(self):
        chip = make_chip()
        chip.voltage_source = lambda: 3.1  # sagging rail at the loss instant
        model = CorruptionModel()
        report = chip.apply_interruption_batch([(0, 0.99, 5)])
        assert report.corrupted_pages == []
        state, token, _, quality = chip.store.entry(0)
        assert state == STATE_VALID
        assert token == 5
        assert quality < model.program_quality(4.75)
        assert chip.programs_committed == 1

    def test_paired_page_collateral_damage(self):
        # Program the lower page of a wordline, then tear the upper page.
        chip = make_chip(seed=3)
        chip.program_pages([6], [100])  # lower page of MLC wordline 3
        for seed in range(20):
            chip.rng = random.Random(seed)
            chip.store.discard(7)
            report = chip.apply_interruption_batch([(7, 0.1, 101)])
            if 6 in report.collateral_pages:
                break
        else:
            pytest.fail("no seed tore the upper page into its lower sibling")
        assert report.collateral_pages == [6]
        assert chip.store.entry(6)[0] == STATE_CORRUPT
        assert not chip.read_page(6).ok

    def test_power_loss_keeps_stored_charge(self):
        chip = make_chip()
        chip.program_pages([0], [9])
        chip.power_loss()
        assert not chip.powered
        chip.power_on()
        assert chip.read_page(0).token == 9


class TestRngOrder:
    """One call over N pages draws exactly what N one-page calls draw, so
    the flush batch's page grouping cannot move a campaign result."""

    def test_program_pages_matches_one_page_calls(self):
        batched, single = make_chip(seed=11), make_chip(seed=11)
        ppas = [0, 1, 2, 3, 17, 18]
        tokens = [10, 11, 12, 13, 14, 15]
        volts = [5.0, 4.4, None, 3.6, 4.6, 3.2]
        for chip in (batched, single):
            chip.voltage_source = lambda: 4.0
        batched.program_pages(ppas, tokens, volts)
        for ppa, token, page_volts in zip(ppas, tokens, volts):
            single.program_pages([ppa], [token], [page_volts])
        assert list(batched.store.iter_entries()) == list(single.store.iter_entries())
        assert batched.rng.getstate() == single.rng.getstate()
        assert batched.programs_committed == single.programs_committed == len(ppas)

    def test_apply_interruption_batch_matches_one_page_calls(self):
        batched, single = make_chip(seed=5), make_chip(seed=5)
        for chip in (batched, single):
            chip.program_pages([0, 2, 4, 6, 8, 10], [1, 2, 3, 4, 5, 6])
            chip.voltage_source = lambda: 3.4
        torn = [
            (1, 0.05, 21),
            (3, 0.5, 22),
            (5, 0.99, 23),
            (7, 1.0, 24),
            (9, 0.3, 25),
            (11, 0.97, 26),
        ]
        report = batched.apply_interruption_batch(torn)
        corrupted, collateral = [], []
        for item in torn:
            sub = single.apply_interruption_batch([item])
            corrupted += sub.corrupted_pages
            collateral += sub.collateral_pages
        # The batch exercised every branch: torn, survived, and collateral.
        assert report.corrupted_pages and report.collateral_pages
        assert batched.programs_committed > 6
        assert report.corrupted_pages == corrupted
        assert report.collateral_pages == collateral
        assert list(batched.store.iter_entries()) == list(single.store.iter_entries())
        assert batched.rng.getstate() == single.rng.getstate()
        assert batched.programs_committed == single.programs_committed


class TestEccInteraction:
    def test_weak_page_uncorrectable_under_bch_but_fine_under_ldpc(self):
        # Force a deterministic raw error count between the two budgets.
        for scheme, expect_ok in ((EccScheme.bch(), False), (EccScheme.ldpc(), True)):
            chip = make_chip(ecc=scheme)
            chip.program_pages([0], [5])
            chip.store.set_error_bits(0, 100)  # between 60 (BCH) and 130 (LDPC)
            result = chip.read_page(0)
            assert result.ok is expect_ok
            if not expect_ok:
                assert result.token is None
                assert chip.uncorrectable_reads == 1

    def test_inspect_run_decides_like_read_page_and_changes_nothing(self):
        # Clean, at the budget, retried, uncorrectable, torn and erased
        # pages over two blocks, with an unmapped page between them.
        chip = make_chip(ecc=EccScheme("BCH", 60, read_retry_factor=0.45))
        chip.program_pages([0, 1, 2, 3, 16], [10, 11, 12, 13, 14])
        for ppa, bits in ((0, 0), (1, 60), (2, 100), (3, 200), (16, 0)):
            chip.store.set_error_bits(ppa, bits)
        chip.store.corrupt(17)
        ppas = [0, 1, 2, 3, 4, None, 16, 17, 40]
        before = list(chip.store.iter_entries()), chip.rng.getstate()
        assert chip.inspect_run(ppas) == [
            10, 11, 12, CORRUPT_TOKEN, None, None, 14, CORRUPT_TOKEN, None
        ]
        assert (list(chip.store.iter_entries()), chip.rng.getstate()) == before
        assert chip.reads_served == chip.read_retries == chip.uncorrectable_reads == 0
        # A negative error count fails the ECC decision, as on a read.
        chip.store.set_error_bits(0, -1)
        with pytest.raises(ConfigurationError):
            chip.inspect_run([0])
        with pytest.raises(ConfigurationError):
            chip.read_page(0)

    def test_statistics_counters(self):
        chip = make_chip()
        chip.program_pages([0], [1])
        chip.read_page(0)
        chip.erase_block_now(0)
        assert chip.programs_committed == 1
        assert chip.reads_served == 1
        assert chip.erases_committed == 1

    def test_counts(self):
        chip = make_chip()
        chip.program_pages([0, 1], [1, 2])
        assert chip.written_page_count() == 2
        assert chip.valid_page_count() == 2
