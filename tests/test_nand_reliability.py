"""Tests for the read-disturb and retention extensions."""

import random

import pytest

from repro.errors import ProtocolError
from repro.nand import CellKind, EccScheme, FlashChip, NandGeometry


def make_chip(seed=1, cell=CellKind.MLC, ecc=None):
    geometry = NandGeometry(
        channels=1,
        dies_per_channel=1,
        planes_per_die=1,
        blocks_per_plane=4,
        pages_per_block=16,
    )
    return FlashChip(geometry, cell=cell, ecc=ecc or EccScheme.bch(), rng=random.Random(seed))


def error_bits(chip, ppa):
    return chip.store.entry(ppa)[2]


class TestReadDisturb:
    def test_block_read_counting(self):
        chip = make_chip()
        chip.program_pages([0], [1])
        for _ in range(5):
            chip.read_page(0)
        assert chip.block_read_count(0) == 5
        assert chip.block_read_count(1) == 0

    def test_disturb_event_raises_error_bits(self):
        chip = make_chip()
        chip.READ_DISTURB_INTERVAL = 100  # accelerate for the test
        chip.program_pages(range(8), range(1, 9))
        baseline = sum(error_bits(chip, p) for p in range(8))
        for _ in range(1000):
            chip.read_page(0)
        after = sum(error_bits(chip, p) for p in range(8))
        assert chip.disturb_events > 0
        assert after > baseline

    def test_heavy_read_disturb_eventually_uncorrectable(self):
        chip = make_chip(cell=CellKind.TLC, ecc=EccScheme.bch())
        chip.READ_DISTURB_INTERVAL = 10
        chip.program_pages(range(16), range(1, 17))
        for _ in range(5000):
            chip.read_page(3)
        results = [chip.read_page(p) for p in range(16)]
        assert any(not r.ok for r in results), "hot-read block must degrade"

    def test_no_disturb_on_erased_blocks(self):
        chip = make_chip()
        chip.READ_DISTURB_INTERVAL = 10
        for _ in range(200):
            chip.read_page(40)  # block 2, never written
        assert chip.disturb_events == 0


class TestRetention:
    def test_fresh_pages_survive_short_retention(self):
        chip = make_chip()
        chip.program_pages([0], [1])
        assert chip.age_retention(24.0) == 0
        assert chip.read_page(0).ok

    def test_long_retention_grows_errors(self):
        chip = make_chip(cell=CellKind.TLC)
        chip.program_pages([0], [1])
        before = error_bits(chip, 0)
        chip.age_retention(1000.0)
        assert error_bits(chip, 0) > before

    def test_marginal_pages_decay_much_faster(self):
        chip = make_chip()
        chip.voltage_source = lambda: 5.0
        chip.program_pages([0], [1])
        chip.voltage_source = lambda: 3.6  # sagging-rail program
        chip.program_pages([1], [2])
        healthy_before = error_bits(chip, 0)
        weak_before = error_bits(chip, 1)
        chip.age_retention(100.0)
        healthy_growth = error_bits(chip, 0) - healthy_before
        weak_growth = error_bits(chip, 1) - weak_before
        assert weak_growth > 3 * healthy_growth

    def test_delayed_failure_of_discharge_window_data(self):
        """The §I 'cannot be determined clearly' effect: marginal data reads
        fine right after the fault but dies after retention."""
        chip = make_chip(ecc=EccScheme.bch())
        chip.voltage_source = lambda: 4.4  # mild sag: survives BCH today
        found = None
        for ppa in range(16):
            chip.program_pages([ppa], [ppa + 1])
            if chip.read_page(ppa).ok:
                found = ppa
                break
        assert found is not None
        newly_bad = chip.age_retention(3000.0)
        assert newly_bad > 0
        assert not chip.read_page(found).ok

    def test_negative_age_rejected(self):
        chip = make_chip()
        with pytest.raises(ProtocolError):
            chip.age_retention(-1.0)

    def test_aging_reports_transitions_only(self):
        chip = make_chip()
        chip.program_pages([0], [1])
        chip.store.set_error_bits(0, 10_000)  # already dead
        assert chip.age_retention(10.0) == 0
