"""Tests for NAND geometry and address math."""

import dataclasses
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.nand import NandGeometry, PhysicalPageAddress
from repro.units import GIB


SMALL = NandGeometry(
    channels=2, dies_per_channel=2, planes_per_die=2, blocks_per_plane=4, pages_per_block=8
)


class TestDerivedSizes:
    def test_default_capacity_128gib(self):
        assert NandGeometry().capacity_bytes == 128 * GIB

    def test_counts(self):
        assert SMALL.dies == 4
        assert SMALL.planes == 8
        assert SMALL.blocks == 32
        assert SMALL.total_pages == 256

    def test_block_size(self):
        assert SMALL.block_size == 8 * 4096

    def test_counts_after_replace(self):
        geo = dataclasses.replace(SMALL, channels=3, blocks_per_plane=5)
        assert (geo.dies, geo.planes, geo.blocks) == (6, 12, 60)
        assert geo.total_pages == 480

    def test_counts_after_pickle_roundtrip(self):
        geo = pickle.loads(pickle.dumps(SMALL))
        assert geo == SMALL and hash(geo) == hash(SMALL)
        assert (geo.dies, geo.planes, geo.blocks, geo.total_pages) == (4, 8, 32, 256)

    def test_asdict_has_only_the_six_fields(self):
        assert dataclasses.asdict(SMALL) == {
            "channels": 2,
            "dies_per_channel": 2,
            "planes_per_die": 2,
            "blocks_per_plane": 4,
            "pages_per_block": 8,
            "page_size": 4096,
        }

    def test_invalid_field_rejected(self):
        with pytest.raises(ConfigurationError):
            NandGeometry(channels=0)
        with pytest.raises(ConfigurationError):
            NandGeometry(page_size=1000)


class TestAddressMath:
    def test_encode_decode_roundtrip_exhaustive_small(self):
        for ppa in range(SMALL.total_pages):
            assert SMALL.encode(SMALL.decode(ppa)) == ppa

    def test_decode_fields(self):
        addr = SMALL.decode(SMALL.total_pages - 1)
        assert addr == PhysicalPageAddress(1, 1, 1, 3, 7)

    def test_out_of_range_rejected(self):
        with pytest.raises(ConfigurationError):
            SMALL.decode(SMALL.total_pages)
        with pytest.raises(ConfigurationError):
            SMALL.encode(PhysicalPageAddress(0, 0, 0, 0, 8))

    def test_block_of_and_page_in_block(self):
        ppa = 3 * SMALL.pages_per_block + 5
        assert SMALL.block_of(ppa) == 3
        assert SMALL.page_in_block(ppa) == 5

    def test_first_page_of_block(self):
        assert SMALL.first_page_of_block(2) == 16
        with pytest.raises(ConfigurationError):
            SMALL.first_page_of_block(SMALL.blocks)

    def test_iter_block_pages(self):
        pages = list(SMALL.iter_block_pages(1))
        assert pages == list(range(8, 16))

    def test_die_of_spans_channels(self):
        dies = {SMALL.die_of(SMALL.first_page_of_block(b)) for b in range(SMALL.blocks)}
        assert dies == set(range(SMALL.dies))

    @given(st.integers(0, SMALL.total_pages - 1))
    def test_roundtrip_property(self, ppa):
        assert SMALL.encode(SMALL.decode(ppa)) == ppa


class TestForCapacity:
    def test_at_least_requested(self):
        geo = NandGeometry.for_capacity(120 * GIB)
        assert geo.capacity_bytes >= 120 * GIB

    def test_small_capacity_clamped(self):
        geo = NandGeometry.for_capacity(1)
        assert geo.blocks_per_plane == 8

    def test_invalid_capacity(self):
        with pytest.raises(ConfigurationError):
            NandGeometry.for_capacity(0)
