"""Equivalence of the columnar page store and a naive reference model.

Hypothesis property tests drive the columnar
:class:`~repro.nand.pagestore.ArrayPageStore` and an independently written
naive per-page reference model through random operation sequences,
comparing every return value and the full array dump after each op.  The
store is a pure state container (all RNG draws stay in ``FlashChip`` in
per-page order), so any divergence is a store bug, not noise.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nand.geometry import NandGeometry
from repro.nand.pagestore import (
    STATE_CORRUPT,
    STATE_ERASED,
    STATE_VALID,
    ArrayPageStore,
)

# -- property tests vs a naive per-page reference model ------------------------------


class NaiveStore:
    """Deliberately simple dict-of-lists model of the store semantics.

    Written from the documented contract, not from the implementation, so a
    bug in the real store trips the comparison.
    """

    def __init__(self, geometry: NandGeometry) -> None:
        self.geometry = geometry
        self.pages: Dict[int, List] = {}  # ppa -> [state, token, err, quality]

    def entry(self, ppa: int) -> Optional[Tuple[int, int, int, float]]:
        row = self.pages.get(ppa)
        return None if row is None else tuple(row)

    def state_of(self, ppa: int) -> int:
        row = self.pages.get(ppa)
        return STATE_ERASED if row is None else row[0]

    def program(self, ppa: int, token: int, err: int, quality: float) -> None:
        self.pages[ppa] = [STATE_VALID, token, err, quality]

    def corrupt(self, ppa: int) -> None:
        self.pages[ppa] = [STATE_CORRUPT, 0, 0, 1.0]

    def corrupt_if_valid(self, ppa: int) -> bool:
        if self.state_of(ppa) != STATE_VALID:
            return False
        self.corrupt(ppa)
        return True

    def add_error_bits_if_valid(self, ppa: int, bits: int) -> bool:
        if self.state_of(ppa) != STATE_VALID:
            return False
        self.pages[ppa][2] += bits
        return True

    def set_error_bits(self, ppa: int, bits: int) -> bool:
        if ppa not in self.pages:
            return False
        self.pages[ppa][2] = bits
        return True

    def discard(self, ppa: int) -> bool:
        return self.pages.pop(ppa, None) is not None

    def _block_range(self, block: int) -> range:
        ppb = self.geometry.pages_per_block
        return range(block * ppb, (block + 1) * ppb)

    def erase_block(self, block: int) -> None:
        for ppa in self._block_range(block):
            self.pages.pop(ppa, None)

    def corrupt_valid_in_block(self, block: int) -> List[int]:
        victims = [
            ppa for ppa in self._block_range(block) if self.state_of(ppa) == STATE_VALID
        ]
        for ppa in victims:
            self.corrupt(ppa)
        return victims

    def scan_valid(self, block: int) -> List[int]:
        return [
            ppa for ppa in self._block_range(block) if self.state_of(ppa) == STATE_VALID
        ]

    def iter_entries(self):
        for ppa in sorted(self.pages):
            yield (ppa, *self.pages[ppa])

    def age_retention(self, bits_per_hour, hours, can_correct) -> int:
        newly = 0
        for row in self.pages.values():
            if row[0] != STATE_VALID:
                continue
            fragility = 1.0 + 9.0 * (1.0 - row[3])
            grown = max(0, round(bits_per_hour * fragility * hours))
            if grown:
                before = row[2]
                row[2] = before + grown
                if can_correct(before) and not can_correct(before + grown):
                    newly += 1
        return newly

    def written_count(self) -> int:
        return len(self.pages)

    def valid_count(self) -> int:
        return sum(1 for row in self.pages.values() if row[0] == STATE_VALID)

    def corrupt_count(self) -> int:
        return sum(1 for row in self.pages.values() if row[0] == STATE_CORRUPT)


_TINY = NandGeometry(
    channels=1,
    dies_per_channel=1,
    planes_per_die=1,
    blocks_per_plane=4,
    pages_per_block=8,
)
_PAGES = _TINY.total_pages
_BLOCKS = _TINY.blocks

_ppa = st.integers(min_value=0, max_value=_PAGES - 1)
_block = st.integers(min_value=0, max_value=_BLOCKS - 1)
_token = st.integers(min_value=-(2**63), max_value=2**63 - 1)
_err = st.integers(min_value=0, max_value=10_000)
_quality = st.floats(min_value=0.05, max_value=1.0, allow_nan=False)

_op = st.one_of(
    st.tuples(st.just("program"), _ppa, _token, _err, _quality),
    st.tuples(st.just("corrupt"), _ppa),
    st.tuples(st.just("corrupt_if_valid"), _ppa),
    st.tuples(st.just("add_error_bits_if_valid"), _ppa, _err),
    st.tuples(st.just("set_error_bits"), _ppa, _err),
    st.tuples(st.just("discard"), _ppa),
    st.tuples(st.just("erase_block"), _block),
    st.tuples(st.just("corrupt_valid_in_block"), _block),
    st.tuples(st.just("scan_valid"), _block),
    st.tuples(st.just("age_retention"), st.floats(min_value=0.0, max_value=50.0)),
)


def _dump(store) -> list:
    return list(store.iter_entries())


def _counters(store) -> tuple:
    return (store.written_count(), store.valid_count(), store.corrupt_count())


_CAN_CORRECT = lambda bits: bits <= 40  # noqa: E731 - tiny ECC stand-in


class TestPropertyEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(ops=st.lists(_op, max_size=60))
    def test_random_op_sequences_agree(self, ops):
        stores = [ArrayPageStore(_TINY), NaiveStore(_TINY)]
        for op in ops:
            name, args = op[0], op[1:]
            if name == "age_retention":
                results = [
                    s.age_retention(args[0], 1.0, _CAN_CORRECT) for s in stores
                ]
            else:
                results = [getattr(s, name)(*args) for s in stores]
            assert results[0] == results[1], (name, args)
        dumps = [_dump(s) for s in stores]
        assert dumps[0] == dumps[1]
        counts = [_counters(s) for s in stores]
        assert counts[0] == counts[1]

    @settings(max_examples=100, deadline=None)
    @given(ops=st.lists(_op, max_size=40), probe=_ppa)
    def test_point_reads_agree_after_any_sequence(self, ops, probe):
        stores = [ArrayPageStore(_TINY), NaiveStore(_TINY)]
        for op in ops:
            name, args = op[0], op[1:]
            if name == "age_retention":
                for s in stores:
                    s.age_retention(args[0], 1.0, _CAN_CORRECT)
            else:
                for s in stores:
                    getattr(s, name)(*args)
        entries = [s.entry(probe) for s in stores]
        states = [s.state_of(probe) for s in stores]
        assert entries[0] == entries[1]
        assert states[0] == states[1]

    def test_erase_drops_chunk_and_counters(self):
        store = ArrayPageStore(_TINY)
        for ppa in range(8):
            store.program(ppa, token=ppa + 1, err=0, quality=1.0)
        store.corrupt(3)
        assert _counters(store) == (8, 7, 1)
        store.erase_block(0)
        assert _counters(store) == (0, 0, 0)
        assert store.entry(3) is None
        assert not store._chunks  # lazily-allocated chunk must be released

    def test_scan_and_corrupt_orderings_are_ascending(self):
        store = ArrayPageStore(_TINY)
        for ppa in (7, 2, 5):
            store.program(ppa, token=1, err=0, quality=1.0)
        assert store.scan_valid(0) == [2, 5, 7]
        assert store.corrupt_valid_in_block(0) == [2, 5, 7]
        assert store.scan_valid(0) == []
