"""Tests for the page map and extent map."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import AddressError
from repro.ftl import Extent, ExtentMap, PageMap


class TestPageMap:
    def test_bind_and_lookup(self):
        m = PageMap()
        assert m.bind(5, 100) is None
        assert m.lookup(5) == 100

    def test_rebind_returns_old(self):
        m = PageMap()
        m.bind(5, 100)
        assert m.bind(5, 200) == 100
        assert m.lookup(5) == 200

    def test_unbind(self):
        m = PageMap()
        m.bind(5, 100)
        assert m.unbind(5) == 100
        assert m.lookup(5) is None
        assert m.unbind(5) is None

    def test_restore_none_unmaps(self):
        m = PageMap()
        m.bind(5, 100)
        m.restore(5, None)
        assert 5 not in m

    def test_restore_old_value(self):
        m = PageMap()
        m.bind(5, 200)
        m.restore(5, 100)
        assert m.lookup(5) == 100

    def test_negative_addresses_rejected(self):
        m = PageMap()
        with pytest.raises(AddressError):
            m.lookup(-1)
        with pytest.raises(AddressError):
            m.bind(-1, 5)
        with pytest.raises(AddressError):
            m.bind(1, -5)

    @given(
        st.lists(st.tuples(st.integers(0, 40), st.integers(0, 9999)), max_size=30),
        st.integers(0, 40),
        st.lists(st.integers(0, 9999), min_size=1, max_size=12),
    )
    def test_bind_run_matches_one_bind_per_page(self, earlier, start, ppas):
        run, pages = PageMap(), PageMap()
        for lpn, ppa in earlier:
            run.bind(lpn, ppa)
            pages.bind(lpn, ppa)
        lpns = list(range(start, start + len(ppas)))
        displaced = run.bind_run(lpns, ppas)
        assert displaced == [pages.bind(lpn, ppa) for lpn, ppa in zip(lpns, ppas)]
        assert run.lookup_run(0, 60) == pages.lookup_run(0, 60)

    def test_bind_run_rejects_negative_addresses(self):
        with pytest.raises(AddressError):
            PageMap().bind_run([-1, 0], [5, 6])
        with pytest.raises(AddressError):
            PageMap().bind_run([1, 2], [5, -6])

    def test_len_and_entry_count(self):
        m = PageMap()
        for i in range(10):
            m.bind(i, i + 100)
        assert len(m) == 10
        assert m.entry_count() == 10


class TestExtent:
    def test_translate(self):
        e = Extent(100, 5000, 8)
        assert e.translate(100) == 5000
        assert e.translate(107) == 5007

    def test_translate_outside_raises(self):
        with pytest.raises(AddressError):
            Extent(100, 5000, 8).translate(108)

    def test_lpns_iteration(self):
        assert list(Extent(3, 0, 2).lpns()) == [3, 4]


class TestExtentMap:
    def test_insert_and_lookup(self):
        m = ExtentMap()
        m.insert(Extent(100, 5000, 8))
        assert m.lookup(100) == 5000
        assert m.lookup(107) == 5007
        assert m.lookup(108) is None
        assert m.lookup(99) is None

    def test_entry_count_one_per_run(self):
        m = ExtentMap()
        m.insert(Extent(0, 0, 1000))
        assert m.entry_count() == 1
        assert m.mapped_page_count() == 1000

    def test_try_extend_success(self):
        m = ExtentMap()
        m.insert(Extent(100, 5000, 8))
        grown = m.try_extend(108, 5008, 4)
        assert grown is not None
        assert grown.length == 12
        assert m.lookup(111) == 5011
        assert m.entry_count() == 1

    def test_try_extend_requires_physical_continuity(self):
        m = ExtentMap()
        m.insert(Extent(100, 5000, 8))
        assert m.try_extend(108, 9999, 4) is None

    def test_try_extend_requires_logical_adjacency(self):
        m = ExtentMap()
        m.insert(Extent(100, 5000, 8))
        assert m.try_extend(110, 5008, 4) is None

    def test_insert_overlap_displaces(self):
        m = ExtentMap()
        m.insert(Extent(100, 5000, 8))
        displaced = m.insert(Extent(104, 7000, 2))
        assert len(displaced) == 1
        assert displaced[0].start_lpn == 104
        assert displaced[0].start_ppa == 5004
        assert displaced[0].length == 2
        # Fringes survive with correct translations.
        assert m.lookup(103) == 5003
        assert m.lookup(104) == 7000
        assert m.lookup(105) == 7001
        assert m.lookup(106) == 5006
        assert m.entry_count() == 3

    def test_insert_swallowing_several_runs(self):
        m = ExtentMap()
        m.insert(Extent(0, 100, 4))
        m.insert(Extent(10, 200, 4))
        displaced = m.insert(Extent(0, 900, 20))
        assert len(displaced) == 2
        assert m.entry_count() == 1
        assert m.lookup(12) == 912

    def test_unmap_range(self):
        m = ExtentMap()
        m.insert(Extent(0, 100, 10))
        displaced = m.unmap_range(3, 6)
        assert len(displaced) == 1
        assert m.lookup(2) == 102
        assert m.lookup(3) is None
        assert m.lookup(6) == 106

    def test_remove_unknown_raises(self):
        with pytest.raises(AddressError):
            ExtentMap().remove(5)

    def test_zero_length_rejected(self):
        with pytest.raises(AddressError):
            ExtentMap().insert(Extent(0, 0, 0))

    def test_covering_extent(self):
        m = ExtentMap()
        m.insert(Extent(10, 0, 5))
        assert m.covering_extent(12).start_lpn == 10
        assert m.covering_extent(20) is None

    @given(
        st.lists(
            st.tuples(st.integers(0, 200), st.integers(1, 30)),
            min_size=1,
            max_size=25,
        )
    )
    def test_property_matches_reference_dict(self, runs):
        """The extent map must translate exactly like a plain per-page dict."""
        m = ExtentMap()
        reference = {}
        next_ppa = 0
        for start, length in runs:
            m.insert(Extent(start, next_ppa, length))
            for offset in range(length):
                reference[start + offset] = next_ppa + offset
            next_ppa += length
        for lpn in range(0, 240):
            assert m.lookup(lpn) == reference.get(lpn)
        assert m.mapped_page_count() == len(reference)
