"""Tests for the write cache, flush policy, and supercap model."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cache import FlushPolicy, SupercapBackup, WriteCache
from repro.errors import ConfigurationError
from repro.units import MSEC


class TestWriteCache:
    def test_insert_and_dirty_count(self):
        cache = WriteCache()
        assert cache.insert_run(1, [10]) == 0
        assert cache.dirty_count == 1
        assert cache.dirty_bytes == 4096

    def test_coalesce_on_same_lpn(self):
        cache = WriteCache()
        cache.insert_run(1, [10])
        assert cache.insert_run(1, [20]) == 1
        assert cache.dirty_count == 1
        assert cache.read_run(1, 1) == [20]
        assert cache.coalesces == 1

    def test_run_counts_each_page(self):
        cache = WriteCache()
        assert cache.insert_run(4, [1, 2, 3]) == 0
        assert cache.insert_run(5, [4, 5, 6]) == 2  # LPNs 5 and 6 coalesce
        assert (cache.inserts, cache.coalesces, cache.peak_dirty) == (6, 2, 4)
        assert cache.read_run(3, 5) == [None, 1, 4, 5, 6]

    def test_coalesce_keeps_fifo_position(self):
        cache = WriteCache()
        for lpn in (5, 3, 9):
            cache.insert_run(lpn, [lpn * 10])
        cache.insert_run(5, [99])
        assert cache.take_batch(3) == ([5, 3, 9], [99, 30, 90])

    def test_fifo_batch_order(self):
        cache = WriteCache()
        for lpn in (5, 3, 9):
            cache.insert_run(lpn, [lpn * 10])
        lpns, tokens = cache.take_batch(2)
        assert lpns == [5, 3]
        assert tokens == [50, 30]
        assert cache.dirty_count == 1

    def test_take_batch_validation(self):
        with pytest.raises(ConfigurationError):
            WriteCache().take_batch(0)

    def test_read_hit_miss_statistics(self):
        cache = WriteCache()
        cache.insert_run(1, [10])
        assert cache.read_run(1, 2) == [10, None]
        assert cache.read_hits == 1
        assert cache.read_misses == 1

    def test_drop_all(self):
        cache = WriteCache()
        cache.insert_run(1, [10, 20])
        lost = cache.drop_all()
        assert len(lost) == 2
        assert cache.dirty_count == 0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            WriteCache().insert_run(-1, [1])

    @given(st.lists(st.tuples(st.integers(0, 20), st.integers(1, 100)), max_size=60))
    def test_property_last_write_wins(self, writes):
        """The cache must always surface the latest token per LPN."""
        cache = WriteCache()
        latest = {}
        for lpn, token in writes:
            cache.insert_run(lpn, [token])
            latest[lpn] = token
        for lpn, token in latest.items():
            assert cache.read_run(lpn, 1) == [token]
        assert cache.dirty_count == len(latest)

    @given(st.lists(st.integers(0, 30), min_size=1, max_size=60))
    def test_property_take_batch_drains_everything_once(self, lpns):
        cache = WriteCache()
        for now, lpn in enumerate(lpns):
            cache.insert_run(lpn, [now + 1])
        seen = []
        while cache.dirty_count:
            seen.extend(cache.take_batch(7)[0])
        assert sorted(seen) == sorted(set(lpns))


class TestFlushPolicy:
    def test_throttle_boundary(self):
        policy = FlushPolicy(batch_pages=8, max_dirty_pages=64)
        assert not policy.throttled(56, 8)
        assert policy.throttled(57, 8)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            FlushPolicy(batch_pages=0)
        with pytest.raises(ConfigurationError):
            FlushPolicy(linger_us=-1)
        with pytest.raises(ConfigurationError):
            FlushPolicy(batch_pages=64, max_dirty_pages=32)

    def test_oversized_write_admits_against_empty_cache(self):
        # Regression: a write larger than max_dirty_pages used to satisfy
        # `dirty + incoming > max` forever — even against a fully drained
        # cache — deadlocking the host on a single oversized command.
        policy = FlushPolicy(batch_pages=8, max_dirty_pages=64)
        assert not policy.throttled(0, 65)
        assert not policy.throttled(0, 10_000)
        # With anything still dirty, the oversized write waits for drain.
        assert policy.throttled(1, 65)
        assert policy.throttled(64, 65)

    @given(
        dirty=st.integers(0, 512),
        incoming=st.integers(1, 512),
        max_dirty=st.integers(8, 256),
    )
    def test_property_throttle_always_clears(self, dirty, incoming, max_dirty):
        """Every throttled write becomes admissible once the cache drains."""
        policy = FlushPolicy(batch_pages=8, max_dirty_pages=max_dirty)
        assert not policy.throttled(0, incoming)
        if policy.throttled(dirty, incoming):
            assert dirty > 0


class TestSupercap:
    def test_destage_time(self):
        cap = SupercapBackup(hold_time_us=10 * MSEC)
        assert cap.destage_time_us(32, page_write_us=1000, parallelism=8) == 4000
        assert cap.destage_time_us(0, page_write_us=1000, parallelism=8) == 0

    def test_can_destage(self):
        cap = SupercapBackup(hold_time_us=10 * MSEC)
        assert cap.can_destage(80, page_write_us=1000, parallelism=8)
        assert not cap.can_destage(96, page_write_us=1000, parallelism=8)

    def test_destageable_pages(self):
        cap = SupercapBackup(hold_time_us=10 * MSEC)
        assert cap.destageable_pages(page_write_us=1000, parallelism=8) == 80

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SupercapBackup(hold_time_us=0)
        cap = SupercapBackup()
        with pytest.raises(ConfigurationError):
            cap.destage_time_us(-1, 1000, 8)
        with pytest.raises(ConfigurationError):
            cap.destageable_pages(0, 8)
        with pytest.raises(ConfigurationError):
            cap.can_destage(-1, 1000, 8)

    def test_boundary_agreement(self):
        # The two views of the energy budget must agree exactly at the
        # boundary: the last destageable page fits, one more does not, and
        # the destage-time view says the same thing.
        cap = SupercapBackup(hold_time_us=10 * MSEC)
        limit = cap.destageable_pages(page_write_us=1000, parallelism=8)
        assert cap.can_destage(limit, 1000, 8)
        assert not cap.can_destage(limit + 1, 1000, 8)
        assert cap.destage_time_us(limit, 1000, 8) <= cap.hold_time_us
        assert cap.destage_time_us(limit + 1, 1000, 8) > cap.hold_time_us

    @given(
        hold=st.integers(1, 200_000),
        pages=st.integers(0, 4096),
        page_write=st.integers(1, 50_000),
        parallelism=st.integers(1, 64),
    )
    def test_property_can_destage_iff_within_destageable(
        self, hold, pages, page_write, parallelism
    ):
        """``can_destage(n) ⇔ n <= destageable_pages(...)`` for all inputs,
        including the partial-final-round boundary, and both agree with the
        destage-time budget check."""
        cap = SupercapBackup(hold_time_us=hold)
        limit = cap.destageable_pages(page_write, parallelism)
        fits = cap.can_destage(pages, page_write, parallelism)
        assert fits == (pages <= limit)
        assert fits == (
            cap.destage_time_us(pages, page_write, parallelism) <= hold
        )
