"""Tests for the map journal, wear leveler, and garbage collector."""

import heapq
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.ftl import Ftl, FtlConfig, MapJournal, MapUpdate, WearLeveler
from repro.ftl.ftl import STREAM_RANDOM
from repro.host import HostSystem
from repro.nand import FlashChip, NandGeometry
from repro.sim import Kernel
from repro.ssd import models
from repro.units import MIB, MSEC


class TestMapJournal:
    def test_periodic_commit(self):
        k = Kernel()
        committed = []
        j = MapJournal(k, 100 * MSEC, on_commit=committed.extend)
        j.start()
        j.record(MapUpdate("page", k.now, [1], {1: None}))
        k.run(until=150 * MSEC)
        assert len(committed) == 1
        assert j.pending_count == 0
        assert j.commits == 1

    def test_no_commit_when_empty(self):
        k = Kernel()
        j = MapJournal(k, 100 * MSEC)
        j.start()
        k.run(until=500 * MSEC)
        assert j.commits == 0

    def test_stranded_updates_after_stop(self):
        k = Kernel()
        j = MapJournal(k, 100 * MSEC)
        j.start()
        k.run(until=50 * MSEC)
        j.record(MapUpdate("page", k.now, [1], {1: None}))
        j.stop()
        k.run(until=1000 * MSEC)
        assert j.commits == 0
        assert len(j.stranded_updates()) == 1

    def test_oldest_pending_age(self):
        k = Kernel()
        j = MapJournal(k, 10_000 * MSEC)
        assert j.oldest_pending_age_us(k.now) is None
        j.record(MapUpdate("page", 0, [1], {1: None}))
        k.run(until=30 * MSEC)
        assert j.oldest_pending_age_us(k.now) == 30 * MSEC

    def test_manual_commit_returns_count(self):
        k = Kernel()
        j = MapJournal(k, MSEC)
        j.record(MapUpdate("page", 0, [1], {}))
        j.record(MapUpdate("page", 0, [2], {}))
        assert j.commit() == 2
        assert j.commit() == 0

    def test_invalid_interval(self):
        with pytest.raises(ConfigurationError):
            MapJournal(Kernel(), 0)


class TestWearLeveler:
    def test_take_freest_prefers_low_wear(self):
        wl = WearLeveler(4)
        wl.free_blocks(range(4))
        assert wl.take_freest() == 0
        wl.note_erase(1)
        wl.note_erase(1)
        wl.free_block(0)  # back with zero erases... (never erased)
        assert wl.take_freest() == 0

    def test_double_free_rejected(self):
        wl = WearLeveler(2)
        wl.free_block(0)
        with pytest.raises(ConfigurationError):
            wl.free_block(0)

    def test_exhaustion_raises(self):
        wl = WearLeveler(1)
        with pytest.raises(ConfigurationError):
            wl.take_freest()

    def test_wear_spread(self):
        wl = WearLeveler(3)
        assert wl.wear_spread() == 0
        wl.note_erase(0)
        wl.note_erase(0)
        wl.note_erase(1)
        assert wl.wear_spread() == 2
        assert wl.total_erases() == 3

    def test_stale_heap_entries_skipped(self):
        wl = WearLeveler(2)
        wl.free_block(0)
        wl.free_block(1)
        taken = wl.take_freest()
        wl.note_erase(taken)
        wl.free_block(taken)  # re-enters heap with new wear
        assert wl.take_freest() == 1  # the never-erased block wins
        assert wl.free_count == 1


class EagerWearLeveler:
    """Reference model: one heap and one set hold every free block.

    Every freed block is pushed on its own, so the order of
    :meth:`take_freest` is the heap's by construction.  ``WearLeveler`` must
    match it call for call.
    """

    def __init__(self, block_count):
        self.block_count = block_count
        self.erase_counts = {}
        self._free_heap = []  # (erase_count, block)
        self._free_set = set()

    def _check(self, block):
        if not 0 <= block < self.block_count:
            raise ConfigurationError(f"block {block} out of range")

    def note_erase(self, block):
        self._check(block)
        count = self.erase_counts.get(block, 0) + 1
        self.erase_counts[block] = count
        return count

    def free_block(self, block):
        self._check(block)
        if block in self._free_set:
            raise ConfigurationError(f"block {block} freed twice")
        self._free_set.add(block)
        heapq.heappush(self._free_heap, (self.erase_counts.get(block, 0), block))

    def free_blocks(self, blocks):
        for block in blocks:
            self.free_block(block)

    def take_freest(self):
        while self._free_heap:
            _, block = heapq.heappop(self._free_heap)
            if block in self._free_set:
                self._free_set.remove(block)
                return block
        raise ConfigurationError("no free blocks available")

    @property
    def free_count(self):
        return len(self._free_set)

    def is_free(self, block):
        return block in self._free_set


def _outcome(call, *args):
    try:
        return "ok", call(*args)
    except ConfigurationError as exc:
        return "error", str(exc)


class TestWearPoolAgainstEagerModel:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 10), st.data())
    def test_every_call_matches(self, block_count, data):
        real, ref = WearLeveler(block_count), EagerWearLeveler(block_count)
        blocks = st.integers(-1, block_count)  # one out of range at each end
        ops = ["free_blocks", "free_block", "take_freest", "note_erase", "is_free"]
        for _ in range(data.draw(st.integers(1, 40))):
            op = data.draw(st.sampled_from(ops))
            if op == "free_blocks":
                start = data.draw(blocks)
                stop = data.draw(st.one_of(st.just(block_count), blocks))
                args = (range(start, stop, data.draw(st.integers(1, 2))),)
            elif op == "take_freest":
                args = ()
            else:
                args = (data.draw(blocks),)
            assert _outcome(getattr(real, op), *args) == _outcome(
                getattr(ref, op), *args
            ), (op, args)
            assert real.free_count == ref.free_count
            assert [b for b in range(block_count) if real.is_free(b)] == sorted(
                ref._free_set
            )
            assert real.erase_counts == ref.erase_counts


class TestConstructionCost:
    def test_ssd_a_host_allocates_under_one_mib(self):
        # Nothing built with a device may grow with its capacity: ssd-a has
        # 131,072 blocks, and a per-block free pool alone costs 16 MiB.
        config = models.by_name("ssd-a")
        HostSystem(config=config)  # first build pays for lazy imports
        tracemalloc.start()
        try:
            HostSystem(config=config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 * MIB


def tiny_ftl(seed=0, **config_kwargs):
    """An FTL over a deliberately tiny array so GC triggers quickly."""
    k = Kernel()
    geometry = NandGeometry(
        channels=1,
        dies_per_channel=1,
        planes_per_die=1,
        blocks_per_plane=16,
        pages_per_block=8,
    )
    chip = FlashChip(k, geometry, rng=random.Random(seed))
    config = FtlConfig(
        gc_low_watermark=3, gc_high_watermark=6, **config_kwargs
    )
    ftl = Ftl(k, chip, config, random.Random(seed + 1))
    return k, chip, ftl


class TestGarbageCollection:
    def test_gc_reclaims_overwritten_blocks(self):
        k, chip, ftl = tiny_ftl()
        # Overwrite the same 8 LPNs many times: stale pages accumulate and
        # the collector must keep the device writable well past raw capacity.
        for round_index in range(40):
            plan = ftl.prepare_write(list(range(8)), STREAM_RANDOM)
            ftl.commit_write(plan, tokens=[1000 + round_index * 8 + i for i in range(8)])
        assert ftl.gc.blocks_reclaimed > 0
        # Latest data still readable.
        for lpn in range(8):
            assert ftl.read(lpn).token == 1000 + 39 * 8 + lpn

    def test_gc_relocates_live_data_intact(self):
        k, chip, ftl = tiny_ftl()
        plan = ftl.prepare_write([100, 101], STREAM_RANDOM)
        ftl.commit_write(plan, tokens=[7, 8])
        # Fill the array with churn on other addresses to force relocation.
        for round_index in range(40):
            plan = ftl.prepare_write(list(range(8)), STREAM_RANDOM)
            ftl.commit_write(plan, tokens=[2000 + round_index * 8 + i for i in range(8)])
        assert ftl.read(100).token == 7
        assert ftl.read(101).token == 8

    def test_gc_counts_background_cost(self):
        k, chip, ftl = tiny_ftl()
        for round_index in range(40):
            plan = ftl.prepare_write(list(range(8)), STREAM_RANDOM)
            ftl.commit_write(plan, tokens=[3000 + round_index * 8 + i for i in range(8)])
        assert ftl.consume_background_us() > 0
        assert ftl.consume_background_us() == 0  # drained

    def test_wear_spreads_across_blocks(self):
        k, chip, ftl = tiny_ftl()
        for round_index in range(80):
            plan = ftl.prepare_write(list(range(8)), STREAM_RANDOM)
            ftl.commit_write(plan, tokens=[round_index * 8 + i + 1 for i in range(8)])
        # Greedy GC + min-wear allocation keeps spread modest.
        assert ftl.wear.wear_spread() <= ftl.wear.total_erases()
        assert ftl.wear.total_erases() > 10
