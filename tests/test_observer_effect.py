"""Observing a drive must not change it.

Every auditor (the Analyzer, and through it ``check_ledger`` and
``repro replay``; the cache topology's audit; the mirror's replica views)
reads through :meth:`~repro.ssd.device.SsdDevice.peek_run`.  The property
test below faults a cache topology, damages pages of every kind, then
audits it twice with the Analyzer and the topology audit.  Every bit of
device state must be as it was: the page-store columns, the read-disturb
counts, every chip, FTL and cache counter, the SMART log and the position
of the chip's random stream.  ``peek_run`` must also agree, page by page,
with a reference written from the read rules alone.
"""

from __future__ import annotations

from typing import Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.analyzer import Analyzer
from repro.nand import EccScheme
from repro.nand.pagestore import STATE_CORRUPT, STATE_VALID
from repro.ssd.device import CORRUPT_TOKEN, SsdConfig, SsdDevice
from repro.topology import CacheTopology
from repro.units import GIB, MSEC
from repro.workload.packet import DataPacket

# LDPC has a read-retry escalation, so a page can need it to decode.
LEG = SsdConfig(
    name="observed", capacity_bytes=1 * GIB, init_time_us=20 * MSEC, ecc=EccScheme.ldpc()
)
PROBED = 64  # LPNs 0-63: writes land below 48, the rest stay unmapped
RETRY_BITS = 200  # past LDPC's 130-bit budget, within it after the retry
HOPELESS_BITS = 1_000  # past the budget even after the retry


def snapshot(ssd: SsdDevice) -> tuple:
    """Everything an observer could disturb on one device."""
    chip = ssd.chip
    cache = ssd.cache
    return (
        {
            block: tuple(bytes(column) for column in chunk)
            for block, chunk in chip.store._chunks.items()
        },
        dict(chip._block_reads),
        (
            chip.programs_committed,
            chip.reads_served,
            chip.erases_committed,
            chip.uncorrectable_reads,
            chip.disturb_events,
            chip.read_retries,
        ),
        ssd.stats(),
        (cache.inserts, cache.coalesces, cache.read_hits, cache.read_misses, cache.peak_dirty),
        ssd.smart_log().as_dict(),
        chip.rng.getstate(),
        ssd.ftl.rng.getstate(),
    )


def reference_token(ssd: SsdDevice, lpn: int) -> Optional[int]:
    """What one page reads as, from the documented rules alone."""
    cached = ssd.cache.peek(lpn)
    if cached is not None:
        return cached
    ppa = ssd.ftl.lookup(lpn)
    page = None if ppa is None else ssd.chip.store.entry(ppa)
    if page is None:
        return None
    state, token, err, _ = page
    ecc = ssd.chip.ecc
    if state == STATE_CORRUPT or round(err * ecc.read_retry_factor) > ecc.correctable_bits_per_page:
        return CORRUPT_TOKEN
    return token


def page_kind(ssd: SsdDevice, lpn: int) -> str:
    if ssd.cache.peek(lpn) is not None:
        return "cache-resident"
    ppa = ssd.ftl.lookup(lpn)
    if ppa is None:
        return "unmapped"
    page = ssd.chip.store.entry(ppa)
    if page is None:
        return "erased"
    state, _, err, _ = page
    if state == STATE_CORRUPT:
        return "corrupt"
    if err <= ssd.chip.ecc.correctable_bits_per_page:
        return "extent-mapped" if ssd.ftl.extent_map.lookup(lpn) is not None else "clean"
    if reference_token(ssd, lpn) != CORRUPT_TOKEN:
        return "retry"
    return "uncorrectable"


def faulted_topology(writes, fault_ms: int, mirror: bool) -> CacheTopology:
    topo = CacheTopology(device=LEG, policy="wb", mirror_cache=mirror, seed=3)
    topo.boot()
    # A durable base: LPNs 0-15 page-mapped, then 16-31 appended as a
    # sequential stream (an extent), the map committed.
    for lpn in (0, 16):
        topo.submit_host_write(lpn, topo.alloc_tokens(16))
        topo.run_for(100 * MSEC)
    for leg in topo.legs:
        leg.ssd.ftl.checkpoint()
    for lpn, pages in writes:
        topo.submit_host_write(lpn, topo.alloc_tokens(pages))
        topo.run_for(1 * MSEC)
    topo.run_for(fault_ms * MSEC)
    faulted = topo.inject_fault(0)
    topo.wait_dead(faulted)
    topo.drain_dead(faulted)
    topo.run_for(1500 * MSEC)
    topo.restore()
    topo.quiesce()
    return topo


def holds_data(ssd: SsdDevice, lpn: int) -> bool:
    ppa = ssd.ftl.lookup(lpn)
    page = None if ppa is None else ssd.chip.store.entry(ppa)
    return page is not None and page[0] == STATE_VALID


def damage(ssd: SsdDevice, picks, extent_page: int) -> None:
    """Give mapped pages the four damaged kinds, and cache two pages.

    ``picks`` orders the page-mapped base LPNs 1-15; the first four that
    hold valid data are damaged or cached, and one extent page is erased.
    """
    store = ssd.chip.store
    retry, hopeless, corrupt, cached = [
        lpn for lpn in picks if holds_data(ssd, lpn)
    ][:4]
    erased = extent_page
    store.set_error_bits(ssd.ftl.lookup(retry), RETRY_BITS)
    store.set_error_bits(ssd.ftl.lookup(hopeless), HOPELESS_BITS)
    store.corrupt(ssd.ftl.lookup(corrupt))
    store.discard(ssd.ftl.lookup(erased))
    ssd.cache.insert_run(cached, [10**9])
    ssd.cache.insert_run(PROBED - 1, [10**9 + 1])


class TestAuditsLeaveNoTrace:
    @settings(max_examples=40, deadline=None)
    @given(
        # Random writes stay clear of the extent at LPNs 16-31.
        writes=st.lists(
            st.tuples(st.one_of(st.integers(0, 8), st.integers(32, 40)), st.integers(1, 8)),
            min_size=1,
            max_size=12,
        ),
        fault_ms=st.integers(0, 20),
        mirror=st.booleans(),
        picks=st.permutations(range(1, 16)),
        cuts=st.lists(st.integers(1, 12), min_size=1, max_size=8),
    )
    def test_audit_twice_changes_nothing(self, writes, fault_ms, mirror, picks, cuts):
        topo = faulted_topology(writes, fault_ms, mirror)
        ssd = topo.legs[0].ssd
        damage(ssd, picks, extent_page=16 + picks[0])

        # peek_run over any cut of the range agrees with the reference.
        reference = [reference_token(ssd, lpn) for lpn in range(PROBED)]
        assert ssd.peek_run(0, PROBED) == reference
        start = 0
        for cut in cuts * PROBED:
            if start >= PROBED:
                break
            count = min(cut, PROBED - start)
            assert ssd.peek_run(start, count) == reference[start : start + count]
            start += count
        kinds = {page_kind(ssd, lpn) for lpn in range(PROBED)}
        assert kinds >= {
            "cache-resident",
            "unmapped",
            "extent-mapped",
            "erased",
            "corrupt",
            "retry",
            "uncorrectable",
        }

        before = [snapshot(leg.ssd) for leg in topo.legs]
        packets = [
            DataPacket(
                packet_id=order + 1,
                address_lpn=lpn,
                page_count=len(tokens),
                is_write=True,
                queue_time=order,
                complete_time=order,
                data_checksums=list(tokens),
            )
            for order, lpn, tokens in topo.acked
        ]
        acked = list(topo.acked)
        analyzer = Analyzer(ssd.peek_run)
        for _ in range(2):
            analyzer.verify_cycle(0, packets, [])
            topo.acked[:] = acked
            topo.audit_and_reset()
        assert [snapshot(leg.ssd) for leg in topo.legs] == before
        assert ssd.peek_run(0, PROBED) == reference
