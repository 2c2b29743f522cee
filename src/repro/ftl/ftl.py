"""The FTL facade: allocation, translation, journaling, GC, and recovery.

Write path (driven by the device's cache flusher):

1. :meth:`Ftl.prepare_write` allocates physical pages for a run of LPNs,
   keeping sequential streams physically contiguous (so they can live in the
   extent table) and random traffic in its own open block.
2. The flusher models the batch latency, then calls :meth:`Ftl.commit_batch`
   with every plan of the batch and the rail voltage each page committed
   at; the FTL programs the chip once for the batch, then per plan updates
   the RAM map, journals the update, and invalidates displaced pages.
3. On power loss the flusher commits only the batch's prefix whose commit
   instants had passed; the pages after it are torn or never written, and
   their allocated pages are simply burned (the allocator's cursor never
   revisits a page before its block is erased).

Translation precedence: the page map and extent map are kept disjoint (each
bind punches a hole in the other), so lookup order is irrelevant.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain, repeat
from operator import floordiv
from random import Random
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import AddressError, ConfigurationError, RecoveryError
from repro.ftl.extent_mapping import Extent, ExtentMap
from repro.ftl.gc import GarbageCollector
from repro.ftl.journal import MapJournal, MapUpdate
from repro.ftl.mapping import PageMap, contiguous_runs
from repro.ftl.recovery import RecoveryEngine, RecoveryReport
from repro.ftl.wear import WearLeveler
from repro.nand.chip import FlashChip, PageState, ReadResult
from repro.sim.kernel import Kernel
from repro.units import MSEC

TOKEN_JOURNAL = 0
"""Reserved token value marking FTL metadata pages."""

STREAM_RANDOM = "random"
STREAM_SEQUENTIAL = "sequential"
STREAM_META = "meta"


@dataclass(frozen=True)
class FtlConfig:
    """Behavioural knobs of the FTL.

    Attributes
    ----------
    mapping_policy:
        ``"page"`` — always page-granular entries; ``"extent"`` — every
        contiguous write becomes a run entry; ``"auto"`` — detect sequential
        streams (a write starting exactly where the previous one ended) and
        store those as extents, everything else page-granular.
    journal_commit_interval_us:
        Volatile-map staleness bound; calibrated to the paper's ~700 ms
        post-ACK failure window (§IV-A).
    page_recovery_prob / extent_recovery_prob:
        OOB-scan success probabilities used by recovery (see
        :mod:`repro.ftl.recovery`).
    journal_entries_per_page:
        Map updates serialised into one flash page at commit time.
    gc_low_watermark / gc_high_watermark:
        Free-block thresholds for the collector.
    gc_commit_on_relocate:
        When ``True``, the collector forces a map-journal commit after
        relocating a victim block's valid pages and *before* erasing the
        block, closing the window in which a power fault strands volatile
        relocation updates whose rollback targets point into the erased
        block (flushed data lost despite a durable-looking write).  Off by
        default: the paper's §IV stranded-update statistics — and the
        calibrated tests built on them — assume the commit cadence is the
        periodic timer alone.
    """

    mapping_policy: str = "auto"
    journal_commit_interval_us: int = 700 * MSEC
    page_recovery_prob: float = 0.985
    extent_recovery_prob: float = 0.962
    journal_entries_per_page: int = 512
    gc_low_watermark: int = 4
    gc_high_watermark: int = 8
    gc_commit_on_relocate: bool = False

    def __post_init__(self) -> None:
        if self.mapping_policy not in ("page", "extent", "auto"):
            raise ConfigurationError(f"unknown mapping policy {self.mapping_policy!r}")
        if self.journal_commit_interval_us <= 0:
            raise ConfigurationError("journal interval must be positive")
        if self.journal_entries_per_page <= 0:
            raise ConfigurationError("journal entries per page must be positive")


@dataclass
class WritePlan:
    """Physical placement for one batch of logical pages.

    ``lpns`` and ``ppas`` are parallel and keep input order: page ``i`` of
    the batch goes from ``lpns[i]`` to ``ppas[i]``.  ``stream`` records
    which open block family served the allocation.
    """

    lpns: List[int]
    ppas: List[int]
    stream: str

    @property
    def page_count(self) -> int:
        """Pages in the batch."""
        return len(self.lpns)


def _is_run(values: List[int]) -> bool:
    """True when ``values`` count up by one from their first element."""
    return values == list(range(values[0], values[0] + len(values)))


class Ftl:
    """Flash Translation Layer over one :class:`~repro.nand.chip.FlashChip`.

    Example
    -------
    >>> from repro.sim import Kernel
    >>> from repro.nand import FlashChip, NandGeometry
    >>> from random import Random
    >>> k = Kernel()
    >>> chip = FlashChip(NandGeometry(blocks_per_plane=16), rng=Random(0))
    >>> ftl = Ftl(k, chip, FtlConfig(), Random(1))
    >>> plan = ftl.prepare_write([7, 8], STREAM_RANDOM)
    >>> ftl.commit_write(plan, tokens=[101, 102])
    >>> ftl.read(7).token
    101
    """

    def __init__(
        self,
        kernel: Kernel,
        chip: FlashChip,
        config: FtlConfig,
        rng: Random,
    ) -> None:
        self.kernel = kernel
        self.chip = chip
        self.config = config
        self.rng = rng
        self.page_map = PageMap()
        self.extent_map = ExtentMap()
        self.journal = MapJournal(
            kernel,
            config.journal_commit_interval_us,
            on_commit=self._write_journal_pages,
        )
        self.wear = WearLeveler(chip.geometry.blocks)
        self.wear.free_blocks(range(chip.geometry.blocks))
        self.gc = GarbageCollector(
            self, config.gc_low_watermark, config.gc_high_watermark
        )
        self.recovery = RecoveryEngine(
            self, rng, config.page_recovery_prob, config.extent_recovery_prob
        )
        self.valid_counts: Dict[int, int] = {}
        self._ppa_owner: Dict[int, int] = {}
        self._open: Dict[str, Tuple[int, int]] = {}  # stream -> (block, next page)
        self._last_seq_end: Optional[int] = None
        # Background flash work (journal writes, GC copies) owed to the
        # device's time budget, in microseconds.
        self.pending_background_us = 0
        # Statistics.
        self.host_pages_written = 0
        self.journal_pages_written = 0

    def start(self) -> None:
        """Arm the periodic journal commit timer."""
        self.journal.start()

    # ------------------------------------------------------------------ allocation --

    def open_blocks(self) -> List[int]:
        """Blocks currently open for appending (excluded from GC)."""
        return [block for block, _ in self._open.values()]

    def _open_new_block(self, stream: str) -> Tuple[int, int]:
        if self.gc.needed():
            self.gc.run()
        if self.wear.free_count == 0:
            self.gc.run()
            if self.wear.free_count == 0:
                raise AddressError("flash array is full (GC found nothing to reclaim)")
        block = self.wear.take_freest()
        state = (block, 0)
        self._open[stream] = state
        self.valid_counts.setdefault(block, 0)
        return state

    def _allocate_run(self, count: int, stream: str) -> List[int]:
        """Allocate ``count`` pages; contiguous within each block."""
        geometry = self.chip.geometry
        ppas: List[int] = []
        remaining = count
        while remaining > 0:
            block, cursor = self._open.get(stream) or self._open_new_block(stream)
            if cursor >= geometry.pages_per_block:
                block, cursor = self._open_new_block(stream)
            take = min(remaining, geometry.pages_per_block - cursor)
            base = geometry.first_page_of_block(block) + cursor
            ppas.extend(range(base, base + take))
            self._open[stream] = (block, cursor + take)
            remaining -= take
        return ppas

    # ------------------------------------------------------------------ write path --

    def classify_stream(self, start_lpn: int, length: int) -> str:
        """Decide which open-block family a write belongs to."""
        if self.config.mapping_policy == "page":
            return STREAM_RANDOM
        if self.config.mapping_policy == "extent":
            return STREAM_SEQUENTIAL
        if self._last_seq_end is not None and start_lpn == self._last_seq_end:
            return STREAM_SEQUENTIAL
        return STREAM_RANDOM

    def prepare_write(self, lpns: Sequence[int], stream: Optional[str] = None) -> WritePlan:
        """Allocate physical pages for ``lpns`` (in order)."""
        lpns = list(lpns)
        if not lpns:
            raise AddressError("empty write")
        if min(lpns) < 0:
            raise AddressError("negative LPN in write")
        if stream is None:
            stream = (
                self.classify_stream(lpns[0], len(lpns))
                if _is_run(lpns)
                else STREAM_RANDOM
            )
        return WritePlan(lpns, self._allocate_run(len(lpns), stream), stream)

    def commit_write(
        self,
        plan: WritePlan,
        tokens: Sequence[int],
        volts: Union[None, float, Sequence[float]] = None,
    ) -> None:
        """Program the chip and publish the new translations of one plan.

        ``volts`` optionally gives the rail voltage at each page's true
        commit instant, or one voltage for every page (see
        :meth:`FlashChip.program_pages`).
        """
        if len(tokens) != plan.page_count:
            raise AddressError("token count does not match plan")
        self.commit_batch([plan], tokens, volts)

    def commit_batch(
        self,
        plans: Sequence[WritePlan],
        tokens: Sequence[int],
        volts: Union[None, float, Sequence[float]] = None,
    ) -> None:
        """Commit the first ``len(tokens)`` pages of ``plans``, in plan order.

        The pages go to the chip in one :meth:`FlashChip.program_pages`, so
        each draws in page order; then, plan by plan, the FTL counts its
        blocks' valid pages, records its pages' owners and publishes its
        translations (one journal :class:`MapUpdate` per plan).  A device's
        destage batch commits here whole, and its power-fault prefix too,
        which may end inside a plan.  ``volts`` is one voltage for every
        page or one per committed page.
        """
        if len(tokens) > sum(plan.page_count for plan in plans):
            raise AddressError("more tokens than planned pages")
        if not tokens:
            return
        ppas = (
            plans[0].ppas
            if len(plans) == 1
            else list(chain.from_iterable(plan.ppas for plan in plans))
        )
        self.chip.program_pages(ppas, tokens, volts)
        remaining = len(tokens)
        for plan in plans:
            if remaining <= 0:
                break
            lpns, ppas = plan.lpns, plan.ppas
            if len(lpns) > remaining:
                lpns, ppas = lpns[:remaining], ppas[:remaining]
            remaining -= len(lpns)
            self._count_valid(ppas)
            self._ppa_owner.update(zip(ppas, lpns))
            self.host_pages_written += len(lpns)
            self._publish_mapping(plan.stream, lpns, ppas)

    def _count_valid(self, ppas: List[int]) -> None:
        """Add newly programmed ``ppas`` to their blocks' valid counts."""
        ppb = self.chip.geometry.pages_per_block
        valid_counts = self.valid_counts
        block = min(ppas) // ppb
        if block == max(ppas) // ppb:
            valid_counts[block] = valid_counts.get(block, 0) + len(ppas)
            return
        for block, pages in Counter(map(floordiv, ppas, repeat(ppb))).items():
            valid_counts[block] = valid_counts.get(block, 0) + pages

    def _publish_mapping(self, stream: str, lpns: List[int], ppas: List[int]) -> None:
        """Update RAM map + journal for the committed pages ``lpns``/``ppas``."""
        if stream == STREAM_SEQUENTIAL and _is_run(lpns) and _is_run(ppas):
            self._publish_extent(lpns, ppas)
        else:
            self._publish_pages(lpns, ppas)
        # Random writes can still seed a stream.
        self._last_seq_end = lpns[-1] + 1

    def _publish_pages(self, lpns: List[int], ppas: List[int]) -> None:
        now = self.kernel.now
        old_bindings: Dict[int, Optional[int]] = {}
        extent_map = self.extent_map
        index = 0
        # One extent-map punch and one page-map bind per run of consecutive LPNs.
        runs = [(lpns[0], len(lpns))] if _is_run(lpns) else contiguous_runs(lpns)
        for first_lpn, count in runs:
            displaced = extent_map.unmap_range(first_lpn, first_lpn + count)
            extent_old: Dict[int, int] = {}
            for run in displaced:
                for offset in range(run.length):
                    extent_old[run.start_lpn + offset] = run.start_ppa + offset
            self._invalidate_ppa_range(displaced)
            run_lpns = lpns[index : index + count]
            page_olds = self.page_map.bind_run(run_lpns, ppas[index : index + count])
            # Each LPN's old binding is its page-map PPA, else its extent PPA.
            old_bindings.update(zip(run_lpns, page_olds))
            for lpn, old in extent_old.items():
                if old_bindings[lpn] is None:
                    old_bindings[lpn] = old
            if page_olds.count(None) < count:
                for old in page_olds:
                    if old is not None:
                        self._invalidate(old)
            index += count
        self.journal.record(
            MapUpdate(kind="page", time_us=now, lpns=lpns, old_bindings=old_bindings)
        )

    def _publish_extent(self, lpns: List[int], ppas: List[int]) -> None:
        now = self.kernel.now
        start_lpn, start_ppa = lpns[0], ppas[0]
        length = len(lpns)
        old_bindings: Dict[int, Optional[int]] = {}
        for lpn in lpns:
            page_old = self.page_map.unbind(lpn)
            if page_old is not None:
                old_bindings[lpn] = page_old
                self._invalidate(page_old)
        grown = self.extent_map.try_extend(start_lpn, start_ppa, length)
        if grown is None:
            displaced = self.extent_map.insert(Extent(start_lpn, start_ppa, length))
            self._invalidate_ppa_range(displaced)
            for run in displaced:
                for offset, lpn in enumerate(run.lpns()):
                    old_bindings.setdefault(lpn, run.start_ppa + offset)
            entry_start = start_lpn
        else:
            entry_start = grown.start_lpn
        self.journal.record(
            MapUpdate(
                kind="extent",
                time_us=now,
                lpns=lpns,
                old_bindings=old_bindings,
                extent_start=entry_start,
            )
        )

    def _invalidate(self, ppa: int) -> None:
        block = self.chip.geometry.block_of(ppa)
        count = self.valid_counts.get(block, 0)
        if count > 0:
            self.valid_counts[block] = count - 1
        self._ppa_owner.pop(ppa, None)

    def _invalidate_ppa_range(self, extents: List[Extent]) -> None:
        for run in extents:
            for offset in range(run.length):
                self._invalidate(run.start_ppa + offset)

    # ------------------------------------------------------------------ trim path --

    def trim_range(self, start_lpn: int, count: int) -> int:
        """Unmap a logical range (TRIM/discard).  Returns pages unmapped.

        The unmapping is a *map mutation like any other*: it lives in DRAM
        until the journal commits, so a power fault can roll a trim back —
        the "trimmed data comes back" anomaly observed on real drives.
        """
        if start_lpn < 0 or count <= 0:
            raise AddressError("bad trim range")
        now = self.kernel.now
        old_bindings: Dict[int, Optional[int]] = {}
        lpns: List[int] = []
        displaced = self.extent_map.unmap_range(start_lpn, start_lpn + count)
        for run in displaced:
            for offset, lpn in enumerate(run.lpns()):
                old_bindings[lpn] = run.start_ppa + offset
                lpns.append(lpn)
        self._invalidate_ppa_range(displaced)
        for lpn in range(start_lpn, start_lpn + count):
            old = self.page_map.unbind(lpn)
            if old is not None:
                old_bindings[lpn] = old
                lpns.append(lpn)
                self._invalidate(old)
        if lpns:
            self.journal.record(
                MapUpdate(kind="trim", time_us=now, lpns=lpns, old_bindings=old_bindings)
            )
        return len(lpns)

    # ------------------------------------------------------------------ read path --

    def lookup(self, lpn: int) -> Optional[int]:
        """Current translation for ``lpn`` (page map and extent map are disjoint)."""
        ppa = self.page_map.lookup(lpn)
        if ppa is not None:
            return ppa
        return self.extent_map.lookup(lpn)

    def read(self, lpn: int):
        """Read the data mapped at ``lpn``; unmapped LPNs read as erased."""
        ppa = self.lookup(lpn)
        if ppa is None:
            return ReadResult(-1, PageState.ERASED, None, correctable=True)
        return self.chip.read_page(ppa)

    def lookup_run(self, lpn: int, count: int) -> List[Optional[int]]:
        """Translations of ``count`` LPNs from ``lpn``, each map resolved once."""
        pages = self.page_map.lookup_run(lpn, count)
        if not self.extent_map.overlaps(lpn, count):
            return pages
        extents = self.extent_map.lookup_run(lpn, count)
        return [ppa if ppa is not None else run for ppa, run in zip(pages, extents)]

    # ------------------------------------------------------------------ journal IO --

    def _write_journal_pages(self, batch: List[MapUpdate]) -> None:
        entries = sum(max(1, update.page_count) for update in batch)
        pages = -(-entries // self.config.journal_entries_per_page)
        ppas = self._allocate_run(pages, STREAM_META)
        self.chip.program_pages(ppas, [TOKEN_JOURNAL] * len(ppas))
        self._count_valid(ppas)
        self.journal_pages_written += len(ppas)
        write_cost = pages * self.chip.timing.page_write_us(
            self.chip.cell, self.chip.geometry.page_size
        )
        self.pending_background_us += write_cost

    def checkpoint(self) -> None:
        """Commit the journal immediately (barrier / recovery checkpoint)."""
        self.journal.commit()

    def consume_background_us(self) -> int:
        """Hand the accumulated background flash time to the caller."""
        owed, self.pending_background_us = self.pending_background_us, 0
        return owed

    # ------------------------------------------------------------------ GC plumbing --

    def relocate_block(self, block: int) -> int:
        """Move every still-valid page out of ``block``.  Returns pages moved."""
        geometry = self.chip.geometry
        moved = 0
        for ppa in geometry.iter_block_pages(block):
            lpn = self._ppa_owner.get(ppa)
            if lpn is None:
                continue
            if self.lookup(lpn) != ppa:
                self._ppa_owner.pop(ppa, None)
                continue
            result = self.chip.read_page(ppa)
            if not result.ok:
                # Data unrecoverable; drop the translation (reads as erased).
                self._drop_mapping(lpn)
                self._invalidate(ppa)
                continue
            plan = self.prepare_write([lpn], STREAM_RANDOM)
            self.commit_write(plan, tokens=[result.token])
            moved += 1
            self.pending_background_us += self.chip.timing.page_read_us(
                geometry.page_size
            ) + self.chip.timing.page_write_us(self.chip.cell, geometry.page_size)
        return moved

    def _drop_mapping(self, lpn: int) -> None:
        old = self.page_map.unbind(lpn)
        if old is None:
            displaced = self.extent_map.unmap_range(lpn, lpn + 1)
            if displaced:
                old = displaced[0].start_ppa
        self.journal.record(
            MapUpdate(
                kind="page",
                time_us=self.kernel.now,
                lpns=[lpn],
                old_bindings={lpn: old},
            )
        )

    def erase_and_free(self, block: int) -> None:
        """Erase a reclaimed block and return it to the allocator pool."""
        self.chip.erase_block_now(block)
        self.wear.note_erase(block)
        self.valid_counts[block] = 0
        self.wear.free_block(block)
        self.pending_background_us += self.chip.timing.erase_us

    # ------------------------------------------------------------------ power events --

    def power_loss(self) -> None:
        """Volatile state freezes; the journal timer stops."""
        self.journal.stop()
        self._last_seq_end = None
        # Open blocks are abandoned: their unwritten tail pages may hold
        # partial charge, so the allocator must not append to them again.
        self._open.clear()

    def power_on_recover(self) -> RecoveryReport:
        """Rebuild the map after an unclean shutdown."""
        if not self.chip.powered:
            raise RecoveryError("chip must be powered before FTL recovery")
        report = self.recovery.recover()
        self.journal.start()
        return report

    # ------------------------------------------------------------------ statistics --

    def map_entry_count(self) -> int:
        """Total translation-table entries (page entries + extent entries)."""
        return self.page_map.entry_count() + self.extent_map.entry_count()

    def stats(self) -> dict:
        """Counters snapshot for reports."""
        return {
            "host_pages_written": self.host_pages_written,
            "journal_pages_written": self.journal_pages_written,
            "page_map_entries": self.page_map.entry_count(),
            "extent_entries": self.extent_map.entry_count(),
            "free_blocks": self.wear.free_count,
            "gc": self.gc.stats(),
            "wear_spread": self.wear.wear_spread(),
        }
