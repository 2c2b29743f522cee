"""Extent (run-length) mapping for sequential streams.

The paper's §IV-D: "in the workloads with sequential access pattern, FTL
only keeps the first address in the mapping table where such scheme reduces
the amount of table entries but ... may have significant impact on the
failure rate due to power loss (particularly in case of map table failure)".

An extent ``(start_lpn, start_ppa, length)`` maps ``length`` consecutive
logical pages to consecutive physical pages with a single table entry; the
physical contiguity is guaranteed by the FTL's allocator when it detects a
sequential stream.  Losing one extent entry orphans the whole run — the
mechanism behind the ~14 % failure excess of sequential workloads.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

from repro.errors import AddressError


@dataclass
class Extent:
    """One mapped run of consecutive logical pages."""

    start_lpn: int
    start_ppa: int
    length: int

    @property
    def end_lpn(self) -> int:
        """First LPN *after* the run."""
        return self.start_lpn + self.length

    def covers(self, lpn: int) -> bool:
        """True when ``lpn`` falls inside the run."""
        return self.start_lpn <= lpn < self.end_lpn

    def translate(self, lpn: int) -> int:
        """PPA for an LPN inside the run."""
        if not self.covers(lpn):
            raise AddressError(f"LPN {lpn} outside extent {self}")
        return self.start_ppa + (lpn - self.start_lpn)

    def lpns(self) -> Iterator[int]:
        """Iterate every LPN in the run."""
        return iter(range(self.start_lpn, self.end_lpn))


class ExtentMap:
    """Sorted, non-overlapping extent table.

    Example
    -------
    >>> m = ExtentMap()
    >>> m.insert(Extent(100, 5000, 8))
    []
    >>> m.lookup(104)
    5004
    >>> m.entry_count()
    1
    """

    def __init__(self) -> None:
        self._starts: List[int] = []  # sorted start_lpns
        self._extents: Dict[int, Extent] = {}  # keyed by start_lpn

    # -- queries --------------------------------------------------------------------

    def _extent_at(self, lpn: int) -> Optional[Extent]:
        idx = bisect.bisect_right(self._starts, lpn) - 1
        if idx < 0:
            return None
        extent = self._extents[self._starts[idx]]
        return extent if extent.covers(lpn) else None

    def lookup(self, lpn: int) -> Optional[int]:
        """PPA for ``lpn`` or None when no extent covers it."""
        if lpn < 0:
            raise AddressError(f"negative LPN {lpn}")
        extent = self._extent_at(lpn)
        return extent.translate(lpn) if extent is not None else None

    def lookup_run(self, lpn: int, count: int) -> List[Optional[int]]:
        """PPAs for ``count`` LPNs from ``lpn`` (None where no extent covers)."""
        if lpn < 0:
            raise AddressError(f"negative LPN {lpn}")
        ppas: List[Optional[int]] = [None] * count
        end = lpn + count
        starts = self._starts
        idx = max(0, bisect.bisect_right(starts, lpn) - 1)
        while idx < len(starts) and starts[idx] < end:
            extent = self._extents[starts[idx]]
            low = max(extent.start_lpn, lpn)
            high = min(extent.end_lpn, end)
            for page in range(low, high):
                ppas[page - lpn] = extent.start_ppa + (page - extent.start_lpn)
            idx += 1
        return ppas

    def overlaps(self, lpn: int, count: int) -> bool:
        """True when some extent maps a page of the ``count`` LPNs from ``lpn``.

        Extents are sorted and disjoint, so the range meets one exactly when
        the last extent starting before the range's end reaches past its
        start.
        """
        idx = bisect.bisect_left(self._starts, lpn + count) - 1
        return idx >= 0 and self._extents[self._starts[idx]].end_lpn > lpn

    def covering_extent(self, lpn: int) -> Optional[Extent]:
        """The extent containing ``lpn``, if any."""
        if lpn < 0:
            raise AddressError(f"negative LPN {lpn}")
        return self._extent_at(lpn)

    def entry_count(self) -> int:
        """Number of table entries (one per run — the space saving of §IV-D)."""
        return len(self._extents)

    def mapped_page_count(self) -> int:
        """Total logical pages covered by all extents."""
        return sum(e.length for e in self._extents.values())

    def extents(self) -> Iterator[Extent]:
        """Iterate extents in LPN order."""
        return iter(self._extents[s] for s in self._starts)

    # -- mutation --------------------------------------------------------------------

    def insert(self, extent: Extent) -> List[Extent]:
        """Insert a run, punching out any overlapped older runs.

        Returns the list of (possibly trimmed) extents that were displaced,
        so the caller can invalidate their physical pages and journal the
        change reversibly.
        """
        if extent.length <= 0:
            raise AddressError("extent length must be positive")
        if extent.start_lpn < 0 or extent.start_ppa < 0:
            raise AddressError("extent addresses must be non-negative")
        displaced = self._punch_hole(extent.start_lpn, extent.end_lpn)
        self._add(extent)
        return displaced

    def try_extend(self, next_lpn: int, next_ppa: int, length: int) -> Optional[Extent]:
        """Grow a run in place when the new pages continue it exactly.

        The FTL calls this for stream appends: if an extent ends at
        ``next_lpn`` *and* its physical run ends at ``next_ppa``, the entry
        absorbs the new pages and no new table entry is created.  Returns the
        grown extent or None if no extension was possible.
        """
        if length <= 0:
            raise AddressError("extension length must be positive")
        idx = bisect.bisect_right(self._starts, next_lpn - 1) - 1
        if idx < 0:
            return None
        extent = self._extents[self._starts[idx]]
        if extent.end_lpn != next_lpn:
            return None
        if extent.start_ppa + extent.length != next_ppa:
            return None
        # The whole extension range must be free of other extents, otherwise
        # growing in place would create overlap; the insert path (which
        # displaces) handles that case instead.
        if idx + 1 < len(self._starts) and self._starts[idx + 1] < next_lpn + length:
            return None
        extent.length += length
        return extent

    def remove(self, start_lpn: int) -> Extent:
        """Remove the extent starting at ``start_lpn`` (used by recovery)."""
        extent = self._extents.pop(start_lpn, None)
        if extent is None:
            raise AddressError(f"no extent starts at LPN {start_lpn}")
        self._starts.remove(start_lpn)
        return extent

    def unmap_range(self, start_lpn: int, end_lpn: int) -> List[Extent]:
        """Remove all mappings in ``[start_lpn, end_lpn)``; returns displaced runs."""
        return self._punch_hole(start_lpn, end_lpn)

    # -- internals --------------------------------------------------------------------

    def _add(self, extent: Extent) -> None:
        if extent.start_lpn in self._extents:
            raise AddressError(f"duplicate extent start {extent.start_lpn}")
        bisect.insort(self._starts, extent.start_lpn)
        self._extents[extent.start_lpn] = extent

    def _punch_hole(self, start: int, end: int) -> List[Extent]:
        """Remove coverage of ``[start, end)``, splitting boundary extents."""
        displaced: List[Extent] = []
        idx = bisect.bisect_right(self._starts, start) - 1
        if idx < 0:
            idx = 0
        while idx < len(self._starts):
            key = self._starts[idx]
            extent = self._extents[key]
            if extent.start_lpn >= end:
                break
            if extent.end_lpn <= start:
                idx += 1
                continue
            # Overlap: remove and re-add the non-overlapping fringes.
            self.remove(key)
            overlap_start = max(extent.start_lpn, start)
            overlap_end = min(extent.end_lpn, end)
            displaced.append(
                Extent(
                    overlap_start,
                    extent.translate(overlap_start),
                    overlap_end - overlap_start,
                )
            )
            if extent.start_lpn < start:
                self._add(
                    Extent(extent.start_lpn, extent.start_ppa, start - extent.start_lpn)
                )
            if extent.end_lpn > end:
                self._add(Extent(end, extent.translate(end), extent.end_lpn - end))
            idx = bisect.bisect_right(self._starts, start) - 1
            if idx < 0:
                idx = 0
        return displaced
