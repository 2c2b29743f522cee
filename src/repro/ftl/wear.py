"""Wear levelling.

Tracks per-block erase counts and steers allocation toward the least-worn
free blocks.  Wear is not a failure mechanism in the paper's experiments
(campaigns are far too short to wear anything out), but the FTL the paper
describes implements it, downstream users expect it, and the allocator needs
*some* policy — so it is a real component with its own statistics.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, List, Tuple

from repro.errors import ConfigurationError


class WearLeveler:
    """Erase-count accounting plus a min-wear free-block pool.

    The pool has two parts.  Every block from the cursor ``_lo`` to the end is
    free at wear 0: :meth:`free_blocks` sets it for the format-time free of a
    fresh device, so building one costs nothing per block.  Blocks freed any
    other way wait in a heap keyed by ``(erase count when freed, block)``.
    :meth:`take_freest` pops the smaller of ``(0, _lo)`` and the heap top, the
    order one heap holding every free block would give.

    Example
    -------
    >>> wl = WearLeveler(block_count=4)
    >>> wl.free_blocks(range(4))
    >>> wl.note_erase(1), wl.note_erase(1)
    (1, 2)
    >>> wl.take_freest()   # every block still has zero *recorded* wear
    0
    """

    def __init__(self, block_count: int) -> None:
        if block_count <= 0:
            raise ConfigurationError("block count must be positive")
        self.block_count = block_count
        self.erase_counts: Dict[int, int] = {}
        self._lo = block_count  # blocks [_lo, block_count) are free at wear 0
        self._free_heap: List[Tuple[int, int]] = []  # (erase_count, block)
        self._free_set: set = set()  # the blocks in the heap

    def _check(self, block: int) -> None:
        if not 0 <= block < self.block_count:
            raise ConfigurationError(f"block {block} out of range")

    # -- erase accounting ---------------------------------------------------------------

    def note_erase(self, block: int) -> int:
        """Record one erase of ``block``; returns its new count."""
        self._check(block)
        count = self.erase_counts.get(block, 0) + 1
        self.erase_counts[block] = count
        return count

    def erases_of(self, block: int) -> int:
        """Lifetime erase count of ``block``."""
        self._check(block)
        return self.erase_counts.get(block, 0)

    # -- free pool ------------------------------------------------------------------------

    def free_block(self, block: int) -> None:
        """Return an erased block to the allocatable pool."""
        self._check(block)
        if self.is_free(block):
            raise ConfigurationError(f"block {block} freed twice")
        self._free_set.add(block)
        heapq.heappush(self._free_heap, (self.erases_of(block), block))

    def free_blocks(self, blocks: Iterable[int]) -> None:
        """Bulk :meth:`free_block`.

        A ``range`` that runs to the last block, freed into an empty pool that
        has never seen an erase, only moves the cursor: every block in it is
        then free at wear 0.  Anything else is freed block by block.
        """
        if (
            isinstance(blocks, range)
            and blocks.step == 1
            and 0 <= blocks.start < blocks.stop == self.block_count
            and self.free_count == 0
            and not self.erase_counts
        ):
            self._lo = blocks.start
            return
        for block in blocks:
            self.free_block(block)

    def take_freest(self) -> int:
        """Pop the least-worn free block (ties broken by lowest index)."""
        heap = self._free_heap
        if self._lo < self.block_count and (not heap or (0, self._lo) < heap[0]):
            self._lo += 1
            return self._lo - 1
        if not heap:
            raise ConfigurationError("no free blocks available")
        _, block = heapq.heappop(heap)
        self._free_set.remove(block)
        return block

    @property
    def free_count(self) -> int:
        """Blocks currently in the free pool."""
        return self.block_count - self._lo + len(self._free_set)

    def is_free(self, block: int) -> bool:
        """True when ``block`` sits in the free pool."""
        return self._lo <= block < self.block_count or block in self._free_set

    # -- statistics -------------------------------------------------------------------------

    def wear_spread(self) -> int:
        """Max-minus-min erase count over all blocks (0 = perfectly level)."""
        if not self.erase_counts:
            return 0
        counts = [self.erase_counts.get(b, 0) for b in range(self.block_count)]
        return max(counts) - min(counts)

    def total_erases(self) -> int:
        """Sum of all erase operations ever performed."""
        return sum(self.erase_counts.values())
