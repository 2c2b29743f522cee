"""The volatile write-back buffer.

The buffer maps each dirty logical page (4 KiB, keyed by LPN) to the token
of its newest write, and works on runs: a host WRITE is admitted as one
run of consecutive LPNs, a host READ probes one run, and the flusher takes
a batch as parallel LPN and token lists.  Insertion order is the flush
order (FIFO), and a write to an LPN that is already dirty *coalesces*: the
old payload is simply replaced and the page keeps its place in the FIFO,
meaning that under WAW traffic two acknowledged host writes share one
cache slot — if power fails before the flush, **both** are lost at once.
This coalescing is a real write-buffer behaviour and one of the mechanisms
behind the paper's Fig. 9 (WAW accesses show by far the most failures).
"""

from __future__ import annotations

from collections import OrderedDict
from itertools import islice
from typing import List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError


class WriteCache:
    """FIFO write-back buffer with coalescing.

    The device bounds it: ``FlushPolicy.max_dirty_pages`` stalls admission.

    Example
    -------
    >>> cache = WriteCache()
    >>> cache.insert_run(5, [1, 2])
    0
    >>> cache.insert_run(6, [3])   # WAW coalesce onto LPN 6
    1
    >>> cache.dirty_count
    2
    >>> cache.read_run(5, 3)
    [1, 3, None]
    >>> cache.take_batch(8)
    ([5, 6], [1, 3])
    """

    def __init__(self) -> None:
        self._tokens: "OrderedDict[int, int]" = OrderedDict()  # lpn -> token
        # Statistics.
        self.inserts = 0
        self.coalesces = 0
        self.read_hits = 0
        self.read_misses = 0
        self.peak_dirty = 0

    # -- write path -------------------------------------------------------------------

    def insert_run(self, lpn: int, tokens: Sequence[int]) -> int:
        """Buffer one dirty page per token, at ``lpn`` onwards.

        Returns how many of them coalesced onto a dirty page (WAW
        overwrites); those keep their FIFO position.
        """
        if lpn < 0:
            raise ConfigurationError(f"negative LPN {lpn}")
        entries = self._tokens
        before = len(entries)
        entries.update(zip(range(lpn, lpn + len(tokens)), tokens))
        dirty = len(entries)
        coalesced = len(tokens) - (dirty - before)
        self.inserts += len(tokens)
        self.coalesces += coalesced
        if dirty > self.peak_dirty:
            self.peak_dirty = dirty
        return coalesced

    # -- flush path --------------------------------------------------------------------

    def take_batch(self, max_pages: int) -> Tuple[List[int], List[int]]:
        """Pop up to ``max_pages`` oldest pages for flushing (FIFO order).

        Returns parallel LPN and token lists.
        """
        if max_pages <= 0:
            raise ConfigurationError("batch size must be positive")
        entries = self._tokens
        lpns = list(islice(entries, max_pages))
        return lpns, [entries.pop(lpn) for lpn in lpns]

    # -- read path ----------------------------------------------------------------------

    def read_run(self, lpn: int, count: int) -> List[Optional[int]]:
        """Tokens of ``count`` pages from ``lpn``: dirty ones hit, None misses
        (read-through to flash)."""
        tokens = list(map(self._tokens.get, range(lpn, lpn + count)))
        misses = tokens.count(None)
        self.read_hits += count - misses
        self.read_misses += misses
        return tokens

    def peek(self, lpn: int) -> Optional[int]:
        """Token of a dirty page without touching statistics (forensics)."""
        return self._tokens.get(lpn)

    def discard(self, start_lpn: int, count: int) -> int:
        """Drop dirty pages in a logical range (TRIM).  Returns drops."""
        dropped = 0
        for lpn in range(start_lpn, start_lpn + count):
            if self._tokens.pop(lpn, None) is not None:
                dropped += 1
        return dropped

    # -- power events ---------------------------------------------------------------------

    def drop_all(self) -> List[int]:
        """Volatile contents vanish at brownout; returns the LPNs lost."""
        lost = list(self._tokens)
        self._tokens.clear()
        return lost

    # -- introspection ----------------------------------------------------------------------

    @property
    def dirty_count(self) -> int:
        """Dirty pages currently buffered."""
        return len(self._tokens)

    @property
    def dirty_bytes(self) -> int:
        """Dirty payload size assuming 4 KiB pages."""
        return len(self._tokens) * 4096
