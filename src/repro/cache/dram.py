"""The volatile write-back buffer.

Entries are page-granular (4 KiB) and keyed by LPN.  Insertion order is the
flush order (FIFO), and a write to an LPN that is already dirty *coalesces*:
the old payload is simply replaced, meaning that under WAW traffic two
acknowledged host writes share one cache entry — if power fails before the
flush, **both** are lost at once.  This coalescing is a real write-buffer
behaviour and one of the mechanisms behind the paper's Fig. 9 (WAW accesses
show by far the most failures).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Optional

from repro.errors import ConfigurationError


@dataclass
class CacheEntry:
    """One dirty logical page waiting for flash."""

    lpn: int
    token: int
    inserted_at: int
    coalesce_depth: int = 0
    """How many earlier acknowledged-but-unflushed writes this entry replaced."""


class WriteCache:
    """FIFO write-back buffer with coalescing.

    The device bounds it: ``FlushPolicy.max_dirty_pages`` stalls admission.

    Example
    -------
    >>> cache = WriteCache()
    >>> cache.insert(5, token=1, now=0)
    False
    >>> cache.insert(5, token=2, now=10)   # WAW coalesce
    True
    >>> cache.dirty_count
    1
    >>> cache.read_hit(5)
    2
    """

    def __init__(self) -> None:
        self._entries: "OrderedDict[int, CacheEntry]" = OrderedDict()
        # Statistics.
        self.inserts = 0
        self.coalesces = 0
        self.read_hits = 0
        self.read_misses = 0
        self.peak_dirty = 0

    # -- write path -------------------------------------------------------------------

    def insert(self, lpn: int, token: int, now: int) -> bool:
        """Buffer one dirty page.  Returns True when it coalesced onto an
        existing dirty entry (a WAW overwrite)."""
        if lpn < 0:
            raise ConfigurationError(f"negative LPN {lpn}")
        self.inserts += 1
        existing = self._entries.get(lpn)
        if existing is not None:
            existing.token = token
            existing.inserted_at = now
            existing.coalesce_depth += 1
            self.coalesces += 1
            return True
        self._entries[lpn] = CacheEntry(lpn, token, now)
        if len(self._entries) > self.peak_dirty:
            self.peak_dirty = len(self._entries)
        return False

    # -- flush path --------------------------------------------------------------------

    def take_batch(self, max_pages: int) -> List[CacheEntry]:
        """Pop up to ``max_pages`` oldest entries for flushing (FIFO order)."""
        if max_pages <= 0:
            raise ConfigurationError("batch size must be positive")
        batch: List[CacheEntry] = []
        while self._entries and len(batch) < max_pages:
            _, entry = self._entries.popitem(last=False)
            batch.append(entry)
        return batch

    def put_back(self, entries: List[CacheEntry]) -> None:
        """Return un-flushed entries to the head of the FIFO (flush aborted).

        Newer writes to the same LPN (arrived while the batch was in flight)
        win over the put-back copy.
        """
        for entry in reversed(entries):
            if entry.lpn not in self._entries:
                self._entries[entry.lpn] = entry
                self._entries.move_to_end(entry.lpn, last=False)

    # -- read path ----------------------------------------------------------------------

    def read_hit(self, lpn: int) -> Optional[int]:
        """Token of a dirty page, or None (read-through to flash)."""
        entry = self._entries.get(lpn)
        if entry is None:
            self.read_misses += 1
            return None
        self.read_hits += 1
        return entry.token

    def peek(self, lpn: int) -> Optional[CacheEntry]:
        """Entry for ``lpn`` without touching statistics (forensics)."""
        return self._entries.get(lpn)

    def discard(self, start_lpn: int, count: int) -> int:
        """Drop dirty entries in a logical range (TRIM).  Returns drops."""
        dropped = 0
        for lpn in range(start_lpn, start_lpn + count):
            if self._entries.pop(lpn, None) is not None:
                dropped += 1
        return dropped

    # -- power events ---------------------------------------------------------------------

    def drop_all(self) -> List[CacheEntry]:
        """Volatile contents vanish at brownout; returns what was lost."""
        lost = list(self._entries.values())
        self._entries.clear()
        return lost

    # -- introspection ----------------------------------------------------------------------

    @property
    def dirty_count(self) -> int:
        """Dirty pages currently buffered."""
        return len(self._entries)

    @property
    def dirty_bytes(self) -> int:
        """Dirty payload size assuming 4 KiB pages."""
        return len(self._entries) * 4096

    def oldest_age_us(self, now: int) -> Optional[int]:
        """Age of the oldest dirty page (bounds cache-side ACK exposure)."""
        if not self._entries:
            return None
        first_key = next(iter(self._entries))
        return now - self._entries[first_key].inserted_at
