"""Page-level logical-to-physical mapping table.

The straightforward fine-grained map: one entry per 4 KiB logical page.
Random-write workloads exercise this table; the sequential-run variant is in
:mod:`repro.ftl.extent_mapping`.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import AddressError


def contiguous_runs(lpns: Iterable[int]) -> Iterator[Tuple[int, int]]:
    """``(start, count)`` of each run of consecutive values in ``lpns``.

    A run ends wherever the next value is not one more than the last, so
    ascending LPNs give the runs a run read (``Ftl.lookup_run``,
    ``SsdDevice.peek_run``) resolves in one call.
    """
    start = count = 0
    for lpn in lpns:
        if count and lpn == start + count:
            count += 1
            continue
        if count:
            yield start, count
        start, count = lpn, 1
    if count:
        yield start, count

class PageMap:
    """Sparse LPN -> PPA dictionary with explicit old-value reporting.

    ``bind`` returns the displaced PPA (if any) so the caller can journal the
    update reversibly and decrement the victim block's valid-page count.

    Example
    -------
    >>> m = PageMap()
    >>> m.bind(10, 500) is None
    True
    >>> m.bind(10, 600)
    500
    >>> m.lookup(10)
    600
    """

    def __init__(self) -> None:
        self._table: Dict[int, int] = {}

    def lookup(self, lpn: int) -> Optional[int]:
        """PPA currently bound to ``lpn`` or None when unmapped."""
        if lpn < 0:
            raise AddressError(f"negative LPN {lpn}")
        return self._table.get(lpn)

    def lookup_run(self, lpn: int, count: int) -> List[Optional[int]]:
        """PPAs bound to ``count`` LPNs from ``lpn`` (None where unmapped)."""
        if lpn < 0:
            raise AddressError(f"negative LPN {lpn}")
        return list(map(self._table.get, range(lpn, lpn + count)))

    def bind(self, lpn: int, ppa: int) -> Optional[int]:
        """Map ``lpn`` to ``ppa``; returns the displaced PPA, if any."""
        if lpn < 0:
            raise AddressError(f"negative LPN {lpn}")
        if ppa < 0:
            raise AddressError(f"negative PPA {ppa}")
        old = self._table.get(lpn)
        self._table[lpn] = ppa
        return old

    def bind_run(self, lpns: Sequence[int], ppas: Sequence[int]) -> List[Optional[int]]:
        """Map each of the distinct ``lpns`` to the PPA at its index.

        Returns the displaced PPAs in order (None where a page was unmapped),
        as one :meth:`bind` per page would.
        """
        if min(lpns) < 0:
            raise AddressError(f"negative LPN {min(lpns)}")
        if min(ppas) < 0:
            raise AddressError(f"negative PPA {min(ppas)}")
        table = self._table
        displaced = list(map(table.get, lpns))
        table.update(zip(lpns, ppas))
        return displaced

    def unbind(self, lpn: int) -> Optional[int]:
        """Remove the mapping for ``lpn``; returns the displaced PPA."""
        if lpn < 0:
            raise AddressError(f"negative LPN {lpn}")
        return self._table.pop(lpn, None)

    def restore(self, lpn: int, old_ppa: Optional[int]) -> None:
        """Put back a journal-recorded previous state (None means unmapped)."""
        if old_ppa is None:
            self._table.pop(lpn, None)
        else:
            self._table[lpn] = old_ppa

    def __len__(self) -> int:
        return len(self._table)

    def __contains__(self, lpn: int) -> bool:
        return lpn in self._table

    def items(self) -> Iterator[Tuple[int, int]]:
        """Iterate ``(lpn, ppa)`` pairs (snapshot order not guaranteed)."""
        return iter(self._table.items())

    def entry_count(self) -> int:
        """Number of live entries (table footprint — WSS scales this,
        which is exactly the parameter Fig. 6 shows does *not* drive failures)."""
        return len(self._table)
