"""The durable backing tier behind an SSD cache.

Ahmadian et al.'s follow-up system (PAPERS.md, arXiv:1912.01555) is a
write-back SSD cache in front of an HDD array.  The interesting physics of
that system live entirely in the *cache* tier — the backing array is slow
but durable.  :class:`BackingStore` models exactly that contract: committed
pages survive any power fault, but a write takes a seek-plus-stream latency
to commit and any write still in flight when the tier's power domain fails
is dropped (the array controller never acknowledged it).

The store hangs off a :class:`~repro.power.controller.PowerController` so a
topology can put it on the cache tier's PDU (shared-power rack: one fault
takes everything) or on its own rail (independent domains).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.errors import ConfigurationError
from repro.power.controller import PowerController
from repro.sim import Kernel
from repro.units import MSEC

REQUEST_US = 2 * MSEC
"""Fixed per-write overhead of the backing array (seek and rotate)."""

PAGE_US = 50
"""Streaming cost of each 4 KiB page of a backing write."""


class BackingStore:
    """A durable, power-aware page store with HDD-array write latency.

    A write commits :data:`REQUEST_US` plus :data:`PAGE_US` per page after
    it is submitted.  Completion callbacks receive ``True`` only when every
    page of the write committed; a power fault in the store's domain
    (:meth:`power_fail`) drops all in-flight writes.
    """

    def __init__(self, kernel: Kernel, power: PowerController) -> None:
        self.kernel = kernel
        self.power = power
        self.committed: Dict[int, int] = {}
        self._epoch = 0
        # Statistics.
        self.writes_submitted = 0
        self.writes_committed = 0
        self.writes_dropped = 0
        self.pages_committed = 0

    @property
    def powered(self) -> bool:
        """Whether the store's power domain is up."""
        return self.power.is_powered

    def submit_write(
        self,
        lpn: int,
        tokens: List[int],
        on_done: Optional[Callable[[bool], None]] = None,
    ) -> None:
        """Write ``tokens`` at ``lpn``; ``on_done(ok)`` fires at commit.

        A write submitted against a dead domain, or still in flight when the
        domain faults, completes with ``ok=False`` and commits nothing —
        partial commits do not exist at this tier (the array controller
        journals the stripe).
        """
        if not tokens:
            raise ConfigurationError("empty backing write")
        self.writes_submitted += 1
        if not self.powered:
            self.writes_dropped += 1
            if on_done is not None:
                on_done(False)
            return
        epoch = self._epoch
        latency = REQUEST_US + len(tokens) * PAGE_US

        def commit() -> None:
            if epoch != self._epoch or not self.powered:
                self.writes_dropped += 1
                if on_done is not None:
                    on_done(False)
                return
            for offset, token in enumerate(tokens):
                self.committed[lpn + offset] = token
            self.writes_committed += 1
            self.pages_committed += len(tokens)
            if on_done is not None:
                on_done(True)

        self.kernel.schedule(latency, commit)

    def power_fail(self) -> None:
        """Drop every in-flight write (call when the domain's rail is cut)."""
        self._epoch += 1

    def peek(self, lpn: int) -> Optional[int]:
        """Committed token at ``lpn`` (forensic read; None = never written)."""
        return self.committed.get(lpn)

    def restore(self, lpn: int, token: int) -> None:
        """Directly install a recovered page (post-fault reconciliation)."""
        self.committed[lpn] = token
