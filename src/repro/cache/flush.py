"""Flush policy knobs.

The flusher drains the write cache to flash in batches.  Three quantities
govern the host-visible failure exposure:

- ``batch_pages`` — pages flushed per NAND round-trip (array parallelism);
- ``linger_us`` — how long a non-full batch waits for company before being
  flushed anyway (small-write aggregation);
- ``max_dirty_pages`` — admission throttle: once this many pages are dirty,
  write commands stall instead of acknowledging, bounding the amount of
  ACKed-but-volatile data.

``max_dirty_pages`` is the knob that shapes the paper's Fig. 7: small
requests run far below the throttle (their exposure scales with IOPS ×
flush latency), while large requests slam into it (their exposure is capped
at ``max_dirty_pages`` worth of requests — only a couple of 1 MiB writes).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.units import MSEC


@dataclass(frozen=True)
class FlushPolicy:
    """Write-back flusher configuration."""

    batch_pages: int = 64
    linger_us: int = 2 * MSEC
    max_dirty_pages: int = 256

    def __post_init__(self) -> None:
        if self.batch_pages <= 0:
            raise ConfigurationError("batch_pages must be positive")
        if self.linger_us < 0:
            raise ConfigurationError("linger_us must be non-negative")
        if self.max_dirty_pages < self.batch_pages:
            raise ConfigurationError("max_dirty_pages must be >= batch_pages")

    def throttled(self, dirty_pages: int, incoming_pages: int) -> bool:
        """True when a write of ``incoming_pages`` must stall for drain.

        A write larger than ``max_dirty_pages`` can never satisfy the sum
        condition, so it is admitted once the cache has fully drained —
        otherwise a single oversized command would stall forever against a
        throttle it can never clear.
        """
        if incoming_pages > self.max_dirty_pages:
            return dirty_pages > 0
        return dirty_pages + incoming_pages > self.max_dirty_pages
