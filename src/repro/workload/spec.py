"""Workload specification.

One :class:`WorkloadSpec` captures every workload-dependent parameter the
paper varies in §IV:

- Working Set Size (Fig. 6),
- request size range (Fig. 7; "between 4KB and 1MB" elsewhere),
- read percentage (Fig. 5),
- access pattern random/sequential (§IV-D),
- requested IOPS (Fig. 8; ``None`` = closed loop at ``outstanding`` depth),
- access sequence RAR/RAW/WAR/WAW (Fig. 9, overrides the read mix).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigurationError
from repro.units import GIB, KIB, MIB, PAGE_4K


class AccessPattern(enum.Enum):
    """Spatial distribution of request addresses."""

    RANDOM = "random"
    SEQUENTIAL = "sequential"


@dataclass(frozen=True)
class WorkloadSpec:
    """Parameters of one synthetic workload.

    Example
    -------
    >>> spec = WorkloadSpec(read_fraction=0.2, wss_bytes=8 * GIB)
    >>> spec.wss_pages
    2097152
    """

    wss_bytes: int = 64 * GIB
    read_fraction: float = 0.0
    size_min_bytes: int = 4 * KIB
    size_max_bytes: int = 1 * MIB
    pattern: AccessPattern = AccessPattern.RANDOM
    requested_iops: Optional[float] = None
    outstanding: int = 32
    sequence: Optional[str] = None  # "RAR" / "RAW" / "WAR" / "WAW"

    def __post_init__(self) -> None:
        if self.wss_bytes < PAGE_4K:
            raise ConfigurationError("working set smaller than one page")
        if self.wss_bytes % PAGE_4K:
            raise ConfigurationError("working set must be page aligned")
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ConfigurationError("read fraction must be in [0, 1]")
        if self.size_min_bytes < PAGE_4K or self.size_min_bytes % PAGE_4K:
            raise ConfigurationError("size_min must be a positive multiple of 4 KiB")
        if self.size_max_bytes < self.size_min_bytes or self.size_max_bytes % PAGE_4K:
            raise ConfigurationError("size_max must be >= size_min and page aligned")
        if self.size_max_bytes > self.wss_bytes:
            raise ConfigurationError("requests cannot exceed the working set")
        if self.requested_iops is not None and self.requested_iops <= 0:
            raise ConfigurationError("requested IOPS must be positive")
        if self.outstanding <= 0:
            raise ConfigurationError("outstanding depth must be positive")
        if self.sequence is not None:
            from repro.workload.sequences import pair_for

            pair_for(self.sequence)  # validates

    # -- derived -------------------------------------------------------------------

    @property
    def wss_pages(self) -> int:
        """Working set size in 4 KiB pages."""
        return self.wss_bytes // PAGE_4K

    @property
    def size_min_pages(self) -> int:
        """Smallest request, in pages."""
        return self.size_min_bytes // PAGE_4K

    @property
    def size_max_pages(self) -> int:
        """Largest request, in pages."""
        return self.size_max_bytes // PAGE_4K

    @property
    def fixed_size(self) -> bool:
        """True when every request has the same size (Fig. 7 experiments)."""
        return self.size_min_bytes == self.size_max_bytes

    @property
    def open_loop(self) -> bool:
        """True when pacing by requested IOPS rather than queue depth."""
        return self.requested_iops is not None

    def describe(self) -> str:
        """Human-readable one-liner for reports."""
        size = (
            f"{self.size_min_bytes // KIB}KiB"
            if self.fixed_size
            else f"{self.size_min_bytes // KIB}KiB-{self.size_max_bytes // KIB}KiB"
        )
        parts = [
            f"wss={self.wss_bytes // GIB}GiB",
            f"read={round(self.read_fraction * 100)}%",
            f"size={size}",
            self.pattern.value,
        ]
        if self.open_loop:
            parts.append(f"iops={self.requested_iops:g}")
        if self.sequence:
            parts.append(f"seq={self.sequence}")
        return " ".join(parts)
