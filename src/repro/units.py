"""Unit helpers and constants used across the repro package.

The discrete-event kernel keeps time as an integer number of **microseconds**
so event ordering is exact (no floating-point tie ambiguity).  All byte sizes
are plain integers of bytes.  This module centralises the conversion helpers
so magic numbers never appear inline in device models.
"""

from __future__ import annotations

# --------------------------------------------------------------------------
# Time units (the simulation clock is an ``int`` count of microseconds).
# --------------------------------------------------------------------------

USEC = 1
MSEC = 1_000 * USEC
SEC = 1_000 * MSEC
MINUTE = 60 * SEC


def msec(value: float) -> int:
    """Convert a value expressed in milliseconds to clock ticks."""
    return round(value * MSEC)


def sec(value: float) -> int:
    """Convert a value expressed in seconds to clock ticks."""
    return round(value * SEC)


def to_msec(ticks: int) -> float:
    """Convert clock ticks back to (float) milliseconds."""
    return ticks / MSEC


def to_sec(ticks: int) -> float:
    """Convert clock ticks back to (float) seconds."""
    return ticks / SEC


# --------------------------------------------------------------------------
# Byte sizes.  Sizes follow IEC binary prefixes; the paper writes "4KB" and
# "1MB" meaning 4 KiB and 1 MiB (block-device convention).
# --------------------------------------------------------------------------

KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB


def kib(value: float) -> int:
    """Convert a value expressed in KiB to bytes."""
    return round(value * KIB)


def mib(value: float) -> int:
    """Convert a value expressed in MiB to bytes."""
    return round(value * MIB)


def gib(value: float) -> int:
    """Convert a value expressed in GiB to bytes."""
    return round(value * GIB)


def to_gib(nbytes: int) -> float:
    """Convert bytes back to (float) GiB."""
    return nbytes / GIB


# --------------------------------------------------------------------------
# Block-device constants.
# --------------------------------------------------------------------------

SECTOR = 512
"""Size of a logical sector in bytes (SATA convention)."""

PAGE_4K = 4 * KIB
"""The flash page / logical page size used throughout the device models."""


def sectors(nbytes: int) -> int:
    """Number of 512-byte sectors covering ``nbytes`` (must be aligned)."""
    if nbytes % SECTOR:
        raise ValueError(f"size {nbytes} is not sector aligned")
    return nbytes // SECTOR


def align_up(value: int, granule: int) -> int:
    """Round ``value`` up to the next multiple of ``granule``."""
    if granule <= 0:
        raise ValueError("granule must be positive")
    return -(-value // granule) * granule


def align_down(value: int, granule: int) -> int:
    """Round ``value`` down to the previous multiple of ``granule``."""
    if granule <= 0:
        raise ValueError("granule must be positive")
    return (value // granule) * granule


def pages_in(nbytes: int, page_size: int = PAGE_4K) -> int:
    """Number of ``page_size`` pages needed to hold ``nbytes``."""
    if nbytes < 0:
        raise ValueError("size must be non-negative")
    return -(-nbytes // page_size)


# --------------------------------------------------------------------------
# Electrical units (volts are plain floats; these are documentation aliases).
# --------------------------------------------------------------------------

VOLT = 1.0
ATX_5V_RAIL = 5.0
"""Nominal output of the ATX 5 V rail that powers a SATA SSD."""

SSD_DETACH_VOLTAGE = 4.5
"""Host-visible detach threshold measured by the paper (Fig. 4b)."""
