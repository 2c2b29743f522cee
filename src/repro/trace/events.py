"""Trace action codes and the event record.

Action letters follow blkparse conventions (Q/G/X/D/C) so the formatted
output reads like real blktrace; ``COMPLETE_ERROR`` is rendered as ``E``,
matching how the paper's modified btt surfaces lost IOs.
"""

from __future__ import annotations

import enum
from typing import NamedTuple


class Action(enum.Enum):
    """Lifecycle steps recorded in the block layer."""

    QUEUE = "Q"  # request entered the block layer
    GET_REQUEST = "G"  # request structure allocated
    SPLIT = "X"  # fanned out into sub-requests
    ISSUE = "D"  # first sub-request dispatched to the device
    COMPLETE = "C"  # all sub-requests completed OK
    COMPLETE_ERROR = "E"  # completed with error / timed out


class TraceEvent(NamedTuple):
    """One trace line (immutable).

    ``sequence`` is a collector-assigned monotone index; ``time_us`` the
    simulation clock at emission.
    """

    sequence: int
    time_us: int
    action: Action
    request_id: int
    lpn: int
    page_count: int
    is_write: bool

    @property
    def rwbs(self) -> str:
        """blkparse-style R/W marker."""
        return "W" if self.is_write else "R"

    @property
    def sector(self) -> int:
        """Starting 512-byte sector (blktrace speaks sectors)."""
        return self.lpn * 8

    @property
    def sectors(self) -> int:
        """Sector count."""
        return self.page_count * 8
