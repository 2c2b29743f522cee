"""The data packet (paper Fig. 2).

Every request travels as a *data packet*: randomly generated data plus a
header carrying addressing, timing, the three checksums, and the flags the
Analyzer later fills in.  Fields mirror Fig. 2 of the paper::

    Header: Size | Address | Queue Time | Complete Time
            Initial Checksum | Data Checksum | Final Checksum
            Modified? | Data Failure? | Not Issued?

In the simulation, "checksum" fields hold symbolic page tokens (see
:mod:`repro.workload.checksum`); ``data_checksums`` has one entry per page.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.errors import ConfigurationError
from repro.workload.checksum import page_token


@dataclass
class DataPacket:
    """One request's payload-and-header record.

    ``initial_checksums`` snapshot what each target page held *before* the
    request issued — the reference the Analyzer needs to tell an FWA (old
    data still present) from outright corruption.
    """

    packet_id: int
    address_lpn: int
    page_count: int
    is_write: bool
    queue_time: int = -1
    complete_time: int = -1
    data_checksums: List[int] = field(default_factory=list)
    initial_checksums: List[int] = field(default_factory=list)
    final_checksums: List[int] = field(default_factory=list)
    # Analyzer verdict flags (Fig. 2's Modified? / Data Failure? / Not Issued?).
    modified: Optional[bool] = None
    data_failure: Optional[bool] = None
    not_issued: Optional[bool] = None

    def __post_init__(self) -> None:
        if self.packet_id <= 0:
            raise ConfigurationError("packet ids start at 1")
        if self.page_count <= 0:
            raise ConfigurationError("packet must cover at least one page")
        if self.address_lpn < 0:
            raise ConfigurationError("negative address")
        if self.is_write and not self.data_checksums:
            # Page tokens count up by one; both ends are range-checked.
            self.data_checksums = list(
                range(
                    page_token(self.packet_id, 0),
                    page_token(self.packet_id, self.page_count - 1) + 1,
                )
            )

    @property
    def size_bytes(self) -> int:
        """Payload size (Fig. 2's Size field)."""
        return self.page_count * 4096

    @property
    def end_lpn(self) -> int:
        """First page after the packet's range."""
        return self.address_lpn + self.page_count

    def lpns(self) -> range:
        """Target logical pages."""
        return range(self.address_lpn, self.end_lpn)

    def token_for(self, lpn: int) -> int:
        """The write token this packet put at ``lpn``."""
        if not self.address_lpn <= lpn < self.end_lpn:
            raise ConfigurationError(f"LPN {lpn} outside packet range")
        if not self.is_write:
            raise ConfigurationError("read packets carry no write tokens")
        return self.data_checksums[lpn - self.address_lpn]

    @property
    def acked(self) -> bool:
        """True once the device acknowledged the request."""
        return self.complete_time >= 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "W" if self.is_write else "R"
        return (
            f"<DataPacket #{self.packet_id} {kind} lpn={self.address_lpn}"
            f"+{self.page_count}>"
        )
