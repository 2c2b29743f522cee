"""NAND array geometry and physical address arithmetic.

A physical page address (PPA) is a dense integer enumerating pages in
``channel -> die -> plane -> block -> page`` order; the helpers here convert
between the dense form and the structured tuple form and derive capacity
figures used for device presets (Table I drives).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.errors import ConfigurationError
from repro.units import KIB


@dataclass(frozen=True)
class PhysicalPageAddress:
    """Structured form of a physical page address."""

    channel: int
    die: int
    plane: int
    block: int
    page: int


@dataclass(frozen=True)
class NandGeometry:
    """Shape of the flash array.

    Defaults give a 16-die, 4-channel array of 2 MiB blocks totalling 128 GiB
    — a plausible client-SATA layout circa the paper's drives (Table I,
    120-256 GB).

    Example
    -------
    >>> geo = NandGeometry()
    >>> geo.capacity_bytes // (1024 ** 3)
    128
    >>> ppa = geo.encode(PhysicalPageAddress(1, 0, 0, 5, 17))
    >>> geo.decode(ppa).block
    5
    """

    channels: int = 4
    dies_per_channel: int = 4
    planes_per_die: int = 2
    blocks_per_plane: int = 2048
    pages_per_block: int = 512
    page_size: int = 4 * KIB

    def __post_init__(self) -> None:
        for field_name in (
            "channels",
            "dies_per_channel",
            "planes_per_die",
            "blocks_per_plane",
            "pages_per_block",
            "page_size",
        ):
            if getattr(self, field_name) <= 0:
                raise ConfigurationError(f"{field_name} must be positive")
        if self.page_size % 512:
            raise ConfigurationError("page_size must be a multiple of 512")
        # The counts are read on every page access, so they are computed once
        # here.  They live outside the dataclass fields: ``asdict``, ``repr``,
        # equality and hashing see only the six fields above.
        dies = self.channels * self.dies_per_channel
        planes = dies * self.planes_per_die
        blocks = planes * self.blocks_per_plane
        object.__setattr__(self, "_dies", dies)
        object.__setattr__(self, "_planes", planes)
        object.__setattr__(self, "_blocks", blocks)
        object.__setattr__(self, "_total_pages", blocks * self.pages_per_block)

    # -- derived sizes -------------------------------------------------------------

    @property
    def dies(self) -> int:
        """Total die count across all channels."""
        return self._dies

    @property
    def planes(self) -> int:
        """Total plane count."""
        return self._planes

    @property
    def blocks(self) -> int:
        """Total block count."""
        return self._blocks

    @property
    def total_pages(self) -> int:
        """Total physical page count."""
        return self._total_pages

    @property
    def block_size(self) -> int:
        """Bytes per erase block."""
        return self.pages_per_block * self.page_size

    @property
    def capacity_bytes(self) -> int:
        """Raw array capacity in bytes."""
        return self.total_pages * self.page_size

    # -- address math ----------------------------------------------------------------

    def encode(self, addr: PhysicalPageAddress) -> int:
        """Dense PPA for a structured address."""
        self._check(addr)
        ppa = addr.channel
        ppa = ppa * self.dies_per_channel + addr.die
        ppa = ppa * self.planes_per_die + addr.plane
        ppa = ppa * self.blocks_per_plane + addr.block
        ppa = ppa * self.pages_per_block + addr.page
        return ppa

    def decode(self, ppa: int) -> PhysicalPageAddress:
        """Structured address for a dense PPA."""
        if not 0 <= ppa < self.total_pages:
            raise ConfigurationError(f"PPA {ppa} out of range")
        ppa, page = divmod(ppa, self.pages_per_block)
        ppa, block = divmod(ppa, self.blocks_per_plane)
        ppa, plane = divmod(ppa, self.planes_per_die)
        channel, die = divmod(ppa, self.dies_per_channel)
        return PhysicalPageAddress(channel, die, plane, block, page)

    def block_of(self, ppa: int) -> int:
        """Dense block index containing ``ppa``."""
        if not 0 <= ppa < self.total_pages:
            raise ConfigurationError(f"PPA {ppa} out of range")
        return ppa // self.pages_per_block

    def page_in_block(self, ppa: int) -> int:
        """Page offset of ``ppa`` within its block."""
        if not 0 <= ppa < self.total_pages:
            raise ConfigurationError(f"PPA {ppa} out of range")
        return ppa % self.pages_per_block

    def first_page_of_block(self, block: int) -> int:
        """Dense PPA of page 0 of dense block index ``block``."""
        if not 0 <= block < self.blocks:
            raise ConfigurationError(f"block {block} out of range")
        return block * self.pages_per_block

    def iter_block_pages(self, block: int) -> Iterator[int]:
        """Iterate dense PPAs of every page in dense block ``block``."""
        start = self.first_page_of_block(block)
        return iter(range(start, start + self.pages_per_block))

    def _check(self, addr: PhysicalPageAddress) -> None:
        if not (
            0 <= addr.channel < self.channels
            and 0 <= addr.die < self.dies_per_channel
            and 0 <= addr.plane < self.planes_per_die
            and 0 <= addr.block < self.blocks_per_plane
            and 0 <= addr.page < self.pages_per_block
        ):
            raise ConfigurationError(f"address {addr} outside geometry")

    @classmethod
    def for_capacity(cls, capacity_bytes: int, **overrides) -> "NandGeometry":
        """Geometry sized (by scaling block count) to at least ``capacity_bytes``.

        Used by the Table I device presets (120 GB vs 256 GB drives).
        """
        base = cls(**overrides)
        if capacity_bytes <= 0:
            raise ConfigurationError("capacity must be positive")
        per_plane_block_bytes = base.block_size
        planes = base.planes
        blocks_per_plane = -(-capacity_bytes // (per_plane_block_bytes * planes))
        return cls(
            channels=base.channels,
            dies_per_channel=base.dies_per_channel,
            planes_per_die=base.planes_per_die,
            blocks_per_plane=max(blocks_per_plane, 8),
            pages_per_block=base.pages_per_block,
            page_size=base.page_size,
        )
