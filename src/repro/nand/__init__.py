"""NAND flash substrate.

Models the flash array inside the device under test at the level of detail
the paper's failure mechanisms require:

- physical geometry (channel / die / plane / block / page) and address math;
- cell kinds (SLC / MLC / TLC) with shared-wordline *paired pages*, the
  mechanism by which interrupting one program corrupts **previously written**
  data (paper §IV-A, §IV-G);
- the ISPP program-and-verify loop whose long multi-pulse duration makes
  programs "susceptible against power failures" (§I);
- a voltage-dependent corruption model for programs interrupted or executed
  in the PSU discharge window; and
- ECC schemes (BCH-like and LDPC-like budgets, Table I) that decide whether
  weakly-programmed pages are readable afterwards.

Public surface: :class:`~repro.nand.geometry.NandGeometry`,
:class:`~repro.nand.chip.FlashChip`, :class:`~repro.nand.cell.CellKind`,
:class:`~repro.nand.timing.NandTiming`, :class:`~repro.nand.ecc.EccScheme`,
:class:`~repro.nand.corruption.CorruptionModel`.
"""

from repro.nand.cell import CellKind
from repro.nand.chip import FlashChip, PageState
from repro.nand.corruption import CorruptionModel
from repro.nand.ecc import EccScheme
from repro.nand.geometry import NandGeometry, PhysicalPageAddress
from repro.nand.threshold import CellLevelModel
from repro.nand.timing import NandTiming

__all__ = [
    "CellKind",
    "CellLevelModel",
    "CorruptionModel",
    "EccScheme",
    "FlashChip",
    "NandGeometry",
    "NandTiming",
    "PageState",
    "PhysicalPageAddress",
]
