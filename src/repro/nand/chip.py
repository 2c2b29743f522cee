"""Flash array state machine.

The chip keeps per-page state in a :mod:`~repro.nand.pagestore` — flat
per-block columns — and exposes one API layer, the one the FTL and the
device's flush batch call:

- :meth:`FlashChip.program_pages` commits a run of page programs, each at
  the rail voltage of its own commit instant;
- :meth:`FlashChip.apply_interruption_batch` resolves the programs a power
  fault caught mid-ISPP, and the paired-page collateral they cause;
- :meth:`FlashChip.erase_block_now` and :meth:`FlashChip.read_page` act at
  the current instant (latency is the caller's concern);
- :meth:`FlashChip.inspect_run` is the forensic read the auditors use: the
  same ECC and read-retry decision as ``read_page``, with no counter, no
  read disturb and no draw;
- :meth:`FlashChip.age_retention` applies charge leakage.

Every random draw lives here, in fixed per-page order: one call over N
pages draws exactly what N one-page calls would, for both
``program_pages`` and ``apply_interruption_batch``.  The store draws
nothing, which is what keeps campaign results bit-identical across storage
representations.

Supply awareness: the chip reads its rail through ``voltage_source`` (wired
to the PSU by the SSD device).  Programs that commit on a sagging rail store
degraded *quality* and elevated raw-bit-error counts — this is how the PSU
discharge phase (the paper's novelty) reaches the stored data.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from random import Random
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import AddressError, DeviceUnavailableError, ProtocolError
from repro.nand.cell import CellKind
from repro.nand.corruption import CorruptionModel
from repro.nand.ecc import EccScheme
from repro.nand.geometry import NandGeometry
from repro.nand.pagestore import STATE_CORRUPT, ArrayPageStore
from repro.nand.timing import NandTiming

CORRUPT_TOKEN = -1
"""Forensic-read token of a page whose data is uncorrectable."""

# Outcomes of the one read decision (:meth:`FlashChip._decide`).
READ_ERASED = 0
READ_CLEAN = 1
READ_RETRIED = 2
READ_UNCORRECTABLE = 3


class PageState(enum.Enum):
    """Stored state of one physical page."""

    ERASED = "erased"
    VALID = "valid"
    CORRUPT = "corrupt"


@dataclass
class ReadResult:
    """Outcome of a page read."""

    ppa: int
    state: PageState
    token: Optional[int]
    correctable: bool
    raw_error_bits: int = 0

    @property
    def ok(self) -> bool:
        """True when valid data decoded cleanly."""
        return self.state is PageState.VALID and self.correctable


@dataclass
class PowerLossReport:
    """Pages the programs torn by one power fault destroyed."""

    corrupted_pages: List[int] = field(default_factory=list)
    collateral_pages: List[int] = field(default_factory=list)


class FlashChip:
    """The NAND array of one device.

    Example
    -------
    >>> from random import Random
    >>> chip = FlashChip(NandGeometry(blocks_per_plane=8), rng=Random(1))
    >>> chip.program_pages([0], [101])
    >>> chip.read_page(0).token
    101
    """

    def __init__(
        self,
        geometry: NandGeometry,
        cell: CellKind = CellKind.MLC,
        timing: Optional[NandTiming] = None,
        ecc: Optional[EccScheme] = None,
        corruption: Optional[CorruptionModel] = None,
        rng: Optional[Random] = None,
        voltage_source: Optional[Callable[[], float]] = None,
    ) -> None:
        self.geometry = geometry
        self.cell = cell
        self.timing = timing if timing is not None else NandTiming()
        self.ecc = ecc if ecc is not None else EccScheme.bch()
        self.corruption = corruption if corruption is not None else CorruptionModel()
        self.rng = rng if rng is not None else Random(0)
        self.voltage_source = voltage_source if voltage_source is not None else (lambda: 5.0)
        self.powered = True
        self.store = ArrayPageStore(geometry)
        self._block_reads: Dict[int, int] = {}
        # Statistics.
        self.programs_committed = 0
        self.reads_served = 0
        self.erases_committed = 0
        self.uncorrectable_reads = 0
        self.disturb_events = 0
        self.read_retries = 0

    # -- reliability-physics knobs (read disturb / retention, §II mechanisms) --

    READ_DISTURB_INTERVAL = 10_000
    """Block reads between disturb events (pass-voltage stress accumulates)."""

    READ_DISTURB_BITS = 4
    """Raw error bits one disturb event adds to a victim page."""

    RETENTION_BITS_PER_HOUR_SLC = 0.002
    """Charge-leakage error growth per hour for SLC at nominal quality
    (healthy pages survive years; marginal pages decay ~10x faster)."""

    # -- validation helpers ----------------------------------------------------------

    def _check_ppa(self, ppa: int) -> None:
        if not 0 <= ppa < self.geometry.total_pages:
            raise AddressError(f"PPA {ppa} outside array of {self.geometry.total_pages}")

    def _check_powered(self) -> None:
        if not self.powered:
            raise DeviceUnavailableError("flash array is unpowered")

    # -- programs --------------------------------------------------------------------

    def program_pages(
        self,
        ppas: Sequence[int],
        tokens: Sequence[int],
        volts: Union[None, float, Sequence[Optional[float]]] = None,
    ) -> None:
        """Commit page programs in order, one error draw per page.

        ``volts`` is the rail voltage at the (possibly earlier) instant each
        page's ISPP train actually finished — the batching flusher passes the
        value the PSU waveform had at the page's planned commit time, so pages
        that completed inside the discharge window store degraded quality even
        though the bookkeeping runs at power-loss time.  It is ``None``
        (sample the live rail), one voltage for the whole batch, or a
        per-page sequence (entries may be ``None``).

        Each page's range check and non-erased check come before its draw; a
        failed check raises after the pages before it committed.
        """
        self._check_powered()
        program_quality = self.corruption.program_quality
        count = min(len(ppas), len(tokens))
        if volts is None or isinstance(volts, (int, float)):
            quality = program_quality(self.voltage_source() if volts is None else volts)
            qualities = [quality] * count
        else:
            qualities = []
            live = last = None
            for page_volts in volts:
                if page_volts is None:
                    if live is None:
                        live = self.voltage_source()
                    page_volts = live
                if page_volts != last:
                    quality = program_quality(page_volts)
                    last = page_volts
                qualities.append(quality)
            count = min(count, len(qualities))
        done = self.store.program_run(ppas, tokens, qualities, self._error_bits)
        self.programs_committed += done
        if done < count:
            # The store stopped at a page outside the array or not erased.
            ppa = ppas[done]
            self._check_ppa(ppa)
            raise ProtocolError(f"program of non-erased page {ppa} (no in-place update)")

    def _error_bits(self, qualities: Sequence[float]) -> List[int]:
        """Raw-bit-error counts of a run of programs, drawn in page order.

        A page at nominal quality draws what ``sample_error_bits`` draws at
        quality 1.0, inlined in the hottest loop; a page below nominal
        quality keeps its own ``sample_error_bits`` call.
        """
        corruption = self.corruption
        cell = self.cell
        rng = self.rng
        gauss = rng.gauss
        sample_error_bits = corruption.sample_error_bits
        mean = corruption.base_error_bits * cell.raw_bit_error_scale
        sigma = mean**0.5
        errors: List[int] = []
        append = errors.append
        for quality in qualities:
            if quality >= 1.0:
                raw_bits = round(gauss(mean, sigma))
                append(raw_bits if raw_bits > 0 else 0)
            else:
                append(sample_error_bits(rng, cell, quality))
        return errors

    def apply_interruption_batch(
        self, interruptions: Sequence[Tuple[int, float, int]]
    ) -> PowerLossReport:
        """Resolve programs caught mid-ISPP by a power collapse.

        ``interruptions`` is ``(ppa, progress, token)`` per page.  Pages are
        resolved in input order, each drawing in a fixed order: the tear, the
        survivor's error bits (if it committed), then its collateral.  The
        report names the pages destroyed outright and the earlier-sibling
        pages on their wordlines that lost data as collateral.
        """
        report = PowerLossReport()
        corruption = self.corruption
        store = self.store
        rng = self.rng
        for ppa, progress, token in interruptions:
            self._check_ppa(ppa)
            if corruption.interrupted_program_corrupts(rng, progress):
                store.corrupt(ppa)
                report.corrupted_pages.append(ppa)
            elif progress >= corruption.program_survival_progress:
                # The final verify pulses were confirmatory; page committed,
                # but at whatever quality the sagging rail allowed.
                quality = corruption.program_quality(self.voltage_source())
                raw_bits = corruption.sample_error_bits(rng, self.cell, quality)
                store.program(ppa, token, raw_bits, quality)
                self.programs_committed += 1
            # else: the page retains a mostly-erased level; treated as erased.
            page_in_block = self.geometry.page_in_block(ppa)
            block_base = ppa - page_in_block
            for sibling in corruption.collateral_pages(rng, self.cell, page_in_block):
                sibling_ppa = block_base + sibling
                if store.corrupt_if_valid(sibling_ppa):
                    report.collateral_pages.append(sibling_ppa)
        return report

    def erase_block_now(self, block: int) -> None:
        """Erase a block at the current instant."""
        self._check_powered()
        if not 0 <= block < self.geometry.blocks:
            raise AddressError(f"block {block} outside array")
        self.store.erase_block(block)
        self.erases_committed += 1

    # -- reads -----------------------------------------------------------------------

    def _decide(self, entry: Optional[Tuple[int, int, int, float]]) -> int:
        """The read decision for one page-store entry: ECC, then read-retry.

        Returns ``READ_ERASED``, ``READ_CLEAN``, ``READ_RETRIED`` or
        ``READ_UNCORRECTABLE`` and touches nothing: no counter, no read
        disturb, no draw.
        """
        if entry is None:
            return READ_ERASED
        state, _, raw_error_bits, _ = entry
        if state == STATE_CORRUPT:
            return READ_UNCORRECTABLE
        if self.ecc.can_correct(raw_error_bits):
            return READ_CLEAN
        # Firmware escalation: re-read with re-centred references.
        if self.ecc.can_correct_with_retry(raw_error_bits):
            return READ_RETRIED
        return READ_UNCORRECTABLE

    def read_page(self, ppa: int) -> ReadResult:
        """Read one page (state access; latency is the caller's concern)."""
        self._check_powered()
        self._check_ppa(ppa)
        self.reads_served += 1
        self._apply_read_disturb(ppa)
        entry = self.store.entry(ppa)
        outcome = self._decide(entry)
        if outcome == READ_ERASED:
            return ReadResult(ppa, PageState.ERASED, None, correctable=True)
        if outcome == READ_RETRIED:
            self.read_retries += 1
        elif outcome == READ_UNCORRECTABLE:
            self.uncorrectable_reads += 1
        state, token, raw_error_bits, _ = entry
        if state == STATE_CORRUPT:
            return ReadResult(ppa, PageState.CORRUPT, None, correctable=False)
        correctable = outcome != READ_UNCORRECTABLE
        return ReadResult(
            ppa,
            PageState.VALID,
            token if correctable else None,
            correctable=correctable,
            raw_error_bits=raw_error_bits,
        )

    def inspect_run(self, ppas: Sequence[Optional[int]]) -> List[Optional[int]]:
        """Forensic read of a run of pages, with :meth:`read_page`'s decision.

        Per page: ``None`` for a ``None`` PPA (an unmapped page) or an erased
        page, :data:`CORRUPT_TOKEN` when ECC and read-retry cannot decode
        it, else its token.  Unlike :meth:`read_page` it bumps no counter,
        applies no read disturb and makes no draw, so an audit leaves the
        array exactly as it found it.  The page store answers every page
        that a first-pass decode reads as is
        (:meth:`~repro.nand.pagestore.ArrayPageStore.clean_tokens`, given the
        ECC budget); every other written page goes through :meth:`_decide`.
        """
        if ppas.count(None) < len(ppas):
            self._check_powered()
        store = self.store
        tokens, undecided = store.clean_tokens(
            ppas, self.ecc.correctable_bits_per_page
        )
        for position in undecided:
            page = store.entry(ppas[position])
            if self._decide(page) == READ_UNCORRECTABLE:
                tokens[position] = CORRUPT_TOKEN
            else:  # decoded after read-retry
                tokens[position] = page[1]
        return tokens

    def _apply_read_disturb(self, ppa: int) -> None:
        """Accumulate pass-voltage stress on the block being read.

        Every :data:`READ_DISTURB_INTERVAL` reads of a block, one random
        written page of that block gains raw error bits — the read-disturb
        mechanism the paper's related work (Cai et al., Grupp et al.)
        characterises.  Cheap: one dict increment per read.
        """
        block = self.geometry.block_of(ppa)
        count = self._block_reads.get(block, 0) + 1
        self._block_reads[block] = count
        if count % self.READ_DISTURB_INTERVAL:
            return
        base = self.geometry.first_page_of_block(block)
        victim = base + self.rng.randrange(self.geometry.pages_per_block)
        bits = round(self.READ_DISTURB_BITS * self.cell.raw_bit_error_scale)
        if self.store.add_error_bits_if_valid(victim, bits):
            self.disturb_events += 1

    def age_retention(self, hours: float) -> int:
        """Apply charge-leakage aging to every stored page.

        Error growth scales with the cell kind and inversely with program
        quality — a page programmed on a sagging rail (the discharge-window
        mechanism) decays much faster, so data that read fine right after
        the fault can become uncorrectable later ("a period of time which
        cannot be determined clearly", §I).  Returns pages pushed past the
        ECC budget by this aging step.
        """
        if hours < 0:
            raise ProtocolError("cannot age backwards")
        bits_per_hour = self.RETENTION_BITS_PER_HOUR_SLC * self.cell.raw_bit_error_scale
        return self.store.age_retention(bits_per_hour, hours, self.ecc.can_correct)

    def block_read_count(self, block: int) -> int:
        """Lifetime reads of one block (read-disturb bookkeeping)."""
        return self._block_reads.get(block, 0)

    # -- power events ----------------------------------------------------------------

    def power_loss(self) -> None:
        """Rail collapsed below the logic floor: the array stops answering.

        Programs in flight are resolved by the device's flush batch (through
        :meth:`apply_interruption_batch`) before it calls this.
        """
        self.powered = False

    def power_on(self) -> None:
        """Restore power.  Stored charge (page records) persists."""
        self.powered = True

    # -- introspection ------------------------------------------------------------------

    def written_page_count(self) -> int:
        """Number of pages currently holding (valid or corrupt) charge."""
        return self.store.written_count()

    def valid_page_count(self) -> int:
        """Number of pages in VALID state."""
        return self.store.valid_count()

    def corrupt_page_count(self) -> int:
        """Number of pages in CORRUPT state."""
        return self.store.corrupt_count()
