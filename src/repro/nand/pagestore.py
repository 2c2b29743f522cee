"""Columnar page-state storage for the NAND array.

The campaign hot path reads and writes millions of per-page records; storing
each as a Python object in a dict keyed by PPA makes every scan an attribute
chase through the object graph.  :class:`ArrayPageStore` keeps page state in
flat per-block *columns* instead:

======== ================= =====================================
column   type              meaning
======== ================= =====================================
state    ``bytearray``     0 erased · 1 valid · 2 corrupt
token    ``array('q')``    data checksum token (valid pages)
err      ``array('q')``    raw bit-error count
quality  ``array('d')``    program quality in (0, 1]
======== ================= =====================================

Chunks are allocated lazily per erase block (the default geometry addresses
33.5M pages — a dense array per column would cost ~800 MB per shard, while a
campaign only ever touches its working set), and an erased block simply drops
its chunk.  Block-wide operations (erase, retention aging) are C-speed
passes over the ``state`` bytearray rather than per-page dict probes.

The store draws no randomness and applies no policy — corruption physics and
every RNG draw stay in :class:`~repro.nand.chip.FlashChip`, in per-page order
(``program_run`` asks the chip for the error counts of each block-local run
of pages it is about to program, and of no page after a stop), so the layout
cannot move a campaign result.
``tests/test_pagestore_equivalence.py`` drives it against an independent
dict-of-tuples reference through random operation sequences.
"""

from __future__ import annotations

from array import array
from itertools import islice, repeat
from operator import add, ne
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.nand.geometry import NandGeometry

STATE_ERASED = 0
STATE_VALID = 1
STATE_CORRUPT = 2

_NO_TOKEN = 0
"""Column filler for pages without data (token validity is derived from the
state column — 0 is also a legitimate stored token, e.g. the journal's)."""

_VALID_BYTE = bytes((STATE_VALID,))


class ArrayPageStore:
    """Chunked columnar store of primitive page-state operations.

    Entries are ``(state, token, err, quality)`` tuples; ``entry`` returns
    ``None`` for erased pages.  Tokens are only meaningful for VALID pages.
    """

    def __init__(self, geometry: NandGeometry) -> None:
        self.geometry = geometry
        self._ppb = geometry.pages_per_block
        self._chunks: Dict[int, List] = {}
        self._written = 0
        self._valid = 0
        # Zero-filled column templates, copied per chunk (C-speed).
        n = self._ppb
        self._state_template = bytearray(n)
        self._token_template = array("q", bytes(8 * n))
        self._err_template = array("q", bytes(8 * n))
        self._quality_template = array("d", [1.0]) * n

    def _chunk(self, block: int) -> List:
        chunk = self._chunks.get(block)
        if chunk is None:
            chunk = [
                bytearray(self._state_template),
                array("q", self._token_template),
                array("q", self._err_template),
                array("d", self._quality_template),
            ]
            self._chunks[block] = chunk
        return chunk

    def clean_tokens(
        self, ppas: Sequence[Optional[int]], budget: int
    ) -> Tuple[List[Optional[int]], List[int]]:
        """Tokens of a run of pages that a first-pass read decodes as is.

        Returns ``(tokens, undecided)``.  ``tokens[i]`` is the token of a
        VALID page whose error count is in ``[0, budget]`` (the first-pass
        test of :meth:`~repro.nand.ecc.EccScheme.can_correct`), else
        ``None``: for a ``None`` PPA, an erased page, or a page listed by
        its position in ``undecided`` (CORRUPT, or VALID past the budget),
        which the caller decides from :meth:`entry`.  Reads one chunk per
        block entered and changes nothing.
        """
        ppb = self._ppb
        chunks = self._chunks
        tokens: List[Optional[int]] = []
        undecided: List[int] = []
        append = tokens.append
        current = chunk = None
        base = 0
        for position, ppa in enumerate(ppas):
            if ppa is None:
                append(None)
                continue
            block = ppa // ppb
            if block != current:
                current = block
                chunk = chunks.get(block)
                base = block * ppb
            if chunk is None:
                append(None)  # an erased block
                continue
            index = ppa - base
            state = chunk[0][index]
            if state == STATE_VALID and 0 <= chunk[2][index] <= budget:
                append(chunk[1][index])
                continue
            if state != STATE_ERASED:
                undecided.append(position)
            append(None)
        return tokens, undecided

    # -- single-page ops ------------------------------------------------------

    def entry(self, ppa: int) -> Optional[Tuple[int, int, int, float]]:
        chunk = self._chunks.get(ppa // self._ppb)
        if chunk is None:
            return None
        index = ppa % self._ppb
        state = chunk[0][index]
        if state == STATE_ERASED:
            return None
        return (state, chunk[1][index], chunk[2][index], chunk[3][index])

    def program(self, ppa: int, token: int, err: int, quality: float) -> None:
        chunk = self._chunk(ppa // self._ppb)
        index = ppa % self._ppb
        previous = chunk[0][index]
        chunk[0][index] = STATE_VALID
        chunk[1][index] = token
        chunk[2][index] = err
        chunk[3][index] = quality
        if previous == STATE_ERASED:
            self._written += 1
        self._valid += 1 if previous != STATE_VALID else 0

    def program_run(
        self,
        ppas: Sequence[int],
        tokens: Sequence[int],
        qualities: Sequence[float],
        draw: Callable[[Sequence[float]], List[int]],
    ) -> int:
        """Program pages in order until one is outside the array or VALID.

        The pages are taken one block-local run of consecutive PPAs at a
        time (a PPA list that is not consecutive runs page by page): the
        run is range-checked, one ``find`` looks for a VALID page in it,
        ``draw(qualities)`` returns the error counts of the pages before
        that stop, and each column takes them in one slice.  So a stop
        leaves the draws of later pages untaken.  Returns the pages
        programmed.
        """
        count = min(len(ppas), len(tokens), len(qualities))
        ppb = self._ppb
        total = self.geometry.total_pages
        # breaks[i] is 1 where page i + 1 does not follow page i.
        breaks = bytes(map(ne, islice(ppas, 1, count), map(add, ppas, repeat(1))))
        done = 0
        while done < count:
            first = ppas[done]
            if not 0 <= first < total:
                break
            block, lo = divmod(first, ppb)
            limit = done + min(count - done, ppb - lo)
            stop = breaks.find(1, done, limit - 1)
            hi = lo + (limit if stop == -1 else stop + 1) - done
            state, token_col, err_col, quality_col = self._chunk(block)
            valid = state.find(STATE_VALID, lo, hi)
            if valid != -1:
                hi = valid
            n = hi - lo
            if n:
                run_qualities = qualities[done : done + n]
                err_col[lo:hi] = array("q", draw(run_qualities))
                self._written += n - state.count(STATE_CORRUPT, lo, hi)
                self._valid += n
                state[lo:hi] = _VALID_BYTE * n
                token_col[lo:hi] = array("q", tokens[done : done + n])
                quality_col[lo:hi] = array("d", run_qualities)
                done += n
            if valid != -1:
                break
        return done

    def corrupt(self, ppa: int) -> None:
        chunk = self._chunk(ppa // self._ppb)
        index = ppa % self._ppb
        previous = chunk[0][index]
        chunk[0][index] = STATE_CORRUPT
        chunk[1][index] = _NO_TOKEN
        chunk[2][index] = 0
        chunk[3][index] = 1.0
        if previous == STATE_ERASED:
            self._written += 1
        elif previous == STATE_VALID:
            self._valid -= 1

    def corrupt_if_valid(self, ppa: int) -> bool:
        chunk = self._chunks.get(ppa // self._ppb)
        if chunk is None:
            return False
        index = ppa % self._ppb
        if chunk[0][index] != STATE_VALID:
            return False
        chunk[0][index] = STATE_CORRUPT
        chunk[1][index] = _NO_TOKEN
        chunk[2][index] = 0
        chunk[3][index] = 1.0
        self._valid -= 1
        return True

    def add_error_bits_if_valid(self, ppa: int, bits: int) -> bool:
        chunk = self._chunks.get(ppa // self._ppb)
        if chunk is None:
            return False
        index = ppa % self._ppb
        if chunk[0][index] != STATE_VALID:
            return False
        chunk[2][index] += bits
        return True

    def set_error_bits(self, ppa: int, bits: int) -> bool:
        chunk = self._chunks.get(ppa // self._ppb)
        if chunk is None or chunk[0][ppa % self._ppb] == STATE_ERASED:
            return False
        chunk[2][ppa % self._ppb] = bits
        return True

    def discard(self, ppa: int) -> bool:
        """Forget one page's charge (test/forensics surface, not a NAND op)."""
        chunk = self._chunks.get(ppa // self._ppb)
        if chunk is None:
            return False
        index = ppa % self._ppb
        previous = chunk[0][index]
        if previous == STATE_ERASED:
            return False
        chunk[0][index] = STATE_ERASED
        chunk[1][index] = _NO_TOKEN
        chunk[2][index] = 0
        chunk[3][index] = 1.0
        self._written -= 1
        if previous == STATE_VALID:
            self._valid -= 1
        return True

    # -- block-wide ops -------------------------------------------------------

    def erase_block(self, block: int) -> None:
        chunk = self._chunks.pop(block, None)
        if chunk is None:
            return
        state = chunk[0]
        valid = state.count(STATE_VALID)
        self._written -= valid + state.count(STATE_CORRUPT)
        self._valid -= valid

    # -- whole-array ops ------------------------------------------------------

    def iter_entries(self) -> Iterator[Tuple[int, int, int, int, float]]:
        """Yield ``(ppa, state, token, err, quality)`` for every written page,
        ascending by PPA."""
        ppb = self._ppb
        for block in sorted(self._chunks):
            chunk = self._chunks[block]
            state = chunk[0]
            base = block * ppb
            index = -1
            while True:
                index = next(
                    (i for i in range(index + 1, ppb) if state[i] != STATE_ERASED),
                    -1,
                )
                if index == -1:
                    break
                yield (
                    base + index,
                    state[index],
                    chunk[1][index],
                    chunk[2][index],
                    chunk[3][index],
                )

    def age_retention(
        self, bits_per_hour: float, hours: float, can_correct: Callable[[int], bool]
    ) -> int:
        """Grow every VALID page's error count by quality-scaled leakage.

        ``bits_per_hour`` is the nominal-quality rate; weak pages (quality
        < 1) decay up to 10x faster.  Returns pages pushed past the ECC
        budget by this aging step (same arithmetic as the seed, per page).
        """
        newly_uncorrectable = 0
        for chunk in self._chunks.values():
            state = chunk[0]
            err = chunk[2]
            quality = chunk[3]
            index = state.find(STATE_VALID)
            while index != -1:
                fragility = 1.0 + 9.0 * (1.0 - quality[index])
                grown = max(0, round(bits_per_hour * fragility * hours))
                if grown:
                    before = err[index]
                    err[index] = before + grown
                    if can_correct(before) and not can_correct(before + grown):
                        newly_uncorrectable += 1
                index = state.find(STATE_VALID, index + 1)
        return newly_uncorrectable

    def written_count(self) -> int:
        return self._written

    def valid_count(self) -> int:
        return self._valid

    def corrupt_count(self) -> int:
        return self._written - self._valid
