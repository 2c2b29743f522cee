"""The Analyzer: checksum comparison and the §III-B failure taxonomy.

After each fault cycle (power restored, device recovered) the Analyzer reads
back every address the cycle's acknowledged writes touched and classifies
each write packet with the paper's two flags:

- ``completed`` — the btt-derived flag: all sub-requests finished OK.  A
  packet that never completed is an **IO error** (taxonomy case 3).
- ``notApplied`` — the written data is absent *and* the address still holds
  exactly what it held before the request issued.  With ``completed=1`` that
  is a **False Write-Acknowledge** (case 1).
- ``completed=1`` with a checksum mismatch that is *not* the prior content
  is a **data failure** (case 2).

A write that a *later* acknowledged write legitimately superseded is judged
against the superseding chain: if the address holds any later writer's data
the earlier packet cannot be blamed.  When both members of a WAW pair are
lost, the earlier one rolls back to the pre-pair content (FWA) and the later
one mismatches everything (data failure) — two failures from one fault,
exactly the amplification §IV-G reports.
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from dataclasses import dataclass
from itertools import repeat
from operator import ne
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.ftl.mapping import contiguous_runs
from repro.ssd.device import CORRUPT_TOKEN
from repro.workload.checksum import TOKEN_ZERO
from repro.workload.packet import DataPacket


class FailureKind(enum.Enum):
    """The paper's three IO-failure classes (§III-B)."""

    DATA_FAILURE = "data_failure"
    FWA = "false_write_ack"
    IO_ERROR = "io_error"


@dataclass(frozen=True)
class FailureRecord:
    """One classified failure."""

    kind: FailureKind
    packet_id: int
    lpn: int
    cycle_index: int
    observed_token: Optional[int] = None
    expected_token: Optional[int] = None


@dataclass
class VerificationOutcome:
    """Everything one verification pass produced."""

    records: List[FailureRecord]
    packets_checked: int
    pages_checked: int

    def count(self, kind: FailureKind) -> int:
        """Failures of one kind."""
        return sum(1 for r in self.records if r.kind is kind)

    @property
    def intact_packets(self) -> int:
        """Packets that verified clean (each failed packet yields one record)."""
        return self.packets_checked - len(self.records)


class Analyzer:
    """Stateful verifier over one ``peek_run(lpn, count) -> [token|None]`` source.

    The source is usually a simulated drive's ``host.ssd.peek_run``, bound
    when the Analyzer is built, which reads without side effects; it can as
    well read a real block device (returning per-page checksums),
    diskchecker-style — the taxonomy logic is identical.  Each cycle reads
    every audited page once, one call per run of contiguous LPNs.

    Keeps a persistent per-LPN *expected content* ledger across fault
    cycles: after each verification the ledger is reconciled with what the
    device actually holds, so the next cycle's "checksum before issuing the
    request" references (Fig. 2's Initial Checksum) are exact.
    """

    def __init__(self, peek_run: Callable[[int, int], Sequence[Optional[int]]]) -> None:
        self._peek_run = peek_run
        self._expected: Dict[int, int] = {}  # lpn -> token (TOKEN_ZERO if absent)
        # Statistics.
        self.total_records: int = 0
        self.packets_verified: int = 0

    # -- reference bookkeeping ---------------------------------------------------------

    def expected_at(self, lpn: int) -> int:
        """Verified content of ``lpn`` as of the last reconciliation."""
        return self._expected.get(lpn, TOKEN_ZERO)

    def snapshot_initial_checksums(self, packet: DataPacket) -> None:
        """Fill the packet's Initial Checksum header field (Fig. 2)."""
        packet.initial_checksums = list(
            map(self._expected.get, packet.lpns(), repeat(TOKEN_ZERO))
        )

    # -- verification --------------------------------------------------------------------

    def verify_cycle(
        self,
        cycle_index: int,
        completed_writes: Sequence[DataPacket],
        failed_packets: Sequence[DataPacket],
    ) -> VerificationOutcome:
        """Classify one cycle's packets after recovery.

        ``completed_writes`` are ACKed write packets (any order);
        ``failed_packets`` are requests that never completed (IO errors).
        """
        records: List[FailureRecord] = []
        ordered = sorted(completed_writes, key=lambda p: p.complete_time)

        # Each LPN's last writer's token: later acks overwrite earlier ones.
        last_token: Dict[int, int] = {}
        for packet in ordered:
            if not packet.is_write or len(packet.data_checksums) != packet.page_count:
                raise ConfigurationError(
                    f"packet {packet.packet_id} is not a write with one token per page"
                )
            last_token.update(zip(packet.lpns(), packet.data_checksums))

        # Read every address once, one call per run of contiguous LPNs, then
        # reconcile the ledger with observed reality so the next cycle's
        # Initial Checksums are exact.  Only an address that lacks its last
        # writer's data can hold a failure.
        lpns = sorted(last_token)
        observations: List[Optional[int]] = []
        for start, count in contiguous_runs(lpns):
            observations.extend(self._peek_run(start, count))
        # An address that reads as erased holds TOKEN_ZERO.
        observed_tokens = (
            [TOKEN_ZERO if token is None else token for token in observations]
            if None in observations
            else observations
        )
        mismatched = bytes(
            map(ne, observed_tokens, map(last_token.__getitem__, lpns))
        )
        expected = self._expected
        lost: Dict[int, Tuple[Optional[int], int]] = {}  # lpn -> (observed, prior)
        index = mismatched.find(1)
        while index != -1:
            lpn = lpns[index]
            lost[lpn] = (observations[index], expected.get(lpn, TOKEN_ZERO))
            index = mismatched.find(1, index + 1)
        expected.update(zip(lpns, observed_tokens))

        # Write chains of the lost addresses only, [(ack_order, packet,
        # token), ...], in order of first appearance (ack order, then LPN).
        chains: Dict[int, List[Tuple[int, DataPacket, int]]] = {}
        if lost:
            lost_lpns = list(lost)  # ascending
            for order, packet in enumerate(ordered):
                low = bisect_left(lost_lpns, packet.address_lpn)
                high = bisect_left(lost_lpns, packet.end_lpn, low)
                for lpn in lost_lpns[low:high]:
                    chains.setdefault(lpn, []).append(
                        (order, packet, packet.token_for(lpn))
                    )

        failed_page: Dict[int, Tuple[FailureKind, int, Optional[int], int]] = {}
        for lpn, chain in chains.items():
            observed, prior = lost[lpn]
            observed_token = TOKEN_ZERO if observed is None else observed
            chain_tokens = [token for _, _, token in chain]
            for index, (order, packet, token) in enumerate(chain):
                if observed_token == token:
                    continue  # this write's data is present
                if observed_token in chain_tokens[index + 1 :]:
                    continue  # legitimately superseded by a later write
                # This packet's data is gone.  notApplied: the address holds
                # exactly what it held before THIS packet issued.
                prior_for_packet = chain_tokens[index - 1] if index > 0 else prior
                if observed_token == prior_for_packet and observed_token != CORRUPT_TOKEN:
                    kind = FailureKind.FWA
                else:
                    kind = FailureKind.DATA_FAILURE
                existing = failed_page.get(packet.packet_id)
                if existing is None or kind is FailureKind.DATA_FAILURE:
                    failed_page[packet.packet_id] = (
                        kind,
                        lpn,
                        observed,
                        token,
                    )

        # One record per failed packet; data failure outranks FWA.
        for packet in ordered:
            verdict = failed_page.get(packet.packet_id)
            packet.modified = verdict is None
            packet.data_failure = (
                verdict is not None and verdict[0] is FailureKind.DATA_FAILURE
            )
            if verdict is None:
                continue
            kind, lpn, observed, token = verdict
            records.append(
                FailureRecord(
                    kind=kind,
                    packet_id=packet.packet_id,
                    lpn=lpn,
                    cycle_index=cycle_index,
                    observed_token=observed,
                    expected_token=token,
                )
            )

        # IO errors: completed=0 (taxonomy case 3).
        for packet in failed_packets:
            packet.not_issued = True
            records.append(
                FailureRecord(
                    kind=FailureKind.IO_ERROR,
                    packet_id=packet.packet_id,
                    lpn=packet.address_lpn,
                    cycle_index=cycle_index,
                )
            )

        self.total_records += len(records)
        self.packets_verified += len(ordered)
        return VerificationOutcome(
            records=records,
            packets_checked=len(ordered) + len(failed_packets),
            pages_checked=sum(packet.page_count for packet in ordered),
        )
