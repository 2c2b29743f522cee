"""Append-only command log for the dirty-power-cycle harness.

Every NVMe submission and completion of a stress run is appended to a
JSONL log in the engine's CRC line format, with the same
crash-consistency discipline the shard checkpoint journal applies to
itself (:mod:`repro.engine.checkpoint`, whose codec and torn-tail reader
this module uses, raising :class:`~repro.errors.CmdlogError`):

- **append-only**: records are only ever appended, never rewritten;
- **per-record CRC**: each line carries a CRC32 over its canonical JSON
  payload, so torn or bit-flipped records are detected on replay;
- **fsync on the records that matter**: cycle markers (power fault,
  power on, verified) are fsync'd immediately, bulk IO records are
  fsync'd every :data:`FSYNC_EVERY` appends and at close;
- **torn-tail-tolerant replay**: a damaged *final* line (crash
  mid-append) is dropped silently; damage anywhere before the tail raises
  :class:`~repro.errors.CmdlogError`;
- **duplicate-record idempotence**: replay drops exact re-appends (same
  kind/cycle/cid identity), so a shard re-run that appends the same
  deterministic records again cannot double-count an acknowledgement.

After each power-on the harness replays this log, re-reads every
acknowledged LBA through the Analyzer, and classifies each acked write
**intact / flying-write-ACK (FWA) / data-loss / IO-error** — the
failure-classification the paper's blktrace pipeline cannot see, because
only the command log knows exactly which writes were acknowledged before
the rail fell.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, IO, List, Optional, Sequence, Tuple, Union

from repro.core.analyzer import Analyzer, FailureKind, VerificationOutcome
from repro.engine.checkpoint import encode_line, read_lines
from repro.errors import CmdlogError
from repro.nvme.command import NvmeCommand, NvmeCompletion, NvmeOpcode
from repro.workload.packet import DataPacket

PathLike = Union[str, Path]

CMDLOG_VERSION = 1

FSYNC_EVERY = 64
"""Bulk IO records appended between fsyncs of a file-backed log."""

_WRITE_OPS = ("write", "write_zeroes")


# -- replay -------------------------------------------------------------------------


def record_identity(record: Dict) -> Tuple:
    """The idempotence key: re-appends of the same fact collapse on replay."""
    kind = record.get("kind")
    if kind == "mark":
        return (kind, record.get("cycle"), record.get("event"))
    return (kind, record.get("cycle"), record.get("cid"))


@dataclass
class ReplayedLog:
    """Everything one replay pass recovered."""

    records: List[Dict] = field(default_factory=list)
    dropped_tail: bool = False
    duplicates_dropped: int = 0

    def for_cycle(self, cycle_index: int) -> List[Dict]:
        """Records belonging to one fault cycle."""
        return [r for r in self.records if r.get("cycle") == cycle_index]


def dedupe_records(records: Sequence[Dict]) -> Tuple[List[Dict], int]:
    """Drop exact duplicate facts (first occurrence wins)."""
    seen = set()
    unique: List[Dict] = []
    duplicates = 0
    for record in records:
        key = record_identity(record)
        if key in seen:
            duplicates += 1
            continue
        seen.add(key)
        unique.append(record)
    return unique, duplicates


def replay_cmdlog(path: PathLike) -> ReplayedLog:
    """Torn-tail-tolerant, duplicate-idempotent read of one command log.

    A corrupt or truncated final line is discarded (crash mid-append);
    corruption before the tail raises :class:`CmdlogError` because the
    file was damaged, not torn.
    """
    records, dropped_tail = read_lines(path, CmdlogError)
    unique, duplicates = dedupe_records(records)
    return ReplayedLog(
        records=unique, dropped_tail=dropped_tail, duplicates_dropped=duplicates
    )


# -- writer -------------------------------------------------------------------------


class CommandLog:
    """Append side of the command log (one stress shard, one writer).

    With ``path=None`` the log is memory-only (unit tests, ad-hoc runs);
    records are kept in :attr:`records` either way, so the audit path is
    identical.  File-backed logs are truncated on open: a shard attempt
    is re-run from scratch after a crash, and replay's duplicate handling
    covers the overlap if truncation itself is interrupted.
    """

    def __init__(self, path: Optional[PathLike] = None) -> None:
        self.path = Path(path) if path is not None else None
        self.records: List[Dict] = []
        self._handle: Optional[IO[str]] = None
        self._since_sync = 0

    # -- logging hooks (wired to NvmeController.on_submission/on_completion) --------

    def log_submission(self, cycle_index: int, command: NvmeCommand) -> Dict:
        """Record one submission-queue entry."""
        payload = {
            "v": CMDLOG_VERSION,
            "kind": "sub",
            "cycle": cycle_index,
            "cid": command.cid,
            "op": NvmeOpcode(command.opcode).name.lower(),
            "slba": command.slba,
            "nlb": command.nlb,
            "tokens": list(command.tokens),
            "t": command.submit_time,
        }
        self._append(payload)
        return payload

    def log_completion(self, cycle_index: int, completion: NvmeCompletion) -> Dict:
        """Record one completion (CQE posted == acknowledged)."""
        payload = {
            "v": CMDLOG_VERSION,
            "kind": "cpl",
            "cycle": cycle_index,
            "cid": completion.cid,
            "op": NvmeOpcode(completion.opcode).name.lower(),
            "status": completion.status.value,
            "t": completion.complete_time,
        }
        self._append(payload)
        return payload

    def mark(self, cycle_index: int, event: str, time_us: int) -> Dict:
        """Record a cycle boundary (power_fault / power_on / verified); fsync'd."""
        payload = {
            "v": CMDLOG_VERSION,
            "kind": "mark",
            "cycle": cycle_index,
            "event": event,
            "t": time_us,
        }
        self._append(payload, sync=True)
        return payload

    # -- plumbing -------------------------------------------------------------------

    def _append(self, payload: Dict, sync: bool = False) -> None:
        self.records.append(payload)
        if self.path is None:
            return
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = self.path.open("w", encoding="utf-8")
        self._handle.write(encode_line(payload, CmdlogError) + "\n")
        self._since_sync += 1
        if sync or self._since_sync >= FSYNC_EVERY:
            self._handle.flush()
            os.fsync(self._handle.fileno())
            self._since_sync = 0

    def close(self) -> None:
        """Flush, fsync, and close the file (memory records stay available)."""
        if self._handle is not None:
            self._handle.flush()
            os.fsync(self._handle.fileno())
            self._handle.close()
            self._handle = None

    def replayed(self) -> ReplayedLog:
        """Replay this log as the audit will see it.

        File-backed logs are flushed and re-read from disk — the audit
        consumes what actually survived the filesystem, exercising the
        codec end-to-end every cycle; memory-only logs replay the list.
        """
        if self.path is not None:
            if self._handle is not None:
                self._handle.flush()
                os.fsync(self._handle.fileno())
                self._since_sync = 0
            return replay_cmdlog(self.path)
        unique, duplicates = dedupe_records(self.records)
        return ReplayedLog(records=unique, duplicates_dropped=duplicates)


# -- acked-write audit --------------------------------------------------------------


@dataclass
class CycleAudit:
    """Per-LBA classification of one cycle's acknowledged writes."""

    cycle_index: int
    acked_writes: int
    reads_completed: int
    intact: int
    fwa: int
    data_failures: int
    io_errors: int
    flush_errors: int
    pages_audited: int
    outcome: VerificationOutcome

    @property
    def requests_completed(self) -> int:
        """Acked writes + completed reads (FLUSH barriers excluded)."""
        return self.acked_writes + self.reads_completed


def packets_from_records(
    records: Sequence[Dict], cycle_index: int
) -> Tuple[List[DataPacket], List[DataPacket], int, int]:
    """Rebuild the cycle's packets from replayed log records.

    Returns ``(acked_writes, failed_packets, reads_completed,
    flush_errors)``.  A write whose completion record is missing or
    carries an error status was never acknowledged — it is an IO error,
    not a data-loss candidate; only CQE-confirmed writes enter the
    re-read audit.
    """
    submissions: Dict[int, Dict] = {}
    completions: Dict[int, Dict] = {}
    for record in records:
        if record.get("cycle") != cycle_index:
            continue
        if record.get("kind") == "sub":
            submissions[record["cid"]] = record
        elif record.get("kind") == "cpl":
            completions[record["cid"]] = record

    acked: List[DataPacket] = []
    failed: List[DataPacket] = []
    reads_completed = 0
    flush_errors = 0
    for cid in sorted(submissions):
        sub = submissions[cid]
        cpl = completions.get(cid)
        ok = cpl is not None and cpl.get("status") == "success"
        op = sub.get("op")
        if op == "flush":
            if not ok:
                flush_errors += 1
            continue
        if op == "read":
            if ok:
                reads_completed += 1
            else:
                failed.append(
                    DataPacket(
                        packet_id=cid,
                        address_lpn=sub["slba"],
                        page_count=sub["nlb"],
                        is_write=False,
                        queue_time=sub["t"],
                    )
                )
            continue
        if op not in _WRITE_OPS:
            raise CmdlogError(f"unknown op {op!r} in command log")
        packet = DataPacket(
            packet_id=cid,
            address_lpn=sub["slba"],
            page_count=sub["nlb"],
            is_write=True,
            queue_time=sub["t"],
            data_checksums=list(sub["tokens"]),
        )
        if ok:
            packet.complete_time = cpl["t"]
            acked.append(packet)
        else:
            failed.append(packet)
    return acked, failed, reads_completed, flush_errors


def audit_cycle(
    analyzer: Analyzer, records: Sequence[Dict], cycle_index: int
) -> CycleAudit:
    """Replay one cycle's records and classify every acknowledged LBA.

    The Analyzer re-reads each address an acked write touched (through the
    device's side-effect-free ``peek_run``) and applies the paper's
    taxonomy; the remainder — acked writes whose data is present or
    legitimately superseded — is **intact**.
    """
    acked, failed, reads_completed, flush_errors = packets_from_records(
        records, cycle_index
    )
    outcome = analyzer.verify_cycle(cycle_index, acked, failed)
    return CycleAudit(
        cycle_index=cycle_index,
        acked_writes=len(acked),
        reads_completed=reads_completed,
        intact=outcome.intact_packets,
        fwa=outcome.count(FailureKind.FWA),
        data_failures=outcome.count(FailureKind.DATA_FAILURE),
        io_errors=outcome.count(FailureKind.IO_ERROR),
        flush_errors=flush_errors,
        pages_audited=outcome.pages_checked,
        outcome=outcome,
    )
