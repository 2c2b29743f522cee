"""A write-ahead-log database: begin/write/commit with redo recovery.

Protocol (one transaction per :meth:`WalDatabase.step`):

1. append one self-describing row record per row to ``wal.log``;
2. append the commit record (row count + transaction digest);
3. ``fsync(wal.log)`` — **the ack point**: only when the fsync returns is
   the transaction promised to the caller (``fsync_commits=False`` models
   the classic mis-configured database that acks at write return).

Every :data:`SNAPSHOT_EVERY` transactions the committed ledger is folded into
a snapshot file via the write-tmp → fsync → rename dance, giving redo
recovery a redundant copy: a transaction whose WAL record is torn but
that is covered by a readable snapshot is *torn-but-recovered*, not lost.

Redo recovery replays the WAL strictly prefix-wise — it stops at the
first damaged or foreign block (rolled-back pages from reused blocks
carry a different run id or segment tag and fail their CRC seal), the
same halt-at-tear contract :func:`repro.fs.journal.decode_transactions`
applies one layer down.  Every decision is made by pure functions over
decoded block lists so the Hypothesis suite can drive them without a
simulator.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.apps.audit import Observation
from repro.apps.base import (
    AppWorkload,
    Promise,
    canonical_json,
    content_digest,
    record_crc_ok,
    seal_record,
)
from repro.errors import AppAuditError

WAL_FILE = "wal.log"
TMP_FILE = "db.tmp"
SNAP_PREFIX = "snap-"
TXN_ROWS = 3
"""A transaction writes 1 to ``TXN_ROWS`` rows."""
SNAPSHOT_EVERY = 8
"""Transactions between snapshots of the committed ledger."""
_SNAP_CHUNK_HEX = 3000  # hex chars of ledger JSON per snapshot block


def txn_digest(txid: int, rows: List[Dict[str, object]]) -> str:
    """The content fingerprint a committed transaction promises."""
    return content_digest(
        canonical_json([txid] + [[r["key"], r["val"]] for r in rows])
    )


# -- pure recovery core ----------------------------------------------------------------


@dataclass
class WalReplay:
    """Outcome of a prefix-wise redo scan over decoded WAL blocks."""

    committed: Dict[int, str] = field(default_factory=dict)  # txid -> digest
    tear_index: Optional[int] = None  # first untrusted block, None = clean


def replay_wal_records(
    records: List[Optional[Dict[str, object]]], run_id: str
) -> WalReplay:
    """Redo scan: committed transactions in the maximal trustworthy prefix.

    Stops at the first block that is unreadable, fails its CRC, carries a
    foreign run id, or breaks the row/commit sequencing — everything past
    that point is untrusted (never resurrect a later commit).
    """
    replay = WalReplay()
    open_rows: List[Dict[str, object]] = []
    open_txid: Optional[int] = None
    for index, record in enumerate(records):
        if record is None or not record_crc_ok(record):
            replay.tear_index = index
            return replay
        if record.get("run") != run_id:
            replay.tear_index = index
            return replay
        tag = record.get("a")
        if tag == "walrow":
            txid, row_index = record.get("tx"), record.get("i")
            if open_txid is None:
                if row_index != 0:
                    replay.tear_index = index
                    return replay
                open_txid, open_rows = txid, [record]
            else:
                if txid != open_txid or row_index != len(open_rows):
                    replay.tear_index = index
                    return replay
                open_rows.append(record)
        elif tag == "walcommit":
            if open_txid is None or record.get("tx") != open_txid:
                replay.tear_index = index
                return replay
            if record.get("n") != len(open_rows):
                replay.tear_index = index
                return replay
            digest = txn_digest(open_txid, open_rows)
            if record.get("dig") != digest:
                replay.tear_index = index
                return replay
            replay.committed[open_txid] = digest
            open_txid, open_rows = None, []
        else:
            replay.tear_index = index
            return replay
    if open_txid is not None:
        # Open transaction at end of file: torn tail, never acked.
        replay.tear_index = len(records)
    return replay


def load_snapshot_chunks(
    chunks: List[Optional[Dict[str, object]]], run_id: str
) -> Optional[Dict[int, str]]:
    """Decode one snapshot file; None unless every chunk checks out."""
    if not chunks:
        return None
    parts: List[str] = []
    digest = None
    for index, chunk in enumerate(chunks):
        if chunk is None or not record_crc_ok(chunk):
            return None
        if chunk.get("a") != "walsnap" or chunk.get("run") != run_id:
            return None
        if chunk.get("j") != index or chunk.get("m") != len(chunks):
            return None
        if digest is None:
            digest = chunk.get("dig")
        elif chunk.get("dig") != digest:
            return None
        parts.append(str(chunk.get("data", "")))
    try:
        payload = bytes.fromhex("".join(parts))
    except ValueError:
        return None
    if content_digest(payload) != digest:
        return None
    try:
        ledger = json.loads(payload.decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        return None
    return {int(txid): str(dig) for txid, dig in ledger}


def observe_wal_promises(
    promises: List[Promise],
    replay: WalReplay,
    snapshot: Optional[Dict[int, str]],
    snapshot_source: str,
) -> Dict[str, Observation]:
    """Pure observation map: WAL prefix first, snapshot as redundancy."""
    observations: Dict[str, Observation] = {}
    for promise in promises:
        txid = int(promise.detail.get("txid", promise.seq))
        if txid in replay.committed:
            observations[promise.pid] = Observation(
                digest=replay.committed[txid], damaged=False, source="wal redo"
            )
        elif snapshot is not None and txid in snapshot:
            observations[promise.pid] = Observation(
                digest=snapshot[txid], damaged=True, source=snapshot_source
            )
        else:
            observations[promise.pid] = Observation(
                digest=None, damaged=True, source="wal tear, no snapshot cover"
            )
    return observations


# -- the workload ----------------------------------------------------------------------


class WalDatabase(AppWorkload):
    """The WAL database model (see module docstring)."""

    name = "wal"

    def __init__(
        self,
        rng,
        run_id: str,
        *,
        fsync_commits: bool = True,
        recorder=None,
    ) -> None:
        super().__init__(rng, run_id, recorder)
        self.fsync_commits = fsync_commits
        self.ledger: List[Tuple[int, str]] = []  # acked (txid, digest), in order
        self._txid = 0
        self._wal_cursor = 0
        self._snap_seq = 0  # newest acked snapshot sequence (0 = none yet)
        self._inflight_rename: Optional[str] = None

    # -- forward path ------------------------------------------------------------------

    def setup(self, fs) -> None:
        fs.create(WAL_FILE, sync=True)

    def _make_rows(self, txid: int, count: int) -> List[Dict[str, object]]:
        rows = []
        for index in range(count):
            rows.append(
                seal_record(
                    {
                        "a": "walrow",
                        "run": self.run_id,
                        "tx": txid,
                        "i": index,
                        "n": count,
                        "key": f"k{self.rng.randrange(4096)}",
                        "val": bytes(
                            self.rng.getrandbits(8) for _ in range(24)
                        ).hex(),
                    }
                )
            )
        return rows

    def step(self, fs) -> None:
        """One transaction: rows, commit record, fsync, ack."""
        txid = self._txid + 1
        rows = self._make_rows(txid, 1 + self.rng.randrange(TXN_ROWS))
        digest = txn_digest(txid, rows)
        blocks = []
        for offset, row in enumerate(rows):
            index = self._wal_cursor + offset
            self._write_block(fs, WAL_FILE, index, row)
            blocks.append(index)
        commit = seal_record(
            {
                "a": "walcommit",
                "run": self.run_id,
                "tx": txid,
                "n": len(rows),
                "dig": digest,
            }
        )
        commit_index = self._wal_cursor + len(rows)
        self._write_block(fs, WAL_FILE, commit_index, commit)
        blocks.append(commit_index)
        if self.fsync_commits:
            fs.fsync(WAL_FILE)
        # Ack point: everything before this line is torn-if-faulted, never lost.
        self._txid = txid
        self._wal_cursor = commit_index + 1
        self.ledger.append((txid, digest))
        self.promises.ack(
            Promise(
                pid=f"txn-{txid}",
                kind="commit",
                digest=digest,
                seq=txid,
                detail={"file": WAL_FILE, "blocks": tuple(blocks), "txid": txid},
            )
        )
        self.ops_completed += 1
        if txid % SNAPSHOT_EVERY == 0:
            self._write_snapshot(fs)

    def _write_snapshot(self, fs) -> None:
        """Fold the ledger into ``snap-<n>`` via write-tmp/fsync/rename."""
        payload = canonical_json([[t, d] for t, d in self.ledger])
        digest = content_digest(payload)
        data = payload.hex()
        parts = [
            data[i : i + _SNAP_CHUNK_HEX] for i in range(0, len(data), _SNAP_CHUNK_HEX)
        ] or [""]
        if fs.exists(TMP_FILE):
            fs.delete(TMP_FILE)
            if self.recorder is not None:
                self.recorder.note_delete(TMP_FILE)
        fs.create(TMP_FILE)
        for index, part in enumerate(parts):
            self._write_block(
                fs,
                TMP_FILE,
                index,
                seal_record(
                    {
                        "a": "walsnap",
                        "run": self.run_id,
                        "j": index,
                        "m": len(parts),
                        "data": part,
                        "dig": digest,
                        "top": self._txid,
                    }
                ),
            )
        if self.fsync_commits:
            fs.fsync(TMP_FILE)
        seq = self._snap_seq + 1
        name = f"{SNAP_PREFIX}{seq}"
        self._inflight_rename = name
        fs.rename(TMP_FILE, name, sync=True)
        self._inflight_rename = None
        if self.recorder is not None:
            self.recorder.note_rename(TMP_FILE, name)
        previous = f"{SNAP_PREFIX}{self._snap_seq}"
        self._snap_seq = seq
        if fs.exists(previous):
            fs.delete(previous)
            if self.recorder is not None:
                self.recorder.note_delete(previous)

    # -- recovery path -----------------------------------------------------------------

    def recover(self, fs) -> Dict[str, Observation]:
        files = set(fs.list_files())
        # Rename atomicity: an in-flight snapshot swap either applied or
        # rolled back — both names visible at once is a half-applied rename.
        if self._inflight_rename is not None:
            if TMP_FILE in files and self._inflight_rename in files:
                raise AppAuditError(
                    f"rename half-applied: {TMP_FILE} and "
                    f"{self._inflight_rename} both exist after the fault"
                )
        # Durability of the synced swap: the newest *acked* snapshot rename
        # carried a FLUSH, so its name must have survived the power cycle.
        if self._snap_seq:
            newest = f"{SNAP_PREFIX}{self._snap_seq}"
            if newest not in files:
                raise AppAuditError(
                    f"synced rename lost: {newest} missing after remount"
                )
        wal_records = (
            self._read_blocks(fs, WAL_FILE) if WAL_FILE in files else []
        )
        replay = replay_wal_records(wal_records, self.run_id)
        snapshot, source = self._best_snapshot(fs, files)
        self.last_replay = replay  # explain support
        self.last_snapshot_source = source
        return observe_wal_promises(
            self.promises.outstanding(), replay, snapshot, source
        )

    def _best_snapshot(self, fs, files) -> Tuple[Optional[Dict[int, str]], str]:
        """Newest readable snapshot (highest sequence wins).

        A fully written but not-yet-renamed ``db.tmp`` is the newest
        candidate of all: its chunks are run-id bound, CRC sealed and
        whole-payload digested, so if it validates end to end its ledger is
        trustworthy even though the swap never happened — exactly how a real
        database scavenges an interrupted snapshot.
        """
        names = [TMP_FILE] if TMP_FILE in files else []
        names += [
            f"{SNAP_PREFIX}{seq}"
            for seq in sorted(
                (
                    int(name[len(SNAP_PREFIX) :])
                    for name in files
                    if name.startswith(SNAP_PREFIX)
                    and name[len(SNAP_PREFIX) :].isdigit()
                ),
                reverse=True,
            )
        ]
        for name in names:
            snapshot = load_snapshot_chunks(self._read_blocks(fs, name), self.run_id)
            if snapshot is not None:
                return snapshot, name
        return None, "no snapshot"
