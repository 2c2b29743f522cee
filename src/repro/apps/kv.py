"""A log-structured KV store: append-only segments, compaction, manifest swap.

Forward path: every put appends one sealed record to the active segment
file ``seg-<n>.log``; every :data:`FLUSH_EVERY` puts the segment is fsynced
and the batch of puts since the last flush is acked (one promise per
*key*, superseding the key's earlier promise).  Every :data:`COMPACT_EVERY`
puts the live table is rewritten into a fresh segment, the segment is
fsynced, and a manifest naming the new segment set is published with the
write-tmp → fsync → rename dance; obsolete segments are deleted only
after the manifest rename returns.

Recovery: pick the newest manifest that decodes and checks out, replay
its segments prefix-wise (per segment, stopping that segment's replay at
its first damaged block), rebuild the table by highest sequence number.

``checksum_records=False`` models a store that trusts storage: records
are not CRC-sealed and replay accepts any well-formed block, so a page
the FTL rolled back to an *older generation of the same key* replays
silently — the application-level face of the paper's FWA failures.  With
checksums on, the same rollback is detected and surfaces as committed
loss instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.apps.audit import Observation
from repro.apps.base import (
    AppWorkload,
    Promise,
    content_digest,
    canonical_json,
    record_crc_ok,
    seal_record,
)
from repro.errors import AppAuditError

SEG_PREFIX = "seg-"
SEG_SUFFIX = ".log"
MANIFEST_PREFIX = "manifest-"
MANIFEST_TMP = "manifest.tmp"
KV_KEYS = 48
"""Size of the key space puts draw from."""
FLUSH_EVERY = 4
"""Puts per fsync'd and acked batch."""
COMPACT_EVERY = 40
"""Puts between compactions into a fresh segment."""


def _seg_name(seg: int) -> str:
    return f"{SEG_PREFIX}{seg}{SEG_SUFFIX}"


def kv_value_digest(key: str, val: str, seq: int) -> str:
    """The content fingerprint a put promises (binds key, value and version)."""
    return content_digest(canonical_json([key, val, seq]))


# -- pure recovery core ----------------------------------------------------------------


@dataclass
class KvReplay:
    """Rebuilt table plus per-segment damage map from a prefix replay."""

    table: Dict[str, Tuple[int, str]] = field(default_factory=dict)  # key -> (seq, digest)
    tears: Dict[int, int] = field(default_factory=dict)  # seg -> first damaged index
    seen: List[int] = field(default_factory=list)  # segments the replay read
    records_applied: int = 0


def replay_segments(
    segments: Dict[int, List[Optional[Dict[str, object]]]],
    run_id: str,
    *,
    checksums: bool = True,
) -> KvReplay:
    """Replay decoded segment blocks into a table, newest sequence wins.

    Each segment is replayed prefix-wise: its first damaged block ends
    *that segment's* replay (recorded in ``tears``), other segments are
    unaffected.  With ``checksums`` a record must carry a valid CRC, the
    right run id and its own segment number; without, any well-formed
    ``kv`` record is believed — including rolled-back older pages.
    """
    replay = KvReplay()
    replay.seen = sorted(segments)
    for seg in sorted(segments):
        for index, record in enumerate(segments[seg]):
            if record is None or record.get("a") != "kv":
                replay.tears[seg] = index
                break
            if checksums:
                if (
                    not record_crc_ok(record)
                    or record.get("run") != run_id
                    or record.get("seg") != seg
                ):
                    replay.tears[seg] = index
                    break
            key, val, seq = record.get("key"), record.get("val"), record.get("q")
            if not isinstance(key, str) or not isinstance(val, str) or not isinstance(seq, int):
                replay.tears[seg] = index
                break
            current = replay.table.get(key)
            if current is None or seq >= current[0]:
                replay.table[key] = (seq, kv_value_digest(key, val, seq))
            replay.records_applied += 1
    return replay


def decode_manifest(
    records: List[Optional[Dict[str, object]]], run_id: str, version: int
) -> Optional[List[int]]:
    """One manifest file -> its segment list; None unless it checks out."""
    if len(records) != 1:
        return None
    record = records[0]
    if record is None or record.get("a") != "kvman":
        return None
    if not record_crc_ok(record) or record.get("run") != run_id:
        return None
    if record.get("v") != version:
        return None
    segs = record.get("segs")
    if not isinstance(segs, list) or not all(isinstance(s, int) for s in segs):
        return None
    return list(segs)


def observe_kv_promises(
    promises: List[Promise], replay: KvReplay
) -> Dict[str, Observation]:
    """Pure observation map with expected-location damage attribution.

    A promise's ``detail`` carries the writer-side location of the key's
    newest acked record (segment, block index).  Damage is attributed when
    that location sits at-or-past its segment's tear (or the segment is
    gone entirely) — that is what separates *torn-but-recovered* (digest
    still right, e.g. restored by a compacted copy) from *silent
    corruption* (digest wrong with no damage to explain it).
    """
    observations: Dict[str, Observation] = {}
    for promise in promises:
        key = str(promise.detail.get("key", ""))
        seg = promise.detail.get("seg")
        block = promise.detail.get("block")
        tear = replay.tears.get(seg) if isinstance(seg, int) else None
        segment_missing = not isinstance(seg, int) or seg not in replay.seen
        location_damaged = segment_missing or (
            tear is not None and isinstance(block, int) and block >= tear
        )
        entry = replay.table.get(key)
        if entry is None:
            observations[promise.pid] = Observation(
                digest=None,
                damaged=True,
                source=f"key absent after replay (seg {seg})",
            )
        else:
            observations[promise.pid] = Observation(
                digest=entry[1],
                damaged=location_damaged,
                source=f"segment replay (seg {seg}, block {block})",
            )
    return observations


# -- the workload ----------------------------------------------------------------------


class KvStore(AppWorkload):
    """The log-structured KV store model (see module docstring)."""

    name = "kv"

    def __init__(
        self,
        rng,
        run_id: str,
        *,
        checksum_records: bool = True,
        fsync_batches: bool = True,
        recorder=None,
    ) -> None:
        super().__init__(rng, run_id, recorder)
        self.checksum_records = checksum_records
        self.fsync_batches = fsync_batches
        self.table: Dict[str, Tuple[int, str, int, int]] = {}  # key -> (seq, val, seg, block)
        self._seq = 0
        self._puts = 0
        self._active_seg = 1
        self._seg_cursor = 0
        self._live_segs: List[int] = [1]
        self._manifest_version = 0  # newest acked manifest (0 = none yet)
        self._pending: List[Tuple[str, int, str, int, int]] = []  # unflushed puts
        self._inflight_rename: Optional[str] = None

    # -- forward path ------------------------------------------------------------------

    def setup(self, fs) -> None:
        fs.create(_seg_name(self._active_seg), sync=True)

    def _record(self, key: str, val: str, seq: int, seg: int) -> Dict[str, object]:
        body = {
            "a": "kv",
            "run": self.run_id,
            "seg": seg,
            "q": seq,
            "key": key,
            "val": val,
        }
        return seal_record(body) if self.checksum_records else body

    def step(self, fs) -> None:
        """One put; every ``flush_every`` puts fsync + ack the batch."""
        self._seq += 1
        seq = self._seq
        key = f"key{self.rng.randrange(KV_KEYS):04d}"
        val = bytes(self.rng.getrandbits(8) for _ in range(16)).hex()
        seg, block = self._active_seg, self._seg_cursor
        self._write_block(fs, _seg_name(seg), block, self._record(key, val, seq, seg))
        self._seg_cursor += 1
        self._pending.append((key, seq, val, seg, block))
        self._puts += 1
        if self._puts % FLUSH_EVERY == 0:
            if self.fsync_batches:
                fs.fsync(_seg_name(seg))
            # Ack point: the whole batch became durable with that flush
            # (``fsync_batches=False`` acks on faith — the contrast leg).
            for pkey, pseq, pval, pseg, pblock in self._pending:
                self.table[pkey] = (pseq, pval, pseg, pblock)
                self.promises.ack(
                    Promise(
                        pid=f"key-{pkey}",
                        kind="put",
                        digest=kv_value_digest(pkey, pval, pseq),
                        seq=pseq,
                        detail={"key": pkey, "seg": pseg, "block": pblock},
                    )
                )
            self._pending.clear()
        self.ops_completed += 1
        if self._puts % COMPACT_EVERY == 0:
            self._compact(fs)

    def _compact(self, fs) -> None:
        """Rewrite the live table into a fresh segment, publish a manifest."""
        new_seg = self._active_seg + 1
        name = _seg_name(new_seg)
        if fs.exists(name):
            fs.delete(name)
            if self.recorder is not None:
                self.recorder.note_delete(name)
        fs.create(name)
        relocated: Dict[str, Tuple[int, str, int, int]] = {}
        cursor = 0
        for key in sorted(self.table):
            seq, val, _, _ = self.table[key]
            self._write_block(fs, name, cursor, self._record(key, val, seq, new_seg))
            relocated[key] = (seq, val, new_seg, cursor)
            cursor += 1
        if self.fsync_batches:
            fs.fsync(name)
        version = self._manifest_version + 1
        manifest = seal_record(
            {"a": "kvman", "run": self.run_id, "v": version, "segs": [new_seg, new_seg + 1]}
        )
        if fs.exists(MANIFEST_TMP):
            fs.delete(MANIFEST_TMP)
            if self.recorder is not None:
                self.recorder.note_delete(MANIFEST_TMP)
        fs.create(MANIFEST_TMP)
        self._write_block(fs, MANIFEST_TMP, 0, manifest)
        if self.fsync_batches:
            fs.fsync(MANIFEST_TMP)
        # The next active segment named by the manifest must exist (synced)
        # before the manifest points at it.
        next_name = _seg_name(new_seg + 1)
        if fs.exists(next_name):
            fs.delete(next_name)
            if self.recorder is not None:
                self.recorder.note_delete(next_name)
        fs.create(next_name, sync=self.fsync_batches)
        man_name = f"{MANIFEST_PREFIX}{version}"
        self._inflight_rename = man_name
        fs.rename(MANIFEST_TMP, man_name, sync=self.fsync_batches)
        self._inflight_rename = None
        if self.recorder is not None:
            self.recorder.note_rename(MANIFEST_TMP, man_name)
        # Ack point for the relocation: promises move to the compacted copy.
        old_segs = [s for s in self._live_segs if s != new_seg]
        old_manifest = f"{MANIFEST_PREFIX}{self._manifest_version}"
        self._manifest_version = version
        self._live_segs = [new_seg, new_seg + 1]
        self._active_seg = new_seg + 1
        self._seg_cursor = 0
        self.table = relocated
        for key, (seq, val, seg, block) in relocated.items():
            if self.promises.get(f"key-{key}") is not None:
                self.promises.ack(
                    Promise(
                        pid=f"key-{key}",
                        kind="put",
                        digest=kv_value_digest(key, val, seq),
                        seq=seq,
                        detail={"key": key, "seg": seg, "block": block},
                    )
                )
        # Cleanup (unsynced; stale files are harmless, recovery prefers the
        # newest manifest).
        for seg in old_segs:
            stale = _seg_name(seg)
            if fs.exists(stale):
                fs.delete(stale)
                if self.recorder is not None:
                    self.recorder.note_delete(stale)
        if fs.exists(old_manifest):
            fs.delete(old_manifest)
            if self.recorder is not None:
                self.recorder.note_delete(old_manifest)

    # -- recovery path -----------------------------------------------------------------

    def recover(self, fs) -> Dict[str, Observation]:
        files = set(fs.list_files())
        if self._inflight_rename is not None:
            if MANIFEST_TMP in files and self._inflight_rename in files:
                raise AppAuditError(
                    f"rename half-applied: {MANIFEST_TMP} and "
                    f"{self._inflight_rename} both exist after the fault"
                )
        if self._manifest_version and self.fsync_batches:
            # Only the safe protocol syncs its manifest swaps, so only it
            # may hold storage to the newest published name surviving.
            newest = f"{MANIFEST_PREFIX}{self._manifest_version}"
            if newest not in files:
                raise AppAuditError(
                    f"synced rename lost: {newest} missing after remount"
                )
        seg_list = self._recover_manifest(fs, files)
        if seg_list is None:
            # No usable manifest: replay every segment file present.
            seg_list = sorted(
                int(name[len(SEG_PREFIX) : -len(SEG_SUFFIX)])
                for name in files
                if name.startswith(SEG_PREFIX)
                and name.endswith(SEG_SUFFIX)
                and name[len(SEG_PREFIX) : -len(SEG_SUFFIX)].isdigit()
            )
        segments = {
            seg: self._read_blocks(fs, _seg_name(seg))
            for seg in seg_list
            if _seg_name(seg) in files
        }
        replay = replay_segments(segments, self.run_id, checksums=self.checksum_records)
        self.last_replay = replay  # explain support
        self.last_segments = sorted(segments)
        return observe_kv_promises(self.promises.outstanding(), replay)

    def _recover_manifest(self, fs, files) -> Optional[List[int]]:
        """Segment list from the newest manifest that decodes cleanly."""
        versions = sorted(
            (
                int(name[len(MANIFEST_PREFIX) :])
                for name in files
                if name.startswith(MANIFEST_PREFIX)
                and name[len(MANIFEST_PREFIX) :].isdigit()
            ),
            reverse=True,
        )
        for version in versions:
            name = f"{MANIFEST_PREFIX}{version}"
            segs = decode_manifest(self._read_blocks(fs, name), self.run_id, version)
            if segs is not None:
                self.last_manifest = name
                return segs
        self.last_manifest = "no manifest"
        return None
