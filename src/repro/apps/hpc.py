"""An HPC checkpoint/restart loop: write-tmp, fsync, rename, retire.

Each generation ``g`` the job serialises its (synthetic) state into
``ckpt.tmp`` — a header block naming the generation, the data block count
and the assembled-state digest, followed by the data blocks — fsyncs it,
then publishes it with an atomic rename to ``ckpt-<g>``.  The rename
return is the ack point: the scheduler is told generation ``g`` is
restartable.  Generations older than :data:`KEEP_GENERATIONS` are then
deleted and their promises *retracted* — the app deliberately withdrew
them, so the audit no longer holds storage to them.

``fsync_data=False`` models the classic crash-consistency bug this
archetype exists to expose: rename-before-data-reaches-media.  The
rename itself still carries a FLUSH (it is the publish barrier), but the
*next* generation's data rides unflushed until that next rename — so a
fault between renames can tear the newest published checkpoint, which
has no redundant copy and audits as committed loss.

Recovery validates every outstanding generation end to end (header CRC,
run id, per-block CRC and sequence, assembled digest) and restarts from
the newest valid one, exactly like a restart script probing checkpoint
files newest-first.
"""

from __future__ import annotations

from typing import Dict, List, Optional

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

TMP_FILE = "ckpt.tmp"
CKPT_PREFIX = "ckpt-"
STATE_BLOCKS = 6
"""Data blocks in one checkpoint generation."""
KEEP_GENERATIONS = 3
"""Newest generations kept; older ones are deleted and retracted."""


def ckpt_name(generation: int) -> str:
    return f"{CKPT_PREFIX}{generation}"


# -- pure recovery core ----------------------------------------------------------------


def validate_checkpoint(
    records: List[Optional[Dict[str, object]]], run_id: str, generation: int
) -> Optional[str]:
    """End-to-end validation of one checkpoint file.

    Returns the assembled-state digest when the file is exactly a valid
    generation-``generation`` checkpoint, ``None`` otherwise (any damaged
    block, foreign run id, wrong generation, block count mismatch, or
    assembled digest disagreeing with the header).
    """
    if not records:
        return None
    header = records[0]
    if header is None or header.get("a") != "hpchdr" or not record_crc_ok(header):
        return None
    if header.get("run") != run_id or header.get("g") != generation:
        return None
    count = header.get("m")
    if not isinstance(count, int) or count != len(records) - 1:
        return None
    parts: List[str] = []
    for index, record in enumerate(records[1:]):
        if record is None or record.get("a") != "hpcdat" or not record_crc_ok(record):
            return None
        if record.get("run") != run_id or record.get("g") != generation:
            return None
        if record.get("j") != index:
            return None
        parts.append(str(record.get("data", "")))
    digest = content_digest(canonical_json([generation, parts]))
    if header.get("dig") != digest:
        return None
    return digest


def observe_hpc_promises(
    promises: List[Promise], digests: Dict[int, Optional[str]]
) -> Dict[str, Observation]:
    """Pure observation map: each generation stands entirely on its own.

    A checkpoint has no redundant copy, so a generation either validates
    end to end (digest reported, no damage) or it is gone (recovery can
    tell — validation failed — so the loss is detected, never silent).
    """
    observations: Dict[str, Observation] = {}
    for promise in promises:
        generation = int(promise.detail.get("generation", promise.seq))
        digest = digests.get(generation)
        if digest is None:
            observations[promise.pid] = Observation(
                digest=None,
                damaged=True,
                source=f"{ckpt_name(generation)} failed validation",
            )
        else:
            observations[promise.pid] = Observation(
                digest=digest, damaged=False, source=ckpt_name(generation)
            )
    return observations


# -- the workload ----------------------------------------------------------------------


class CheckpointLoop(AppWorkload):
    """The HPC checkpoint/restart model (see module docstring)."""

    name = "hpc"

    def __init__(
        self,
        rng,
        run_id: str,
        *,
        fsync_data: bool = True,
        recorder=None,
    ) -> None:
        super().__init__(rng, run_id, recorder)
        self.fsync_data = fsync_data
        self._generation = 0
        self._inflight_rename: Optional[str] = None

    # -- forward path ------------------------------------------------------------------

    def setup(self, fs) -> None:
        pass  # each generation creates its own tmp file

    def step(self, fs) -> None:
        """One generation: tmp, data, header, fsync, rename, ack, retire."""
        generation = self._generation + 1
        parts = [
            bytes(self.rng.getrandbits(8) for _ in range(48)).hex()
            for _ in range(STATE_BLOCKS)
        ]
        digest = content_digest(canonical_json([generation, parts]))
        if fs.exists(TMP_FILE):
            fs.delete(TMP_FILE)
            if self.recorder is not None:
                self.recorder.note_delete(TMP_FILE)
        fs.create(TMP_FILE)
        header = seal_record(
            {
                "a": "hpchdr",
                "run": self.run_id,
                "g": generation,
                "m": STATE_BLOCKS,
                "dig": digest,
            }
        )
        self._write_block(fs, TMP_FILE, 0, header)
        for index, part in enumerate(parts):
            self._write_block(
                fs,
                TMP_FILE,
                1 + index,
                seal_record(
                    {
                        "a": "hpcdat",
                        "run": self.run_id,
                        "g": generation,
                        "j": index,
                        "data": part,
                    }
                ),
            )
        if self.fsync_data:
            fs.fsync(TMP_FILE)
        name = ckpt_name(generation)
        self._inflight_rename = name
        # In the buggy mode the rename is not synced either — a synced
        # rename is a device-wide FLUSH barrier and would make the
        # unfsynced data durable as a side effect, hiding the bug.
        fs.rename(TMP_FILE, name, sync=self.fsync_data)
        self._inflight_rename = None
        if self.recorder is not None:
            self.recorder.note_rename(TMP_FILE, name)
        # Ack point: the scheduler now believes generation g is restartable.
        self._generation = generation
        self.promises.ack(
            Promise(
                pid=f"gen-{generation}",
                kind="checkpoint",
                digest=digest,
                seq=generation,
                detail={"generation": generation, "file": name},
            )
        )
        self.ops_completed += 1
        retire = generation - KEEP_GENERATIONS
        if retire >= 1:
            stale = ckpt_name(retire)
            if fs.exists(stale):
                fs.delete(stale)
                if self.recorder is not None:
                    self.recorder.note_delete(stale)
            if self.promises.get(f"gen-{retire}") is not None:
                self.promises.retract(f"gen-{retire}")

    # -- recovery path -----------------------------------------------------------------

    def recover(self, fs) -> Dict[str, Observation]:
        files = set(fs.list_files())
        if self._inflight_rename is not None:
            if TMP_FILE in files and self._inflight_rename in files:
                raise AppAuditError(
                    f"rename half-applied: {TMP_FILE} and "
                    f"{self._inflight_rename} both exist after the fault"
                )
        if self._generation and self.fsync_data:
            # Only the safe protocol syncs its renames, so only it may
            # hold storage to the newest published name surviving.
            newest = ckpt_name(self._generation)
            if newest not in files:
                raise AppAuditError(
                    f"synced rename lost: {newest} missing after remount"
                )
        digests: Dict[int, Optional[str]] = {}
        for promise in self.promises.outstanding():
            generation = int(promise.detail.get("generation", promise.seq))
            name = ckpt_name(generation)
            if name in files:
                digests[generation] = validate_checkpoint(
                    self._read_blocks(fs, name), self.run_id, generation
                )
            else:
                digests[generation] = None
        self.restart_generation = max(
            (g for g, d in digests.items() if d is not None), default=0
        )  # explain support
        return observe_hpc_promises(self.promises.outstanding(), digests)
