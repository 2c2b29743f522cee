"""The filesystem proper: layout, allocation, journaling, mount/replay.

Layout (4 KiB blocks)::

    block 0                    superblock (static after format)
    blocks 1..32               two checkpoint slots (header + snapshot chunks)
    blocks 33..33+J-1          metadata journal (circular, one record/page)
    blocks DATA_START..        file data

Write path (ordered mode): file data goes to its blocks first, then the
metadata transaction describing it enters the journal; ``sync=True`` adds a
device FLUSH barrier after the commit record.  A power fault can therefore
leave: torn transactions (discarded at mount), committed-but-FWA'd journal
pages (the *device* lost them — discovered as discarded transactions), or
intact metadata pointing at data pages the device lost (discovered by the
checker as corrupt file content).

All filesystem calls are *synchronous*: they drive the simulation kernel
until their block IO completes, so they read like ordinary file code in
examples and tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

import hashlib
import json

from repro.errors import ReproError
from repro.fs.cas import ContentStore
from repro.fs.inode import BLOCK, Inode
from repro.fs.journal import Transaction, TxKind, TxRecord, decode_transactions, validate_region
from repro.host.block_layer import BlockRequest
from repro.host.system import HostSystem
from repro.ssd.command import CommandStatus, IoCommand
from repro.units import SEC


class FsError(ReproError):
    """Filesystem-level failure."""


class FileNotFound(FsError):
    """Named file does not exist."""


class FsCorruption(FsError):
    """On-device state is unreadable or inconsistent."""


SUPERBLOCK = 0
CKPT_SLOT_BLOCKS = 16
CKPT_SLOTS = 2
CKPT_START = 1
JOURNAL_START = CKPT_START + CKPT_SLOTS * CKPT_SLOT_BLOCKS  # 33
DEFAULT_JOURNAL_BLOCKS = 128
MAGIC = "reprofs-v1"


@dataclass
class MountReport:
    """Outcome of one mount."""

    clean: bool
    checkpoint_seq: int
    transactions_replayed: int
    transactions_discarded: int
    files: int


@dataclass
class _State:
    """The volatile metadata image."""

    directory: Dict[str, int] = field(default_factory=dict)
    inodes: Dict[int, Inode] = field(default_factory=dict)
    free_blocks: Set[int] = field(default_factory=set)
    alloc_watermark: int = 0
    next_inode: int = 1
    last_txid: int = 0


class FileSystem:
    """An extent-based journaling filesystem over a :class:`HostSystem`.

    Example
    -------
    >>> host = HostSystem(seed=3)
    >>> host.boot()
    >>> fs = FileSystem(host)
    >>> fs.format()
    >>> inode = fs.create("hello.txt")
    >>> fs.write_file("hello.txt", b"hello world", sync=True)
    11
    >>> fs.read_file("hello.txt")
    b'hello world'
    """

    def __init__(
        self,
        host: HostSystem,
        journal_blocks: int = DEFAULT_JOURNAL_BLOCKS,
        cas: Optional[ContentStore] = None,
    ) -> None:
        validate_region(journal_blocks)
        self.host = host
        self.cas = cas if cas is not None else ContentStore()
        self.journal_blocks = journal_blocks
        self.data_start = JOURNAL_START + journal_blocks
        self.state = _State(alloc_watermark=self.data_start)
        self._journal_cursor = JOURNAL_START
        self._ckpt_seq = 0
        self._mounted = False
        # Statistics.
        self.transactions_written = 0
        self.checkpoints_written = 0

    # ------------------------------------------------------------- sync block IO --

    def _wait(self, request: BlockRequest) -> None:
        self.host.kernel.pump_until(
            lambda: request.done, 120 * SEC, "filesystem IO", FsError
        )

    def _write_blocks(self, start_block: int, tokens: List[int]) -> None:
        request = self.host.write(start_block, tokens)
        self._wait(request)
        if not request.ok:
            raise FsError(f"write to block {start_block} failed: {request.state.value}")

    def _read_block_token(self, block: int) -> Optional[int]:
        request = self.host.read(block, 1)
        self._wait(request)
        if not request.ok:
            raise FsCorruption(f"read of block {block} failed")
        token = request.tokens[0]
        return None if token == 0 else token

    def _read_block_bytes(self, block: int) -> Optional[bytes]:
        return self.cas.bytes_for(self._read_block_token(block))

    def _flush_barrier(self) -> None:
        done: List[IoCommand] = []
        self.host.ssd.submit(IoCommand.flush(on_complete=done.append))
        self.host.kernel.pump_until(lambda: done, 60 * SEC, "the flush barrier", FsError)
        if done[0].status is not CommandStatus.OK:
            # A failed FLUSH means nothing about durability — fsync and
            # synced renames must report it (the kernel returns EIO), not
            # let the caller ack unflushed data.
            raise FsError(f"flush barrier failed: {done[0].status.value}")

    # ------------------------------------------------------------------- format --

    def format(self) -> None:
        """Initialise an empty filesystem (and mount it)."""
        superblock = json.dumps(
            {"magic": MAGIC, "journal_blocks": self.journal_blocks},
            separators=(",", ":"),
        ).encode("utf-8")
        self._write_blocks(SUPERBLOCK, [self.cas.address_of(superblock)])
        self.state = _State(alloc_watermark=self.data_start)
        self._journal_cursor = JOURNAL_START
        self._ckpt_seq = 0
        self._checkpoint()
        self._flush_barrier()
        self._mounted = True

    # ----------------------------------------------------------------- allocation --

    def _allocate_blocks(self, count: int) -> List[int]:
        blocks: List[int] = []
        free = sorted(self.state.free_blocks)
        for block in free[:count]:
            self.state.free_blocks.discard(block)
            blocks.append(block)
        while len(blocks) < count:
            blocks.append(self.state.alloc_watermark)
            self.state.alloc_watermark += 1
        limit = self.host.ssd.chip.geometry.total_pages
        if self.state.alloc_watermark > limit:
            raise FsError("filesystem out of space")
        return blocks

    # ------------------------------------------------------------------ journaling --

    def _next_txid(self) -> int:
        self.state.last_txid += 1
        return self.state.last_txid

    def _journal_write(self, records: List[TxRecord], sync: bool) -> None:
        if self._journal_cursor + len(records) > JOURNAL_START + self.journal_blocks:
            # Journal full: checkpoint folds it into the snapshot; restart.
            # The checkpoint MUST be durable before the lap it covers is
            # overwritten — otherwise a power fault can roll the checkpoint
            # back while the old journal pages are already gone, losing
            # previously-fsynced transactions.
            self._checkpoint()
            self._flush_barrier()
            self._journal_cursor = JOURNAL_START
        tokens = [self.cas.address_of(record.encode()) for record in records]
        self._write_blocks(self._journal_cursor, tokens)
        self._journal_cursor += len(records)
        self.transactions_written += 1
        if sync:
            self._flush_barrier()

    def _commit_txn(self, payload: List[TxRecord], sync: bool) -> int:
        txid = self._next_txid()
        records = [TxRecord(TxKind.BEGIN, txid)]
        for record in payload:
            record.txid = txid
            records.append(record)
        records.append(TxRecord(TxKind.COMMIT, txid))
        self._journal_write(records, sync=sync)
        return txid

    def _dir_record(self) -> TxRecord:
        return TxRecord(
            TxKind.DIRECTORY, 0, {"entries": dict(self.state.directory)}
        )

    def _inode_record(self, inode: Inode) -> TxRecord:
        return TxRecord(TxKind.INODE, 0, {"inode": inode.encode().decode("utf-8")})

    # ------------------------------------------------------------------ checkpoint --

    def _snapshot_bytes(self) -> bytes:
        return json.dumps(
            {
                "dir": self.state.directory,
                "inodes": {
                    str(num): inode.encode().decode("utf-8")
                    for num, inode in self.state.inodes.items()
                },
                "free": sorted(self.state.free_blocks),
                "watermark": self.state.alloc_watermark,
                "next_inode": self.state.next_inode,
                "last_txid": self.state.last_txid,
            },
            separators=(",", ":"),
            sort_keys=True,
        ).encode("utf-8")

    def _checkpoint(self) -> None:
        """Write a full metadata snapshot to the next checkpoint slot."""
        snapshot = self._snapshot_bytes()
        chunk_size = BLOCK - 256  # leave headroom; chunks are raw JSON slices
        chunks = [
            snapshot[i : i + chunk_size] for i in range(0, max(1, len(snapshot)), chunk_size)
        ]
        slot = (self._ckpt_seq + 1) % CKPT_SLOTS
        base = CKPT_START + slot * CKPT_SLOT_BLOCKS
        if len(chunks) + 1 > CKPT_SLOT_BLOCKS:
            raise FsError("metadata snapshot exceeds checkpoint slot")
        chunk_tokens = [self.cas.address_of(chunk) for chunk in chunks]
        self._write_blocks(base + 1, chunk_tokens)
        header = json.dumps(
            {
                "seq": self._ckpt_seq + 1,
                "chunks": len(chunks),
                "digest": hashlib.blake2b(snapshot, digest_size=8).hexdigest(),
                "last_txid": self.state.last_txid,
            },
            separators=(",", ":"),
        ).encode("utf-8")
        self._write_blocks(base, [self.cas.address_of(header)])
        self._ckpt_seq += 1
        self.checkpoints_written += 1

    def _load_checkpoint(self) -> Tuple[int, Optional[_State]]:
        """Pick the newest intact checkpoint.  Returns (seq, state|None)."""
        best_seq, best_state = 0, None
        for slot in range(CKPT_SLOTS):
            base = CKPT_START + slot * CKPT_SLOT_BLOCKS
            header_bytes = self._read_block_bytes(base)
            if header_bytes is None:
                continue
            try:
                header = json.loads(header_bytes.decode("utf-8"))
                chunks = [
                    self._read_block_bytes(base + 1 + i)
                    for i in range(header["chunks"])
                ]
                if any(chunk is None for chunk in chunks):
                    continue
                snapshot = b"".join(chunks)  # type: ignore[arg-type]
                digest = hashlib.blake2b(snapshot, digest_size=8).hexdigest()
                if digest != header["digest"]:
                    continue
                data = json.loads(snapshot.decode("utf-8"))
            except (ValueError, KeyError):
                continue
            if header["seq"] > best_seq:
                state = _State(
                    directory=dict(data["dir"]),
                    inodes={
                        int(num): Inode.decode(text.encode("utf-8"))
                        for num, text in data["inodes"].items()
                    },
                    free_blocks=set(data["free"]),
                    alloc_watermark=data["watermark"],
                    next_inode=data["next_inode"],
                    last_txid=data["last_txid"],
                )
                best_seq, best_state = header["seq"], state
        return best_seq, best_state

    # ---------------------------------------------------------------------- mount --

    def mount(self) -> MountReport:
        """Recover the metadata image: checkpoint + committed journal txns."""
        superblock = self._read_block_bytes(SUPERBLOCK)
        if superblock is None:
            raise FsCorruption("no superblock: device is not a reprofs volume")
        try:
            super_data = json.loads(superblock.decode("utf-8"))
        except ValueError as exc:
            raise FsCorruption(f"corrupt superblock: {exc}") from exc
        if super_data.get("magic") != MAGIC:
            raise FsCorruption("superblock magic mismatch")

        seq, state = self._load_checkpoint()
        clean = state is not None
        if state is None:
            state = _State(alloc_watermark=self.data_start)
        self.state = state
        self._ckpt_seq = seq

        pages = []
        for block in range(JOURNAL_START, JOURNAL_START + self.journal_blocks):
            try:
                pages.append(self._read_block_bytes(block))
            except FsCorruption:
                pages.append(None)
        transactions, discarded = decode_transactions(pages)
        replayed = 0
        for txn in sorted(transactions, key=lambda t: t.txid):
            if txn.txid <= state.last_txid:
                continue  # already folded into the checkpoint
            self._apply_transaction(txn)
            replayed += 1
        # Journal cursor resumes after the newest applied record position;
        # restarting at the region head after a checkpoint keeps it simple.
        # The checkpoint must be durable before the journal region is
        # reused: replayed transactions now live only in that snapshot.
        self._checkpoint()
        self._flush_barrier()
        self._journal_cursor = JOURNAL_START
        self._mounted = True
        return MountReport(
            clean=clean,
            checkpoint_seq=seq,
            transactions_replayed=replayed,
            transactions_discarded=discarded,
            files=len(self.state.directory),
        )

    def _apply_transaction(self, txn: Transaction) -> None:
        for record in txn.payload_records:
            if record.kind is TxKind.DIRECTORY:
                self.state.directory = dict(record.payload["entries"])
            elif record.kind is TxKind.INODE:
                inode = Inode.decode(record.payload["inode"].encode("utf-8"))
                self.state.inodes[inode.number] = inode
                self.state.next_inode = max(self.state.next_inode, inode.number + 1)
                for start, count in inode.extents:
                    self.state.alloc_watermark = max(
                        self.state.alloc_watermark, start + count
                    )
            elif record.kind is TxKind.FREEMAP:
                self.state.free_blocks.update(record.payload["freed"])
        self.state.last_txid = max(self.state.last_txid, txn.txid)
        # Drop inodes no longer referenced by the directory.
        live = set(self.state.directory.values())
        for number in list(self.state.inodes):
            if number not in live:
                del self.state.inodes[number]

    def unmount(self) -> None:
        """Checkpoint and flush everything durable."""
        self._require_mounted()
        self._checkpoint()
        self._flush_barrier()
        self._mounted = False

    def _require_mounted(self) -> None:
        if not self._mounted:
            raise FsError("filesystem is not mounted")

    # ------------------------------------------------------------------- file ops --

    def create(self, name: str, sync: bool = False) -> Inode:
        """Create an empty file."""
        self._require_mounted()
        if not name or "/" in name:
            raise FsError(f"bad file name {name!r}")
        if name in self.state.directory:
            raise FsError(f"file {name!r} exists")
        inode = Inode(number=self.state.next_inode, mtime_us=self.host.kernel.now)
        self.state.next_inode += 1
        self.state.inodes[inode.number] = inode
        self.state.directory[name] = inode.number
        self._commit_txn([self._dir_record(), self._inode_record(inode)], sync=sync)
        return inode

    def _inode_of(self, name: str) -> Inode:
        number = self.state.directory.get(name)
        if number is None:
            raise FileNotFound(name)
        inode = self.state.inodes.get(number)
        if inode is None:
            raise FsCorruption(f"directory points at missing inode {number}")
        return inode

    def write_file(self, name: str, data: bytes, offset: int = 0, sync: bool = False) -> int:
        """Write ``data`` at ``offset`` (extending the file as needed)."""
        self._require_mounted()
        if offset < 0:
            raise FsError("negative offset")
        if offset % BLOCK:
            raise FsError("writes must be 4 KiB aligned (block filesystem)")
        inode = self._inode_of(name)
        end = offset + len(data)
        needed_blocks = -(-end // BLOCK)
        if needed_blocks > inode.block_count:
            new_blocks = self._allocate_blocks(needed_blocks - inode.block_count)
            for block in new_blocks:
                inode.append_extent(block, 1)
        blocks = inode.blocks()
        # Ordered mode: data first.
        cursor = offset
        while cursor < end:
            index = cursor // BLOCK
            chunk = data[cursor - offset : cursor - offset + BLOCK]
            self._write_blocks(blocks[index], [self.cas.address_of(chunk)])
            cursor += BLOCK
        inode.size_bytes = max(inode.size_bytes, end)
        inode.mtime_us = self.host.kernel.now
        inode.generation += 1
        # Then the metadata transaction.
        self._commit_txn([self._inode_record(inode)], sync=sync)
        return len(data)

    def read_file(self, name: str, offset: int = 0, length: Optional[int] = None) -> bytes:
        """Read file content; raises :class:`FsCorruption` on damaged pages."""
        self._require_mounted()
        inode = self._inode_of(name)
        if length is None:
            length = inode.size_bytes - offset
        if offset < 0 or length < 0 or offset + length > inode.size_bytes:
            raise FsError("read outside file bounds")
        if length == 0:
            return b""
        blocks = inode.blocks()
        out = bytearray()
        first = offset // BLOCK
        last = (offset + length - 1) // BLOCK
        for index in range(first, last + 1):
            payload = self._read_block_bytes(blocks[index])
            if payload is None:
                raise FsCorruption(
                    f"file {name!r} block {index} (device block {blocks[index]}) unreadable"
                )
            out.extend(payload.ljust(BLOCK, b"\0"))
        start = offset - first * BLOCK
        return bytes(out[start : start + length])

    def delete(self, name: str, sync: bool = False) -> None:
        """Remove a file and free its blocks."""
        self._require_mounted()
        inode = self._inode_of(name)
        del self.state.directory[name]
        del self.state.inodes[inode.number]
        freed = inode.blocks()
        self.state.free_blocks.update(freed)
        self._commit_txn(
            [self._dir_record(), TxRecord(TxKind.FREEMAP, 0, {"freed": freed})],
            sync=sync,
        )

    def fsync(self, name: str) -> None:
        """Durability barrier for one file (metadata txn + device FLUSH)."""
        self._require_mounted()
        inode = self._inode_of(name)
        self._commit_txn([self._inode_record(inode)], sync=True)

    def rename(self, old_name: str, new_name: str, sync: bool = False) -> None:
        """Atomically rename a file (one directory record = one commit).

        The classic crash-consistency contract: after a fault the file is
        reachable under exactly one of the two names, never both or neither
        (modulo legitimate rollback of the whole rename).
        """
        self._require_mounted()
        if not new_name or "/" in new_name:
            raise FsError(f"bad file name {new_name!r}")
        if new_name in self.state.directory:
            raise FsError(f"file {new_name!r} exists")
        inode_number = self.state.directory.get(old_name)
        if inode_number is None:
            raise FileNotFound(old_name)
        del self.state.directory[old_name]
        self.state.directory[new_name] = inode_number
        self._commit_txn([self._dir_record()], sync=sync)

    def truncate(self, name: str, new_size: int, sync: bool = False) -> None:
        """Shrink a file, freeing whole blocks past the new size."""
        self._require_mounted()
        if new_size < 0:
            raise FsError("negative size")
        inode = self._inode_of(name)
        if new_size > inode.size_bytes:
            raise FsError("truncate cannot grow a file")
        keep_blocks = -(-new_size // BLOCK) if new_size else 0
        blocks = inode.blocks()
        freed = blocks[keep_blocks:]
        kept = blocks[:keep_blocks]
        inode.extents = []
        for block in kept:
            inode.append_extent(block, 1)
        inode.size_bytes = new_size
        inode.mtime_us = self.host.kernel.now
        inode.generation += 1
        self.state.free_blocks.update(freed)
        records = [self._inode_record(inode)]
        if freed:
            records.append(TxRecord(TxKind.FREEMAP, 0, {"freed": freed}))
        self._commit_txn(records, sync=sync)

    # ----------------------------------------------------------------- introspection --

    def list_files(self) -> List[str]:
        """Sorted file names."""
        self._require_mounted()
        return sorted(self.state.directory)

    def stat(self, name: str) -> Inode:
        """Inode of ``name`` (a live reference; do not mutate)."""
        self._require_mounted()
        return self._inode_of(name)

    def exists(self, name: str) -> bool:
        """True when ``name`` is in the directory."""
        return name in self.state.directory
