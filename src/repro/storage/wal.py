"""Segmented write-ahead log for the durable write path.

Every maintenance write (insert / delete) is encoded as one fixed-size
record — monotone LSN, op code, tuple payload, CRC32 — written at the
end of the log and made durable by :meth:`WriteAheadLog.commit` (write
+ flush + fsync, so callers batch appends into group commits).  A
segment is created full length, its header then ``0xFF`` fill (no
record decodes from it), atomically (``wal-N.seg.tmp``, renamed), so a
commit overwrites fill in place and its fsync persists no new size.  A
write is *acknowledged* only after its commit returns; the crash
contract follows from that ordering:

* acknowledged records are on disk and replayed by recovery;
* the log ends at the first slot that is not a record when only fill
  follows it, in any segment (``checkpoint()`` seals one early);
* a crash mid-commit can only tear the *tail* of the newest segment —
  recovery checks every record's CRC and LSN in sequence and restores
  the fill over a torn tail (unacknowledged writes are cleanly absent);
* a crash mid-create leaves a ``.tmp`` that nothing reads; a newest
  segment shorter than its header (written before creates were atomic)
  holds nothing, so recovery re-creates it;
* a bad record *before* valid ones, or any damage in a sealed segment,
  is not a torn write but bit rot: recovery raises a typed
  :class:`~repro.errors.CorruptPageError` rather than guessing.

Checkpoints ride the same record stream: ``checkpoint()`` notes the
last LSN baked into the owner's durable snapshot, and ``prune()`` then
drops whole sealed segments at or below it.  The checkpoint record
heads a fresh segment that no prune drops, so a reopened log still
knows its checkpoint and resumes the LSN sequence past it.  Replaying
from a snapshot is idempotent, so a crash between checkpoint and prune
loses nothing.

The format is a sidecar of the pager-v2 family (same CRC + typed-error
discipline, own magic/version; a version-1 segment, records appended
and no fill, follows the same rules); see ``docs/RELIABILITY.md``.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from ..core.tuples import RankTuple
from ..errors import CorruptPageError, StorageError
from ..obs import NULL_RECORDER, Recorder
from .pager import atomic_write, sync_dir

__all__ = ["RecoveryReport", "WalRecord", "WriteAheadLog", "WAL_RECORD_SIZE"]

_MAGIC = b"RJIWAL02"
_VERSION = 2
#: The format version each magic the scan reads must carry (header check only).
_FORMATS = {b"RJIWAL01": 1, _MAGIC: _VERSION}
_FILL = b"\xff"
#: Segment header: magic, format version, segment sequence number.
_SEG_HEADER = struct.Struct("<8sHI")
_CRC = struct.Struct("<I")
_SEG_HEADER_SIZE = _SEG_HEADER.size + _CRC.size
#: Record body: lsn, op, tid, s1, s2 (CRC32 of these bytes follows).
_RECORD_BODY = struct.Struct("<QBqdd")
_SLOT = struct.Struct("<QBqddI")
WAL_RECORD_SIZE = _SLOT.size

_OP_INSERT = 1
_OP_DELETE = 2
_OP_CHECKPOINT = 3
_OP_NAMES = {_OP_INSERT: "insert", _OP_DELETE: "delete", _OP_CHECKPOINT: "checkpoint"}


@dataclass(frozen=True, slots=True)
class WalRecord:
    """One decoded log record.

    ``op`` is ``"insert"``, ``"delete"`` or ``"checkpoint"``; for a
    checkpoint, ``tid`` carries the last LSN covered by the snapshot
    the checkpoint acknowledges.
    """

    lsn: int
    op: str
    tid: int
    s1: float
    s2: float


@dataclass(frozen=True, slots=True)
class RecoveryReport:
    """What one crash-recovery replay found and did."""

    checkpoint_lsn: int
    last_lsn: int
    replayed: int
    torn_tails: int
    n_live: int


def _encode(lsn: int, op: int, tid: int, s1: float, s2: float) -> bytes:
    body = _RECORD_BODY.pack(lsn, op, tid, s1, s2)
    return body + _CRC.pack(zlib.crc32(body))


def _decode(chunk: bytes) -> WalRecord | None:
    """Decode one record slot; ``None`` when the CRC or op is invalid."""
    lsn, op, tid, s1, s2, crc = _SLOT.unpack(chunk)
    name = _OP_NAMES.get(op)
    if name is None or zlib.crc32(chunk[: _RECORD_BODY.size]) != crc:
        return None
    return WalRecord(lsn=lsn, op=name, tid=tid, s1=s1, s2=s2)


def _slots(raw: bytes, offset: int) -> Iterator[WalRecord | None]:
    """Every whole record slot of a segment from ``offset`` on, decoded."""
    for start in range(offset, len(raw) - WAL_RECORD_SIZE + 1, WAL_RECORD_SIZE):
        yield _decode(raw[start : start + WAL_RECORD_SIZE])


def _walk(path: Path, raw: bytes, after: int) -> tuple[list[WalRecord], int, bool]:
    """Check a segment's header; return its records while their LSNs
    rise past ``after``, the offset where they stop, and whether the
    log ends there (the rest, possibly nothing, is fill; checked once)."""
    version = _FORMATS.get(raw[:8])
    header = raw[: _SEG_HEADER.size]
    if raw[_SEG_HEADER.size : _SEG_HEADER_SIZE] != _CRC.pack(zlib.crc32(header)) or (
        _SEG_HEADER.unpack(header)[1] != version
    ):
        raise CorruptPageError(f"WAL segment {path.name} has a corrupt header")
    records: list[WalRecord] = []
    for record in _slots(raw, _SEG_HEADER_SIZE):
        if record is None or record.lsn <= after:
            break
        records.append(record)
        after = record.lsn
    end = _SEG_HEADER_SIZE + len(records) * WAL_RECORD_SIZE
    return records, end, raw[end:] == _FILL * (len(raw) - end)


class WriteAheadLog:
    """Segmented, CRC-checked, fsync-on-commit write-ahead log.

    Opening the log *is* recovery: the constructor scans every segment,
    validates records, refills a torn tail of the newest segment, and
    resumes the LSN sequence.  Not thread-safe; owners serialize the
    write path exactly as they do for the index it protects.
    """

    def __init__(
        self,
        directory: str | Path,
        *,
        segment_bytes: int = 64 * 1024,
        fsync: bool = True,
        recorder: Recorder = NULL_RECORDER,
    ):
        if segment_bytes < _SEG_HEADER_SIZE + WAL_RECORD_SIZE:
            raise StorageError(
                f"segment_bytes={segment_bytes} cannot hold one record"
            )
        self._dir = Path(directory)
        self._dir.mkdir(parents=True, exist_ok=True)
        self._segment_bytes = segment_bytes
        self._fsync = fsync
        self._recorder = recorder
        #: Duck-typed chaos hook (see repro.faults.inject.arm).
        self.faults = None
        self._pending: list[bytes] = []
        self._last_lsn = 0
        self._checkpoint_lsn = 0
        self._torn_tails = 0
        #: Sealed segment path -> last LSN it holds (prune granularity).
        self._sealed_last: dict[Path, int] = {}
        self._handle = None
        self._recover_segments()

    # -- recovery (open-time scan) ----------------------------------------

    def _segment_paths(self) -> list[Path]:
        return sorted(self._dir.glob("wal-*.seg"))

    def _segment_path(self, seq: int) -> Path:
        return self._dir / f"wal-{seq:08d}.seg"

    def _recover_segments(self) -> None:
        """Scan, validate, and refill a torn tail; resume the LSN.

        The only place the log ever *handles* torn/corrupt state;
        everywhere else the typed errors propagate.
        """
        paths = self._segment_paths()
        torn = None
        prev_lsn = end = 0
        for position, path in enumerate(paths):
            last = position == len(paths) - 1
            try:
                raw = path.read_bytes()
            except OSError as exc:
                raise StorageError(f"cannot read WAL segment {path}: {exc}") from exc
            if last and len(raw) < _SEG_HEADER_SIZE:
                # A crash between creating the newest segment and making
                # its header durable: nothing can follow a header never
                # written, so this is a torn tail of the log, not damage.
                torn = path
                break
            prev_lsn, end = self._recover_one(path, raw, prev_lsn, last=last)
        self._last_lsn = prev_lsn
        if torn is not None:
            try:
                torn.unlink()
            except OSError as exc:
                raise StorageError(
                    f"cannot remove WAL segment {torn}: {exc}"
                ) from exc
            self._torn_tails += 1
            self._recorder.count("wal.torn_tails")
            self._open_segment(int(torn.stem.split("-")[1]))
        elif not paths:
            self._open_segment(1)
        else:
            # Re-open the newest (now clean) segment at its end of log.
            self._handle = open(paths[-1], "r+b")
            self._handle.seek(end)
            self._current_seq = int(paths[-1].stem.split("-")[1])

    def _recover_one(
        self, path: Path, raw: bytes, prev_lsn: int, *, last: bool
    ) -> tuple[int, int]:
        """Check one segment, refill a torn tail; return (last LSN, end of log)."""
        records, end, clean = _walk(path, raw, prev_lsn)
        for record in records:
            if record.op == "checkpoint":
                self._checkpoint_lsn = max(self._checkpoint_lsn, record.tid)
            prev_lsn = record.lsn
        # Only a tail of the newest segment with no valid record after
        # it is a torn write; anything else is bit rot and must surface,
        # never be silently dropped.
        if not clean:
            later = _slots(raw, end + WAL_RECORD_SIZE)
            if not last or any(r is not None and r.lsn > prev_lsn for r in later):
                raise CorruptPageError(
                    f"WAL segment {path.name} is corrupt at offset {end}"
                )
            # Restore the fill over the tail; the file keeps its size.
            with open(path, "r+b") as handle:
                handle.seek(end)
                handle.write(_FILL * (len(raw) - end))
                handle.flush()
                os.fsync(handle.fileno())
            self._torn_tails += 1
            self._recorder.count("wal.torn_tails")
        if not last:
            self._sealed_last[path] = prev_lsn
        return prev_lsn, end

    def _open_segment(self, seq: int) -> None:
        path = self._segment_path(seq)
        header = _SEG_HEADER.pack(_MAGIC, _VERSION, seq)
        try:
            if path.exists():
                raise FileExistsError(f"{path} exists")
            fill = _FILL * (self._segment_bytes - _SEG_HEADER_SIZE)
            atomic_write(path, header, _CRC.pack(zlib.crc32(header)), fill)
        except OSError as exc:
            raise StorageError(f"cannot create WAL segment {path}: {exc}") from exc
        self._handle = open(path, "r+b")
        self._handle.seek(_SEG_HEADER_SIZE)
        self._current_seq = seq
        self._recorder.count("wal.segments_created")

    # -- append / commit ---------------------------------------------------

    def append_insert(self, tid: int, s1: float, s2: float) -> int:
        """Buffer an insert record; returns its LSN (durable at commit)."""
        return self._append(_OP_INSERT, tid, float(s1), float(s2))

    def append_delete(self, tid: int) -> int:
        """Buffer a delete record; returns its LSN (durable at commit)."""
        return self._append(_OP_DELETE, tid, 0.0, 0.0)

    def _append(self, op: int, tid: int, s1: float, s2: float) -> int:
        if self.faults is not None:
            self.faults.on_wal_append()
        lsn = self._last_lsn + 1
        self._pending.append(_encode(lsn, op, tid, s1, s2))
        self._last_lsn = lsn
        self._recorder.count("wal.appends")
        return lsn

    def commit(self) -> int:
        """Make every buffered record durable; returns the last LSN.

        The group-commit point: one write + flush + fsync covers all
        appends since the previous commit.  Only after this returns may
        the owner acknowledge the writes.
        """
        if self.faults is not None:
            self.faults.on_wal_commit()
        if not self._pending:
            return self._last_lsn
        handle = self._handle
        assert handle is not None
        try:
            handle.write(b"".join(self._pending))
            handle.flush()
            if self._fsync:
                os.fsync(handle.fileno())
                self._recorder.count("wal.fsyncs")
        except OSError as exc:
            raise StorageError(f"WAL commit failed: {exc}") from exc
        self._pending.clear()
        self._recorder.count("wal.commits")
        if handle.tell() >= self._segment_bytes:
            self._rotate()
        return self._last_lsn

    def _rotate(self) -> None:
        handle = self._handle
        assert handle is not None
        handle.close()
        self._sealed_last[self._segment_path(self._current_seq)] = (
            self._last_lsn
        )
        self._open_segment(self._current_seq + 1)

    # -- checkpoint / prune ------------------------------------------------

    def checkpoint(self, covered_lsn: int) -> int:
        """Record that state through ``covered_lsn`` is snapshotted.

        ``covered_lsn`` is the LSN the owner's snapshot reflects, which
        may trail :attr:`last_lsn`: records past it (writes acknowledged
        while the snapshot was being built) stay in the log and are
        replayed.  Commits pending records and seals the segment so
        :meth:`prune` can drop every sealed segment the snapshot fully
        holds, then appends and commits a checkpoint record, carrying
        ``covered_lsn`` in its ``tid`` field, at the head of the new
        segment.  Returns ``covered_lsn``: store it in the snapshot and
        replay only records strictly past it.
        """
        self.commit()
        self._rotate()
        # The highest tid among checkpoint records seen by the open-time
        # scan *is* the checkpoint.  The record sits in the unsealed
        # segment, so even a log pruned down to it reopens past its own
        # LSN rather than at 0 — below the owner's snapshot, where new
        # writes would be skipped by the next replay.
        self._append(_OP_CHECKPOINT, covered_lsn, 0.0, 0.0)
        self.commit()
        self._checkpoint_lsn = covered_lsn
        self._recorder.count("wal.checkpoints")
        return covered_lsn

    def prune(self) -> int:
        """Drop sealed segments fully covered by the last checkpoint."""
        dropped = 0
        for path, last_lsn in sorted(self._sealed_last.items()):
            if last_lsn > self._checkpoint_lsn:
                continue
            try:
                path.unlink()
            except OSError as exc:
                raise StorageError(
                    f"cannot prune WAL segment {path}: {exc}"
                ) from exc
            del self._sealed_last[path]
            dropped += 1
            self._recorder.count("wal.segments_pruned")
        if dropped:
            sync_dir(self._dir)
        return dropped

    # -- replay ------------------------------------------------------------

    def records(self, after_lsn: int = 0) -> Iterator[WalRecord]:
        """Decoded records with ``lsn > after_lsn``, in LSN order.

        Reads from disk (committed records only) — the replay source
        for recovery.  The open-time scan already validated every
        segment, so decode failures here are typed corruption.
        """
        for path in self._segment_paths():
            records, end, clean = _walk(path, path.read_bytes(), 0)
            if not clean:
                raise CorruptPageError(
                    f"WAL segment {path.name} is corrupt at offset {end}"
                )
            for record in records:
                if record.lsn > after_lsn:
                    self._recorder.count("wal.records_replayed")
                    yield record

    def replay(self, after_lsn: int) -> Iterator[tuple[str, RankTuple]]:
        """The writes past ``after_lsn`` as ``(op, tuple)``, in LSN order.

        ``op`` is ``"insert"`` or ``"delete"`` (checkpoint markers are
        skipped; a delete carries only its tid).  Every recovery path
        replays through here, onto whatever snapshot it starts from —
        re-applying a record the snapshot already reflects must be a
        no-op for the caller (overwrite / pop-if-present).
        """
        for record in self.records(after_lsn):
            if record.op != "checkpoint":
                yield record.op, RankTuple(record.tid, record.s1, record.s2)

    # -- introspection -----------------------------------------------------

    @property
    def last_lsn(self) -> int:
        """LSN of the most recent append (may not be committed yet)."""
        return self._last_lsn

    @property
    def checkpoint_lsn(self) -> int:
        """Last LSN covered by a checkpoint (0 before the first)."""
        return self._checkpoint_lsn

    @property
    def torn_tails(self) -> int:
        """Torn tails (and torn newest segments) the open-time scan repaired."""
        return self._torn_tails

    @property
    def n_segments(self) -> int:
        return len(self._segment_paths())

    @property
    def directory(self) -> Path:
        return self._dir

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WriteAheadLog({str(self._dir)!r}, last_lsn={self._last_lsn}, "
            f"checkpoint={self._checkpoint_lsn}, "
            f"segments={self.n_segments})"
        )
