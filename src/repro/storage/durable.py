"""The durable index: the writable index over a WAL, with recovery.

:class:`DurableRankedJoinIndex` owns a directory::

    <dir>/wal/wal-*.seg   append-only log (repro.storage.wal)
    <dir>/pool.rjp        pager-v2 snapshot of the full live tuple pool
                          plus the checkpoint LSN it reflects
    <dir>/base.rji        disk image of the base index at the same
                          checkpoint (DiskRankedJoinIndex.recover opens
                          this and replays the same WAL)

Writes, reads and the compaction schedule are the one
:class:`~repro.core.writepath.WritableRankedJoinIndex`'s.  This module
adds the directory layout, the pool-snapshot format, ``create`` /
``recover`` (the only constructors: ``build`` would own no directory,
so it raises), and the persist step a compaction runs between
its build and its swap.  :meth:`DurableRankedJoinIndex.recover` is the crash side
of the contract: load the pool snapshot, open the WAL (the open itself
repairs a torn tail), replay records past the snapshot's checkpoint
LSN, rebuild, and report what happened in a :class:`RecoveryReport`.
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import Iterable

import numpy as np

from ..core import RankedJoinIndex
from ..core.tuples import RankTuple, RankTupleSet
from ..core.writepath import Snapshot, WritableRankedJoinIndex
from ..errors import ConstructionError, CorruptPageError, StorageError
from ..obs import NULL_RECORDER, Recorder
from .diskindex import _RECORD_DTYPE, DiskRankedJoinIndex
from .pager import Pager
from .pages import Page
from .wal import RecoveryReport, WriteAheadLog

__all__ = ["DurableRankedJoinIndex"]

_POOL_MAGIC = b"RJIPOOL1"
#: magic, checkpoint LSN, n_tuples, payload bytes, k_bound.
_POOL_META = struct.Struct("<8sQQQI")

_POOL_FILE = "pool.rjp"
_BASE_FILE = "base.rji"
_WAL_DIR = "wal"


def _write_pool_snapshot(
    path: Path,
    records: np.ndarray,
    checkpoint_lsn: int,
    k_bound: int,
    *,
    page_size: int = 4096,
) -> None:
    """Persist tid-sorted ``_RECORD_DTYPE`` records atomically (pager-v2 CRC)."""
    payload = records.tobytes()

    pager = Pager(page_size)
    meta_id = pager.allocate()
    for start in range(0, len(payload), page_size):
        chunk = payload[start : start + page_size]
        page = Page(page_size)
        page.write_bytes(0, chunk)
        pager.write(pager.allocate(), page)
    meta = Page(page_size)
    meta.write_bytes(
        0,
        _POOL_META.pack(
            _POOL_MAGIC, checkpoint_lsn, len(records), len(payload), k_bound
        ),
    )
    pager.write(meta_id, meta)
    pager.save(path)


def _recover_pool_snapshot(
    path: Path,
) -> tuple[dict[int, RankTuple], int, int]:
    """Load a pool snapshot; returns (pool, checkpoint_lsn, k_bound)."""
    pager = Pager.load(path)
    header = pager.read(0).read_bytes(0, _POOL_META.size)
    try:
        magic, checkpoint_lsn, n_tuples, payload_bytes, k_bound = (
            _POOL_META.unpack(header)
        )
    except struct.error as exc:
        raise CorruptPageError(
            f"{path}: pool snapshot metadata is unreadable", page_id=0
        ) from exc
    if magic != _POOL_MAGIC:
        raise StorageError(f"{path} is not a pool snapshot")
    data = b"".join(
        pager.read(page_id).to_bytes()
        for page_id in range(1, pager.n_pages)
    )[:payload_bytes]
    if len(data) != payload_bytes:
        raise CorruptPageError(
            f"{path}: pool snapshot payload is short "
            f"({len(data)} of {payload_bytes} bytes)"
        )
    if payload_bytes != n_tuples * _RECORD_DTYPE.itemsize:
        raise CorruptPageError(
            f"{path}: pool snapshot holds {payload_bytes} payload bytes, "
            f"metadata promises {n_tuples} tuples"
        )
    records = np.frombuffer(data, dtype=_RECORD_DTYPE)
    pool = {t[0]: RankTuple(*t) for t in records.tolist()}
    return pool, checkpoint_lsn, k_bound


class DurableRankedJoinIndex(WritableRankedJoinIndex):
    """A Ranked Join Index whose writes survive crashes.

    Construct with :meth:`create` (fresh directory) or :meth:`recover`
    (after a crash or clean shutdown — recovery of a clean directory is
    a no-op replay).  Satisfies the :class:`repro.serve.IndexService`
    protocol plus the write surface (``insert`` / ``delete``), so it
    plugs straight into :class:`repro.serve.QueryServer`.

    Thread-safe like every writable index.  A compaction's persist
    step (file I/O) runs under the writer lock with its swap, which
    keeps the WAL single-threaded; its build holds no lock.
    """

    def __init__(
        self,
        directory: str | Path,
        index: RankedJoinIndex,
        pool: dict[int, RankTuple],
        wal: WriteAheadLog,
        *,
        compaction_threshold: int = 64,
        recorder: Recorder = NULL_RECORDER,
        build_options: dict | None = None,
    ):
        self._dir = Path(directory)
        self.last_recovery: RecoveryReport | None = None
        super().__init__(
            index,
            pool,
            wal,
            compaction_threshold=compaction_threshold,
            build_options={"recorder": recorder, **(build_options or {})},
        )

    # -- construction ------------------------------------------------------

    @classmethod
    def build(cls, *args, **kwargs):
        """Refused: a durable index needs a directory (:meth:`create`)."""
        raise ConstructionError(
            "DurableRankedJoinIndex has no build(); use "
            "DurableRankedJoinIndex.create(directory, tuples, k, ...)"
        )

    @classmethod
    def create(
        cls,
        directory: str | Path,
        tuples: Iterable[RankTuple],
        k: int,
        *,
        compaction_threshold: int = 64,
        segment_bytes: int = 64 * 1024,
        fsync: bool = True,
        recorder: Recorder = NULL_RECORDER,
        **build_options,
    ) -> "DurableRankedJoinIndex":
        """Initialize a fresh durable index directory."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        if not isinstance(tuples, RankTupleSet):
            tuples = RankTupleSet.from_tuples(tuples)
        ordered = tuples[np.argsort(tuples.tids)]
        pool = dict(zip(ordered.tids.tolist(), ordered))
        columns = (ordered.tids, ordered.s1, ordered.s2)
        records = np.rec.fromarrays(columns, dtype=_RECORD_DTYPE)
        index = RankedJoinIndex.build(
            ordered, k, recorder=recorder, **build_options
        )
        wal = WriteAheadLog(
            directory / _WAL_DIR,
            segment_bytes=segment_bytes,
            fsync=fsync,
            recorder=recorder,
        )
        try:
            _write_pool_snapshot(directory / _POOL_FILE, records, 0, k)
            DiskRankedJoinIndex(index).save(directory / _BASE_FILE)
            return cls(
                directory,
                index,
                pool,
                wal,
                compaction_threshold=compaction_threshold,
                recorder=recorder,
                build_options=build_options,
            )
        except BaseException:
            wal.close()
            raise

    @classmethod
    def recover(
        cls,
        directory: str | Path,
        *,
        compaction_threshold: int = 64,
        segment_bytes: int = 64 * 1024,
        fsync: bool = True,
        recorder: Recorder = NULL_RECORDER,
        **build_options,
    ) -> "DurableRankedJoinIndex":
        """Reopen after a crash (or clean shutdown) and replay the WAL.

        Loads the pool snapshot, opens the WAL — the open-time scan
        repairs a torn tail — and re-applies every record past the
        snapshot's checkpoint LSN to the pool (idempotent: inserts
        overwrite, deletes are pop-if-present, so records that are both
        in the snapshot and still in the log converge).  A non-empty
        replay ends in the persist step, so the saved image is the base
        this instance classifies writes against.  ``build_options``
        must match the ones the index was created with for merged
        answers to stay bit-identical to the pre-crash index.
        """
        directory = Path(directory)
        pool, checkpoint_lsn, k_bound = _recover_pool_snapshot(
            directory / _POOL_FILE
        )
        wal = WriteAheadLog(
            directory / _WAL_DIR,
            segment_bytes=segment_bytes,
            fsync=fsync,
            recorder=recorder,
        )
        try:
            replayed = 0
            for op, tuple_ in wal.replay(after_lsn=checkpoint_lsn):
                if op == "insert":
                    pool[tuple_.tid] = tuple_
                else:
                    pool.pop(tuple_.tid, None)
                replayed += 1
            ordered = sorted(pool.values())
            index = RankedJoinIndex.build(
                ordered, k_bound, recorder=recorder, **build_options
            )
            instance = cls(
                directory,
                index,
                pool,
                wal,
                compaction_threshold=compaction_threshold,
                recorder=recorder,
                build_options=build_options,
            )
            instance.last_recovery = RecoveryReport(
                checkpoint_lsn=checkpoint_lsn,
                last_lsn=wal.last_lsn,
                replayed=replayed,
                torn_tails=wal.torn_tails,
                n_live=len(pool),
            )
            if replayed:
                # The base now holds writes the saved image does not, so
                # a later delete the base finds inert could be charged
                # against the image by DiskRankedJoinIndex.recover, unseen
                # by any trigger here.  Saving the base makes the two
                # agree again.
                instance._persist(index, Snapshot(ordered, wal.last_lsn, 0))
        except BaseException:
            wal.close()
            raise
        return instance

    # -- the persist step --------------------------------------------------

    def _persist(self, fresh: RankedJoinIndex, snapshot: Snapshot) -> None:
        """Make a built base durable; runs under the writer lock.

        Step order is the crash-safety argument: nothing destructive
        happens before the new image, checkpoint, and pool snapshot are
        durable, and the WAL prune at the end only drops segments the
        snapshot fully covers.  The chaos hook fires between steps so
        fault plans can kill the process at each boundary.
        """
        self._chaos_step()  # boundary 1: built, nothing durable changed
        DiskRankedJoinIndex(fresh).save(self._dir / _BASE_FILE)
        self._chaos_step()  # boundary 2: image saved; checkpoint not cut
        # The checkpoint covers the snapshot, not the log's tail: writes
        # acknowledged while the build ran lie past it, so both
        # recoveries replay them and prune keeps their segment.
        self.wal.checkpoint(snapshot.lsn)
        _write_pool_snapshot(
            self._dir / _POOL_FILE,
            np.fromiter(snapshot.tuples, _RECORD_DTYPE, len(snapshot.tuples)),
            snapshot.lsn,
            fresh.k_bound,
        )
        self._chaos_step()  # boundary 3: snapshot durable; prune pending
        self.wal.prune()

    def close(self) -> None:
        self.wal.close()
