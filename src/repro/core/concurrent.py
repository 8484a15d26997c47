"""A thread-safe facade over a maintained Ranked Join Index.

The core index is a plain in-memory structure and the write path that
maintains it is not thread-safe.  :class:`ConcurrentRankedJoinIndex`
adds a readers-writer lock so many query threads proceed concurrently
while inserts/deletes/swaps take exclusive ownership — the standard
discipline a database system would put around a shared index.

Writer preference: once a writer is waiting, new readers block, so
maintenance cannot starve under a heavy query load.

Queries optionally take a ``deadline`` (a
:class:`~repro.core.deadline.Deadline` or seconds): the read-lock wait
and the wrapped query share one cooperative deadline, so a query stuck
behind a long rebuild fails fast with
:class:`~repro.errors.QueryTimeoutError` instead of queueing forever.
"""

from __future__ import annotations

import threading
import time
from typing import Iterable, Sequence

from ..errors import LockDisciplineError, MaintenanceError, QueryTimeoutError
from .deadline import Deadline, DeadlineLike
from .delta import DeltaStore, SupportsWal
from .index import QueryResult, RankedJoinIndex
from .scoring import PreferenceLike
from .tuples import RankTuple, RankTupleSet
from .writepath import Snapshot, WritePath

__all__ = ["ReadWriteLock", "ConcurrentRankedJoinIndex"]


class ReadWriteLock:
    """A writer-preferring readers-writer lock."""

    def __init__(self) -> None:
        self._condition = threading.Condition()
        self._readers = 0
        self._writer_active = False
        self._writers_waiting = 0

    def acquire_read(self, timeout: float | None = None) -> bool:
        """Acquire shared ownership; returns False on timeout.

        ``timeout=None`` blocks indefinitely (and always returns True),
        preserving the original semantics for existing callers.  The
        timeout bounds the *total* wait across wakeups, not each one.
        """
        with self._condition:
            if timeout is None:
                while self._writer_active or self._writers_waiting:
                    self._condition.wait()
                self._readers += 1
                return True
            expires = time.monotonic() + timeout
            while self._writer_active or self._writers_waiting:
                remaining = expires - time.monotonic()
                if remaining <= 0 or not self._condition.wait(remaining):
                    return False
            self._readers += 1
            return True

    def release_read(self) -> None:
        with self._condition:
            if self._readers <= 0:
                raise LockDisciplineError(
                    "release_read without a matching successful acquire_read"
                )
            self._readers -= 1
            if self._readers == 0:
                self._condition.notify_all()

    def acquire_write(self) -> None:
        with self._condition:
            self._writers_waiting += 1
            while self._writer_active or self._readers:
                self._condition.wait()
            self._writers_waiting -= 1
            self._writer_active = True

    def release_write(self) -> None:
        with self._condition:
            if not self._writer_active:
                raise LockDisciplineError(
                    "release_write without a matching acquire_write"
                )
            self._writer_active = False
            self._condition.notify_all()

    class _ReadGuard:
        def __init__(self, lock: "ReadWriteLock"):
            self._lock = lock

        def __enter__(self):
            self._lock.acquire_read()

        def __exit__(self, *exc):
            self._lock.release_read()
            return False

    class _WriteGuard:
        def __init__(self, lock: "ReadWriteLock"):
            self._lock = lock

        def __enter__(self):
            self._lock.acquire_write()

        def __exit__(self, *exc):
            self._lock.release_write()
            return False

    def reading(self) -> "_ReadGuard":
        return self._ReadGuard(self)

    def writing(self) -> "_WriteGuard":
        return self._WriteGuard(self)


def _as_pool(tuples: Iterable[RankTuple]) -> dict[int, RankTuple]:
    return {
        int(t.tid): RankTuple(int(t.tid), float(t.s1), float(t.s2))
        for t in tuples
    }


class ConcurrentRankedJoinIndex:
    """Shared-read / exclusive-write wrapper around a RankedJoinIndex."""

    def __init__(
        self,
        index: RankedJoinIndex,
        *,
        wal: SupportsWal | None = None,
        delta_threshold: int = 64,
        pool: Iterable[RankTuple] | None = None,
        build_options: dict | None = None,
    ):
        self._lock = ReadWriteLock()
        # The construction bound is immutable across rebuilds (rebuild()
        # reuses it), so it is cached here and served without the lock.
        self._k_bound = index.k_bound
        # Writes go through one WritePath (commit to the log — an
        # in-memory one when ``wal`` is omitted — then land in a
        # DeltaStore merged by every query), and a *background* thread
        # compacts the delta into a fresh base once WritePath says it is
        # due — readers keep draining on the old store while the
        # replacement builds; only the snapshot and the swap take the
        # write lock.  ``pool`` seeds the full live tuple set compaction
        # rebuilds from; it defaults to the index's dominating set,
        # which is only complete when pruning dropped nothing — a bare
        # wrapper over a pruned index serves reads and refuses writes.
        self._pool_complete = (
            pool is not None or index.stats.n_input == len(index.dominating)
        )
        self._compacting = False
        self._compaction_thread: threading.Thread | None = None
        self._writes = WritePath(
            index,
            _as_pool(pool if pool is not None else index.dominating),
            wal,
            threshold=delta_threshold,
            build_options=build_options,
        )

    @classmethod
    def build(
        cls,
        tuples: RankTupleSet | Iterable[RankTuple],
        k: int,
        *,
        wal: SupportsWal | None = None,
        delta_threshold: int = 64,
        **options,
    ) -> "ConcurrentRankedJoinIndex":
        """Build the wrapped index; ``options`` are forwarded verbatim to
        :meth:`RankedJoinIndex.build` here and on every compaction and
        :meth:`rebuild`.  The full input tuple set becomes the live pool
        that background compactions rebuild from; ``wal=`` makes the
        writes durable."""
        if not isinstance(tuples, RankTupleSet):
            tuples = RankTupleSet.from_tuples(tuples)
        index = RankedJoinIndex.build(tuples, k, **options)
        return cls(
            index,
            wal=wal,
            delta_threshold=delta_threshold,
            pool=tuples,
            build_options=options,
        )

    # -- readers -----------------------------------------------------------

    def _acquire_read(self, deadline: Deadline | None) -> None:
        """Take the read lock within the deadline's remaining budget."""
        if deadline is None:
            self._lock.acquire_read()
            return
        remaining = deadline.remaining()
        if remaining <= 0 or not self._lock.acquire_read(remaining):
            raise QueryTimeoutError(
                "query deadline expired while waiting for the read lock"
            )

    def query(
        self,
        preference: PreferenceLike,
        k: int,
        *,
        deadline: DeadlineLike = None,
    ) -> list[QueryResult]:
        """Top-k under ``preference``; ``deadline`` (a
        :class:`~repro.core.deadline.Deadline` or seconds) covers the
        read-lock wait *and* the query itself, raising
        :class:`~repro.errors.QueryTimeoutError` once exceeded."""
        deadline = Deadline.of(deadline)
        self._acquire_read(deadline)
        try:
            return self._writes.index.query(preference, k, deadline=deadline)
        finally:
            self._lock.release_read()

    def query_batch(
        self,
        preferences: Sequence[PreferenceLike],
        k: int,
        *,
        deadline: DeadlineLike = None,
    ) -> list[list[QueryResult]]:
        deadline = Deadline.of(deadline)
        self._acquire_read(deadline)
        try:
            return self._writes.index.query_batch(
                preferences, k, deadline=deadline
            )
        finally:
            self._lock.release_read()

    @property
    def k_bound(self) -> int:
        return self._k_bound

    @property
    def k_effective(self) -> int:
        with self._lock.reading():
            return self._writes.k_effective

    @property
    def n_regions(self) -> int:
        with self._lock.reading():
            return self._writes.index.n_regions

    def snapshot_stats(self):
        with self._lock.reading():
            return self._writes.index.stats

    # -- writers ----------------------------------------------------------------

    def insert(self, tuple_: RankTuple) -> bool:
        """Add a tuple under exclusive ownership.

        The record reaches the log (append + commit — an fsync on a real
        WAL) *before* the delta buffers the tuple — the commit return is
        the acknowledgement point, so with a durable ``wal`` an
        acknowledged insert survives any later crash."""
        with self._lock.writing():
            self._require_complete_pool()
            self._writes.insert(tuple_)
            self._start_compaction_locked()
            return True

    def delete(self, tid: int) -> int:
        """Remove a tuple; returns the effective bound that remains."""
        with self._lock.writing():
            self._require_complete_pool()
            self._writes.delete(tid)
            self._start_compaction_locked()
            return self._writes.k_effective

    def _require_complete_pool(self) -> None:
        if not self._pool_complete:
            raise MaintenanceError(
                "this wrapper was given a pruned index and no pool=, so "
                "compaction could not see the tuples pruning dropped; pass "
                "pool= (the full live tuple set) or construct it with "
                "ConcurrentRankedJoinIndex.build"
            )

    # -- background compaction --------------------------------------------------

    def _start_compaction_locked(self) -> None:
        """Kick off a background compaction once the write path is due.

        Caller holds the write lock.  The snapshot (live pool copy +
        current WAL position) is taken here, under the lock, so the
        builder thread never touches shared mutable state."""
        writes = self._writes
        if self._compacting or writes.needs_compaction is None:
            return
        self._compacting = True
        worker = threading.Thread(
            target=self._compact_from,
            args=(writes.snapshot(),),
            name="rji-compaction",
            daemon=True,
        )
        self._compaction_thread = worker
        worker.start()

    def _compact_from(self, snapshot: Snapshot) -> None:
        """Build a fresh base from ``snapshot`` and swap it in.

        Runs on the compaction thread.  The build happens outside any
        lock (old readers drain on the old store); the swap takes the
        write lock and is O(1): entries the delta absorbed after the
        snapshot stay buffered, and a build that a :meth:`rebuild`
        overtook is dropped."""
        try:
            writes = self._writes
            fresh = writes.build(snapshot.tuples)
            with self._lock.writing():
                writes.swap(fresh, snapshot)
        finally:
            with self._lock.writing():
                self._compacting = False

    def compact(self) -> None:
        """Synchronously merge the delta into a fresh base index."""
        self.drain_compaction()
        with self._lock.writing():
            writes = self._writes
            if writes.delta.is_empty:
                return
            snapshot = writes.snapshot()
            # Claim the compaction slot before dropping the lock so a
            # concurrent writer cannot start a background run meanwhile.
            self._compacting = True
        self._compact_from(snapshot)

    def drain_compaction(self, timeout: float | None = None) -> bool:
        """Wait for an in-flight background compaction; True when idle."""
        worker = self._compaction_thread
        if worker is not None and worker.is_alive():
            worker.join(timeout)
            return not worker.is_alive()
        return True

    @property
    def delta(self) -> DeltaStore:
        """The live write buffer."""
        with self._lock.reading():
            return self._writes.delta

    @property
    def n_live(self) -> int:
        with self._lock.reading():
            return len(self._writes.pool)

    def rebuild(self, tuples: RankTupleSet | Iterable[RankTuple]) -> None:
        """Replace the underlying index atomically (restores slack).

        The build uses the wrapper's build options, like every
        compaction, and runs *outside* the write lock, so readers keep
        being served from the old index while the replacement is
        constructed; the swap's exclusive section stays O(1).  The given
        tuples become the new live pool and the delta restarts empty
        (an explicit administrative reset, not a logged write); a
        background compaction still building from the old pool is
        dropped at its swap.
        """
        if not isinstance(tuples, RankTupleSet):
            tuples = RankTupleSet.from_tuples(tuples)
        fresh = self._writes.build(tuples)
        with self._lock.writing():
            self._writes.reset(fresh, _as_pool(tuples))
            self._pool_complete = True
