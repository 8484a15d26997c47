"""A thread-safe facade over a maintained Ranked Join Index.

The core index is a plain in-memory structure and the write path that
maintains it is not thread-safe by itself.
:class:`ConcurrentRankedJoinIndex` serves any number of query threads
while inserts, deletes and compactions proceed: readers take no lock —
each call answers from the read view the write path last published
(:attr:`~repro.core.writepath.WritePath.view`) — and writers serialize
on the write path's one writer lock.  Only writers ever wait, and only
for each other; a background thread builds compactions off that lock.

Queries optionally take a ``deadline`` (a
:class:`~repro.core.deadline.Deadline` or seconds) that the wrapped
query checks cooperatively, raising
:class:`~repro.errors.QueryTimeoutError` once exceeded; a read never
waits for a lock, so nothing else consumes it.
"""

from __future__ import annotations

import threading
from typing import Iterable, Sequence

from ..errors import MaintenanceError
from .deadline import DeadlineLike
from .delta import DeltaView, SupportsWal
from .index import QueryResult, RankedJoinIndex
from .scoring import PreferenceLike
from .tuples import RankTuple, RankTupleSet
from .writepath import Snapshot, WritePath

__all__ = ["ConcurrentRankedJoinIndex"]


def _as_pool(tuples: Iterable[RankTuple]) -> dict[int, RankTuple]:
    return {
        int(t.tid): RankTuple(int(t.tid), float(t.s1), float(t.s2))
        for t in tuples
    }


class ConcurrentRankedJoinIndex:
    """Lock-free reads, serialized writes, background compaction."""

    def __init__(
        self,
        index: RankedJoinIndex,
        *,
        wal: SupportsWal | None = None,
        delta_threshold: int = 64,
        pool: Iterable[RankTuple] | None = None,
        build_options: dict | None = None,
    ):
        # Writes go through one WritePath (commit to the log — an
        # in-memory one when ``wal`` is omitted — then land in a
        # DeltaStore merged by every query), and a *background* thread
        # compacts the delta into a fresh base once WritePath says it is
        # due — readers keep answering from the published view while
        # the replacement builds; only the snapshot and the swap take
        # the writer lock.  ``pool`` seeds the full live tuple set
        # compaction rebuilds from; it defaults to the index's
        # dominating set, which is only complete when pruning dropped
        # nothing — a bare wrapper over a pruned index serves reads and
        # refuses writes.
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

    # -- readers (no lock: one read of the published view each) ----------

    def query(
        self,
        preference: PreferenceLike,
        k: int,
        *,
        deadline: DeadlineLike = None,
    ) -> list[QueryResult]:
        """Top-k under ``preference``; ``deadline`` (a
        :class:`~repro.core.deadline.Deadline` or seconds) covers the
        query, raising :class:`~repro.errors.QueryTimeoutError` once
        exceeded."""
        return self._writes.view.query(preference, k, deadline=deadline)

    def query_batch(
        self,
        preferences: Sequence[PreferenceLike],
        k: int,
        *,
        deadline: DeadlineLike = None,
    ) -> list[list[QueryResult]]:
        return self._writes.view.query_batch(preferences, k, deadline=deadline)

    @property
    def k_bound(self) -> int:
        return self._writes.k_bound

    @property
    def k_effective(self) -> int:
        return self._writes.k_effective

    @property
    def n_regions(self) -> int:
        return self._writes.view.n_regions

    # -- writers ----------------------------------------------------------------

    def insert(self, tuple_: RankTuple) -> bool:
        """Add a tuple under the writer lock.

        The record reaches the log (append + commit — an fsync on a real
        WAL) *before* the delta buffers the tuple — the commit return is
        the acknowledgement point, so with a durable ``wal`` an
        acknowledged insert survives any later crash."""
        with self._writes.lock:
            self._require_complete_pool()
            self._writes.insert(tuple_)
            self._start_compaction_locked()
            return True

    def delete(self, tid: int) -> int:
        """Remove a tuple; returns the effective bound that remains."""
        with self._writes.lock:
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

        Caller holds the writer lock.  The snapshot (live pool copy +
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
        lock (readers keep the published view); the swap takes the
        writer lock: entries the delta absorbed after the snapshot stay
        buffered, and a build that a :meth:`rebuild` overtook is
        dropped."""
        writes = self._writes
        try:
            fresh = writes.build(snapshot.tuples)
            with writes.lock:
                writes.swap(fresh, snapshot)
        finally:
            with writes.lock:
                self._compacting = False

    def compact(self) -> None:
        """Synchronously merge the delta into a fresh base index."""
        self.drain_compaction()
        writes = self._writes
        with writes.lock:
            if writes.delta.view().is_empty:
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
    def delta(self) -> DeltaView:
        """The write buffer as the published read view merges it."""
        return self._writes.view.delta  # type: ignore[return-value]

    @property
    def n_live(self) -> int:
        return len(self._writes.pool)

    def rebuild(self, tuples: RankTupleSet | Iterable[RankTuple]) -> None:
        """Replace the underlying index atomically (restores slack).

        The build uses the wrapper's build options, like every
        compaction, and runs *outside* the writer lock, so readers keep
        being served from the old index while the replacement is
        constructed.  The given tuples become the new live pool and the
        delta restarts empty (an explicit administrative reset, not a
        logged write); a background compaction still building from the
        old pool is dropped at its swap.
        """
        if not isinstance(tuples, RankTupleSet):
            tuples = RankTupleSet.from_tuples(tuples)
        fresh = self._writes.build(tuples)
        with self._writes.lock:
            self._writes.reset(fresh, _as_pool(tuples))
            self._pool_complete = True
