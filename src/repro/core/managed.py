"""A managed index: maintenance plus an automatic rebuild policy.

:class:`ManagedRankedJoinIndex` owns the full live tuple pool alongside
the index, applies inserts/deletes through
:mod:`repro.core.maintenance`, and rebuilds from the pool once lazy
deletions have eaten the guarantee down to a configurable floor — the
build-fast/degrade-slowly lifecycle a deployment would actually run.

Correctness note on deletions: deleting an indexed tuple lowers
``k_effective`` by one (see :mod:`repro.core.maintenance`); deleting a
pool tuple that was K-dominated changes nothing — after ``r`` deletions
it is still dominated by at least ``K - r`` live tuples, so it can never
enter a top-(K-r) answer, which is exactly the degraded guarantee.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from ..errors import MaintenanceError
from .deadline import DeadlineLike
from .delta import DeltaStore, SupportsWal
from .index import QueryResult, RankedJoinIndex
from .maintenance import delete_tuple, insert_tuple
from .scoring import PreferenceLike
from .tuples import RankTuple, RankTupleSet
from .writepath import WritePath

__all__ = ["MaintenanceLog", "ManagedRankedJoinIndex"]


@dataclass
class MaintenanceLog:
    """Lifetime counters of a managed index."""

    inserts_applied: int = 0
    inserts_pruned: int = 0
    deletes: int = 0
    rebuilds: int = 0
    events: list[str] = field(default_factory=list)


class ManagedRankedJoinIndex:
    """Index + tuple pool + auto-rebuild once the guarantee degrades."""

    def __init__(
        self,
        tuples: RankTupleSet | Iterable[RankTuple],
        k: int,
        *,
        min_effective_k: int | None = None,
        wal: SupportsWal | None = None,
        delta_threshold: int = 64,
        **build_options,
    ):
        # build_options are forwarded verbatim to RankedJoinIndex.build
        # on the initial build AND every auto-rebuild, so construction
        # tuning (workers=, block_rows=, merge_slack=, ...) sticks for
        # the lifetime of the managed index.
        if not isinstance(tuples, RankTupleSet):
            tuples = RankTupleSet.from_tuples(tuples)
        self.k_bound = k
        self._build_options = dict(build_options)
        self.min_effective_k = (
            min_effective_k
            if min_effective_k is not None
            else max(1, math.ceil(k / 2))
        )
        if not 1 <= self.min_effective_k <= k:
            raise MaintenanceError(
                f"min_effective_k must be in [1, {k}], got {self.min_effective_k}"
            )
        self.log = MaintenanceLog()
        self._index = RankedJoinIndex.build(tuples, k, **build_options)
        # WAL-then-delta mode (wal= is any SupportsWal, in practice
        # repro.storage.wal.WriteAheadLog): the WritePath owns the live
        # pool and the delta, and the base store stays immutable until
        # compact().  Without a wal this object owns the pool and the
        # classic in-place maintenance path is unchanged.
        pool = {t.tid: t for t in tuples}
        self._pool: dict[int, RankTuple] = pool if wal is None else {}
        self._writes = (
            None
            if wal is None
            else WritePath(
                self._index,
                pool,
                wal,
                threshold=delta_threshold,
                build_options=build_options,
            )
        )

    # -- queries -----------------------------------------------------------

    def query(
        self,
        preference: PreferenceLike,
        k: int,
        *,
        deadline: DeadlineLike = None,
    ) -> list[QueryResult]:
        """Top-k over the current live population.

        ``deadline`` (a :class:`~repro.core.deadline.Deadline` or
        seconds) arms a cooperative per-query deadline;
        :class:`~repro.errors.QueryTimeoutError` is raised past it.
        """
        return self._index.query(preference, k, deadline=deadline)

    def query_batch(
        self,
        preferences: Sequence[PreferenceLike],
        k: int,
        *,
        deadline: DeadlineLike = None,
    ) -> list[list[QueryResult]]:
        return self._index.query_batch(preferences, k, deadline=deadline)

    @property
    def k_effective(self) -> int:
        if self._writes is not None:
            return self._writes.k_effective
        return self._index.k_effective

    @property
    def _live(self) -> dict[int, RankTuple]:
        return self._pool if self._writes is None else self._writes.pool

    @property
    def n_live(self) -> int:
        """Number of live tuples in the pool."""
        return len(self._live)

    @property
    def index(self) -> RankedJoinIndex:
        """The currently active underlying index."""
        return self._index

    @property
    def delta(self) -> DeltaStore | None:
        """The live write buffer (``None`` outside WAL mode)."""
        return None if self._writes is None else self._writes.delta

    # -- maintenance -------------------------------------------------------

    def insert(self, tuple_: RankTuple) -> bool:
        """Add a tuple; returns whether the index itself changed.

        In WAL mode the records are committed to the log *before* any
        in-memory state changes; the delta buffers the tuple and every
        query merges it, so the return value is always ``True``.
        """
        if self._writes is not None:
            self._writes.insert(tuple_)
            self.log.inserts_applied += 1
            if self._writes.needs_compaction:
                self.compact()
            return True
        tid = int(tuple_.tid)
        if tid in self._pool:
            raise MaintenanceError(f"tuple id {tid} already live")
        # insert_tuple validates before it mutates, so a rejected tuple
        # never reaches the pool the next rebuild() reads.
        changed = insert_tuple(self._index, tuple_)
        self._pool[tid] = tuple_
        if changed:
            self.log.inserts_applied += 1
        else:
            self.log.inserts_pruned += 1
        return changed

    def delete(self, tid: int) -> int:
        """Remove a tuple; returns the effective bound that remains.

        Both maintenance modes return the post-delete ``k_effective`` —
        the same contract as
        :meth:`repro.core.concurrent.ConcurrentRankedJoinIndex.delete` —
        so callers can watch the guarantee degrade without a second
        call.
        """
        if self._writes is not None:
            self._writes.delete(tid)
            self.log.deletes += 1
            if self._writes.needs_compaction:
                self.compact()
            return self.k_effective
        tid = int(tid)
        if tid not in self._pool:
            raise MaintenanceError(f"tuple id {tid} is not live")
        del self._pool[tid]
        self.log.deletes += 1
        if tid in self._index._position_of:
            delete_tuple(self._index, tid)
        if self._index.k_effective < self.min_effective_k:
            self.rebuild(reason="effective bound fell below the floor")
        return self.k_effective

    def compact(self) -> None:
        """Merge the delta into a fresh base index and start it empty.

        The managed index keeps no durable snapshot of its own, so the
        WAL is *not* checkpointed here — replaying the full log over the
        original tuple set reconstructs this state after a crash.
        Durable checkpoint/prune lives in
        :class:`repro.storage.durable.DurableRankedJoinIndex`.
        """
        if self._writes is not None:
            self._adopt(self._writes.compact(), "compact")

    def rebuild(self, *, reason: str = "requested") -> None:
        """Rebuild the index from the live pool, restoring full slack."""
        if self._writes is not None:
            fresh = self._writes.compact()
        else:
            fresh = RankedJoinIndex.build(
                RankTupleSet.from_tuples(self._pool.values()),
                self.k_bound,
                **self._build_options,
            )
        self._adopt(fresh, f"rebuild ({reason})")

    def _adopt(self, fresh: RankedJoinIndex, event: str) -> None:
        self._index = fresh
        self.log.rebuilds += 1
        self.log.events.append(f"{event}; pool={self.n_live}")

    def check_invariants(self) -> None:
        """Index structure valid and every indexed tuple is live.

        In WAL mode a base tuple may be dead *if* a tombstone hides it —
        the delta is part of the logical state — and every buffered
        insert must be live."""
        self._index.check_invariants()
        delta, live = self.delta, self._live
        for tid in self._index.dominating.tids:
            tid = int(tid)
            if tid not in live and (
                delta is None or not delta.tombstoned(tid)
            ):
                raise MaintenanceError(
                    f"indexed tuple {tid} is not in the live pool"
                )
        if delta is not None:
            for pending in delta.pending_inserts():
                if pending.tid not in live:
                    raise MaintenanceError(
                        f"buffered insert {pending.tid} is not in the live pool"
                    )
