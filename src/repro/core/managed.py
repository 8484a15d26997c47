"""A managed index: a live tuple pool, a write buffer and compaction.

:class:`ManagedRankedJoinIndex` composes one
:class:`~repro.core.writepath.WritePath`: inserts and deletes are logged,
buffered in a :class:`~repro.core.delta.DeltaStore` every query merges
exactly, and folded into a fresh base index over the live pool once the
write path says compaction is due — inline, on the writing thread.
Reads answer from the write path's published view and take no lock;
writes (and the compactions they trigger) hold its one writer lock, so
a served managed index may take writes on several connections.

Correctness note on deletions: a delete that hides an indexed tuple
lowers ``k_effective`` by one until the next compaction; deleting a
K-dominated tuple changes nothing (Lemma 2; see
:mod:`repro.core.delta`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from ..errors import MaintenanceError
from .deadline import DeadlineLike
from .delta import DeltaView, SupportsWal
from .index import QueryResult, RankedJoinIndex
from .scoring import PreferenceLike
from .tuples import RankTuple, RankTupleSet
from .writepath import WritePath

__all__ = ["MaintenanceLog", "ManagedRankedJoinIndex"]


@dataclass
class MaintenanceLog:
    """Lifetime counters of a managed index."""

    inserts_applied: int = 0
    deletes: int = 0
    rebuilds: int = 0
    events: list[str] = field(default_factory=list)


class ManagedRankedJoinIndex:
    """Index + tuple pool + compaction once the write buffer is due."""

    def __init__(
        self,
        tuples: RankTupleSet | Iterable[RankTuple],
        k: int,
        *,
        wal: SupportsWal | None = None,
        delta_threshold: int = 64,
        **build_options,
    ):
        # build_options are forwarded verbatim to RankedJoinIndex.build
        # on the initial build AND every compaction, so construction
        # tuning (variant=, merge_slack=, ...) sticks for
        # the lifetime of the managed index.  ``wal`` is any SupportsWal
        # (in practice repro.storage.wal.WriteAheadLog); omitted, writes
        # go through an in-memory log and are as volatile as the process.
        if not isinstance(tuples, RankTupleSet):
            tuples = RankTupleSet.from_tuples(tuples)
        self.k_bound = k
        self.log = MaintenanceLog()
        self._writes = WritePath(
            RankedJoinIndex.build(tuples, k, **build_options),
            {t.tid: t for t in tuples},
            wal,
            threshold=delta_threshold,
            build_options=build_options,
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
    def k_effective(self) -> int:
        return self._writes.k_effective

    @property
    def n_live(self) -> int:
        """Number of live tuples in the pool."""
        return len(self._writes.pool)

    @property
    def index(self) -> RankedJoinIndex:
        """The published read view: the base index, the delta merged in."""
        return self._writes.view

    @property
    def delta(self) -> DeltaView:
        """The write buffer as the published read view merges it."""
        return self._writes.view.delta  # type: ignore[return-value]

    # -- maintenance -------------------------------------------------------

    def insert(self, tuple_: RankTuple) -> bool:
        """Add a tuple; always ``True`` (the write is buffered).

        The record is committed to the log *before* any in-memory state
        changes; the delta buffers the tuple and every query merges it.
        """
        with self._writes.lock:
            self._writes.insert(tuple_)
            self.log.inserts_applied += 1
            if self._writes.needs_compaction:
                self._compact("compact")
        return True

    def delete(self, tid: int) -> int:
        """Remove a tuple; returns the effective bound that remains.

        The same contract as
        :meth:`repro.core.concurrent.ConcurrentRankedJoinIndex.delete`,
        so callers can watch the guarantee degrade without a second
        call.
        """
        with self._writes.lock:
            self._writes.delete(tid)
            self.log.deletes += 1
            if self._writes.needs_compaction:
                self._compact("compact")
            return self.k_effective

    def compact(self) -> None:
        """Merge the delta into a fresh base index and start it empty.

        The managed index keeps no durable snapshot of its own, so the
        log is *not* checkpointed here — replaying the full log over the
        original tuple set reconstructs this state after a crash.
        Durable checkpoint/prune lives in
        :class:`repro.storage.durable.DurableRankedJoinIndex`.
        """
        with self._writes.lock:
            self._compact("compact")

    def rebuild(self, *, reason: str = "requested") -> None:
        """Rebuild the index from the live pool, restoring full slack."""
        with self._writes.lock:
            self._compact(f"rebuild ({reason})")

    def _compact(self, event: str) -> None:
        """Caller holds the writer lock."""
        self._writes.compact()
        self.log.rebuilds += 1
        self.log.events.append(f"{event}; pool={self.n_live}")

    def check_invariants(self) -> None:
        """Index structure valid and every indexed tuple is live.

        A base tuple may be dead *if* a tombstone hides it — the delta
        is part of the logical state — and every buffered insert must
        be live."""
        writes = self._writes
        index, delta, live = writes.index, writes.delta, writes.pool
        index.check_invariants()
        for tid in index.dominating.tids.tolist():
            if tid not in live and not delta.tombstoned(tid):
                raise MaintenanceError(
                    f"indexed tuple {tid} is not in the live pool"
                )
        for pending in delta.pending_inserts():
            if pending.tid not in live:
                raise MaintenanceError(
                    f"buffered insert {pending.tid} is not in the live pool"
                )
