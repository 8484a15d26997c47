"""One writable Ranked Join Index: a log, a write buffer, one schedule.

:class:`WritableRankedJoinIndex` owns the state a logged write touches
(the full live tuple pool, the :class:`~repro.core.delta.DeltaStore`,
the base index and the log) and the only copy of: validate → append →
``commit()`` (the acknowledgement point) → apply to delta and pool →
publish; the compaction trigger; and compaction.  ``build`` makes one
over a tuple set and the constructor adopts a built index and its live
pool; either writes through ``wal`` (:class:`MemoryLog` if omitted).
The one subclass, :class:`repro.storage.durable.DurableRankedJoinIndex`,
adds a directory, a write-ahead log and the persist step.

Two locks, one order.  :attr:`~WritableRankedJoinIndex.lock` is the one
writer lock: every change of state holds it.  Readers take no lock:
after every change the writer publishes
:attr:`~WritableRankedJoinIndex.view` (the base with a frozen copy of
the delta merged in) by one reference assignment.  A second lock admits
one compaction at a time and is always taken before the writer lock.

One compaction schedule for every log, run on the thread that asks for
it (there is no background thread): (1) under the writer lock, take the
:class:`Snapshot`; (2) with it released, build, while other writers and
every reader carry on; (3) under the writer lock again, persist (a
no-op in memory), then swap.  A write that finds compaction due
tries the compaction lock without blocking, so no writer waits for
another's build; :meth:`~WritableRankedJoinIndex.compact` waits for it.
docs/RELIABILITY.md, "Durable write path" and "Read views", carries the
ordering and exactness arguments.
"""

from __future__ import annotations

import math
import threading
import time
from typing import Any, Iterable, NamedTuple, Sequence

from ..errors import MaintenanceError
from ..obs import NULL_RECORDER, QueryExplain
from .deadline import DeadlineLike
from .delta import DeltaStore, DeltaView, SupportsWal
from .index import QueryResult, RankedJoinIndex
from .scoring import PreferenceLike
from .tuples import RankTuple, RankTupleSet

__all__ = [
    "MemoryLog",
    "Snapshot",
    "TRIGGERS",
    "WritableRankedJoinIndex",
    "as_pool",
]

#: Each reason a write-triggered compaction gives -> its counter.
TRIGGERS = {
    "charged": "compaction.reason.charged",
    "visible": "compaction.reason.visible",
    "log": "compaction.reason.log",
}


class Snapshot(NamedTuple):
    """What a compaction builds from, and the base it was taken against."""

    tuples: list[RankTuple]
    #: The log position the tuples reflect.
    lsn: int
    #: The base generation at the time; a swap refuses any other.
    generation: int


class MemoryLog:
    """The in-memory :class:`SupportsWal`: hands out LSNs, keeps nothing.

    What an index writes through when no ``wal`` is given: the write
    path is the same, and an acknowledged write is as volatile as the
    process.
    """

    def __init__(self) -> None:
        self.last_lsn = 0

    def append_insert(self, tid: int, s1: float, s2: float) -> int:
        self.last_lsn += 1
        return self.last_lsn

    def append_delete(self, tid: int) -> int:
        self.last_lsn += 1
        return self.last_lsn

    def commit(self) -> int:
        return self.last_lsn


def as_pool(tuples: Iterable[RankTuple]) -> dict[int, RankTuple]:
    """A live pool (tid -> tuple, plain ints and floats) from ``tuples``."""
    return {
        int(t.tid): RankTuple(int(t.tid), float(t.s1), float(t.s2))
        for t in tuples
    }


class WritableRankedJoinIndex:
    """Lock-free reads, logged writes, one compaction schedule.

    The constructor adopts a built ``index`` and ``pool``, the full
    live set it was built from (:func:`as_pool`; owned from here on),
    not just the dominating set: tuples K-dominated today can resurface
    after deletes.  ``build_options`` are forwarded verbatim to every
    compaction's :meth:`RankedJoinIndex.build`; their ``recorder`` also
    records writes and compactions.
    """

    def __init__(
        self,
        index: RankedJoinIndex,
        pool: dict[int, RankTuple],
        wal: SupportsWal | None = None,
        *,
        compaction_threshold: int = 64,
        build_options: dict | None = None,
    ):
        #: The one writer lock (module docstring); reads never take it.
        self.lock = threading.Lock()
        self._compaction = threading.Lock()
        self.wal = wal if wal is not None else MemoryLog()
        self.compaction_threshold = max(1, compaction_threshold)
        self.k_bound = index.k_bound
        self.build_options = dict(build_options or {})
        self.recorder = self.build_options.get("recorder", NULL_RECORDER)
        #: Duck-typed chaos hook (see repro.faults.inject.arm).
        self.faults: Any = None
        #: Wall time of each compaction that swapped, snapshot to swap.
        self.compaction_pauses: list[float] = []
        self._delta = DeltaStore()
        self._generation = 0
        with self.lock:
            self._pool = pool
            self._install(index, self.wal.last_lsn)

    @classmethod
    def build(
        cls,
        tuples: RankTupleSet | Iterable[RankTuple],
        k: int,
        *,
        wal: SupportsWal | None = None,
        compaction_threshold: int = 64,
        **build_options,
    ) -> "WritableRankedJoinIndex":
        """Build the base over ``tuples``, which become the live pool;
        ``build_options`` (``variant=``, ``recorder=``, ...) stick for
        every compaction and :meth:`rebuild`."""
        if not isinstance(tuples, RankTupleSet):
            tuples = RankTupleSet.from_tuples(tuples)
        return cls(
            RankedJoinIndex.build(tuples, k, **build_options),
            as_pool(tuples),
            wal,
            compaction_threshold=compaction_threshold,
            build_options=build_options,
        )

    # -- reads (no lock: one read of the published view each) -------------

    def query(
        self,
        preference: PreferenceLike,
        k: int,
        *,
        deadline: DeadlineLike = None,
    ) -> list[QueryResult]:
        """Top-k over the live tuples; ``deadline`` (a
        :class:`~repro.core.deadline.Deadline` or seconds) covers the
        query, raising :class:`~repro.errors.QueryTimeoutError` past it."""
        return self.view.query(preference, k, deadline=deadline)

    def query_batch(
        self,
        preferences: Sequence[PreferenceLike],
        k: int,
        *,
        deadline: DeadlineLike = None,
    ) -> list[list[QueryResult]]:
        return self.view.query_batch(preferences, k, deadline=deadline)

    def explain(
        self, preference: PreferenceLike, k: int, *, record: bool = True
    ) -> QueryExplain:
        return self.view.explain(preference, k, record=record)

    @property
    def k_effective(self) -> int:
        """Largest exact ``k`` now (charged delta entries consume slack)."""
        return self.view.k_effective

    @property
    def delta(self) -> DeltaView:
        """The write buffer as the published read view merges it."""
        return self.view.delta  # type: ignore[return-value]

    @property
    def index(self) -> RankedJoinIndex:
        """The published read view: the base index, the delta merged in."""
        return self.view

    @property
    def n_regions(self) -> int:
        return self.view.n_regions

    def live_tuples(self) -> list[RankTuple]:
        """The full live pool, tid-sorted, copied under the writer lock."""
        with self.lock:
            return sorted(self._pool.values())

    # -- writes ------------------------------------------------------------

    def insert(self, tuple_: RankTuple | tuple) -> bool:
        """Log, acknowledge, then buffer one insert; always ``True``.

        The commit (an fsync on a real WAL) returns before any in-memory
        state changes: it is the acknowledgement point."""
        tid, s1, s2 = tuple_
        candidate = RankTuple(int(tid), float(s1), float(s2))
        with self.lock:
            if candidate.tid in self._pool:
                raise MaintenanceError(f"tuple id {candidate.tid} already live")
            if not (math.isfinite(candidate.s1) and math.isfinite(candidate.s2)):
                raise MaintenanceError("rank values must be finite")
            lsn = self.wal.append_insert(*candidate)
            self._acknowledge()
            self._delta.insert(candidate, lsn)
            self._pool[candidate.tid] = candidate
            due = self._applied("delta.inserts")
        if due:
            self._compact(None, wait=False)
        return True

    def delete(self, tid: int) -> int:
        """Log, acknowledge, then tombstone one live tuple; returns the
        effective bound that remains."""
        tid = int(tid)
        with self.lock:
            if tid not in self._pool:
                raise MaintenanceError(f"tuple id {tid} is not live")
            if len(self._pool) == 1:
                raise MaintenanceError(
                    "deleting the last live tuple; an index cannot be empty"
                )
            lsn = self.wal.append_delete(tid)
            self._acknowledge()
            self._delta.delete(tid, lsn)
            del self._pool[tid]
            due = self._applied("delta.deletes")
        if due:
            self._compact(None, wait=False)
        return self.k_effective

    def _acknowledge(self) -> None:
        self.wal.commit()
        # Acknowledgement point: the record is durable.  A crash on
        # apply (hook below) must be recovered, never lost.
        if self.faults is not None:
            self.faults.on_durable_apply()

    def _publish(self) -> None:
        #: What every read answers from: the base and the delta's frozen
        #: view, swapped together by this one assignment, so no read
        #: pairs an old base with a delta classified against a new one.
        self.view = self._base.frozen()
        self.n_live = len(self._pool)

    def _applied(self, counter: str) -> bool:
        """Publish the write just applied; whether compaction is now due."""
        self._publish()
        if self.recorder.enabled:
            view = self._delta.view()
            self.recorder.count(counter)
            self.recorder.observe("delta.size", view.n_ops)
            self.recorder.observe("delta.charged", view.n_charged)
            self.recorder.observe("delta.visible", view.n_visible)
        return self._compaction_due() is not None

    # -- compaction --------------------------------------------------------

    def _compaction_due(self) -> str | None:
        """Why a rebuild is due now (a :data:`TRIGGERS` key), or ``None``.

        ``"charged"``: charged entries have used up half the exact-merge
        slack, so queries at moderate ``k`` would soon fail validation.
        ``"visible"``: the entries a read merges (charged plus visible)
        reached ``compaction_threshold``.  ``"log"``: the log since the
        base reached ``max(compaction_threshold, n_live)`` records, which
        bounds both recovery replay and the inert entries (Lemma 2)
        buffered meanwhile.
        """
        delta = self._delta.view()
        if delta.n_charged * 2 >= self.k_bound:
            return "charged"
        if delta.n_charged + delta.n_visible >= self.compaction_threshold:
            return "visible"
        if self.wal.last_lsn - self._base_lsn >= max(
            self.compaction_threshold, len(self._pool)
        ):
            return "log"
        return None

    def compact(self) -> None:
        """Fold the delta into a fresh base now, whatever it holds.

        Waits for a build already in flight, then runs the schedule;
        a durable index also advances its checkpoint.
        """
        self._compact("requested", wait=True)

    def _compact(self, reason: str | None, *, wait: bool) -> None:
        """snapshot → build (no writer lock) → persist → swap.

        ``reason=None`` compacts only if still due.  A writer passes
        ``wait=False``: another thread's build in flight will keep its
        write buffered, and a later write compacts.
        """
        if not self._compaction.acquire(blocking=wait):
            return
        try:
            started = time.perf_counter()
            with self.lock:
                reason = reason or self._compaction_due()
                if reason is None:
                    return
                self._chaos_step()  # boundary 0: before anything
                snapshot = Snapshot(
                    sorted(self._pool.values()),
                    self.wal.last_lsn,
                    self._generation,
                )
            with self.recorder.span("compaction", {"reason": reason}):
                self.recorder.count("compaction.runs")
                if reason in TRIGGERS:
                    self.recorder.count(TRIGGERS[reason])
                fresh = self._build(snapshot.tuples)
                with self.lock:
                    swapped = self._swap(fresh, snapshot)
            if swapped:
                self.compaction_pauses.append(time.perf_counter() - started)
        finally:
            self._compaction.release()

    def _build(self, tuples: Iterable[RankTuple]) -> RankedJoinIndex:
        """A fresh base over ``tuples``; touches no mutable state."""
        return RankedJoinIndex.build(tuples, self.k_bound, **self.build_options)

    def _swap(
        self,
        fresh: RankedJoinIndex,
        snapshot: Snapshot,
        pool: dict[int, RankTuple] | None = None,
    ) -> bool:
        """Persist ``fresh``, then make it the base; keep newer writes.

        The caller holds the writer lock.  Delta entries newer than the
        snapshot survive, re-classified against ``fresh``.  A build whose
        base a :meth:`rebuild` replaced meanwhile (which LSNs cannot
        tell) is dropped before it persists anything.  ``pool`` replaces
        the live set (a rebuild).
        """
        if snapshot.generation != self._generation:
            return False
        self._persist(fresh, snapshot)
        if pool is not None:
            self._pool = pool
        self._delta.clear_upto(snapshot.lsn)
        self._install(fresh, snapshot.lsn)
        return True

    def _persist(self, fresh: RankedJoinIndex, snapshot: Snapshot) -> None:
        """Make a built base durable before its swap; in memory, nothing."""

    def _install(self, base: RankedJoinIndex, base_lsn: int) -> None:
        base.attach_delta(self._delta)
        self._base = base
        #: The log position the base reflects (the log trigger's origin).
        self._base_lsn = base_lsn
        self._generation += 1
        self._publish()

    def _chaos_step(self) -> None:
        if self.faults is not None:
            self.faults.on_compaction()

    def rebuild(self, tuples: Iterable[RankTuple]) -> None:
        """Replace the live set with ``tuples``; the delta restarts empty.

        An administrative reset, not a logged write: built like every
        compaction, off every lock, then persisted and swapped in under
        the writer lock.  A compaction still building from the old pool
        is dropped at its swap.
        """
        pool = as_pool(tuples)
        ordered = sorted(pool.values())
        fresh = self._build(ordered)
        with self.lock:
            snapshot = Snapshot(ordered, self.wal.last_lsn, self._generation)
            self._swap(fresh, snapshot, pool)

    def check_invariants(self) -> None:
        """Index structure valid; every indexed tuple is live or
        tombstoned, and every buffered insert is live."""
        with self.lock:
            self._base.check_invariants()
            for tid in self._base.dominating.tids.tolist():
                if tid not in self._pool and not self._delta.tombstoned(tid):
                    raise MaintenanceError(
                        f"indexed tuple {tid} is not in the live pool"
                    )
            for pending in self._delta.pending_inserts():
                if pending.tid not in self._pool:
                    raise MaintenanceError(
                        f"buffered insert {pending.tid} is not in the live pool"
                    )

