"""The one WAL-then-delta write path every maintained tier composes.

:class:`WritePath` owns the state a logged write touches — the full
live tuple pool, the :class:`~repro.core.delta.DeltaStore`, the current
base index and the write-ahead log — and the only copy of: validate →
append → ``commit()`` (fsync, the acknowledgement point) → apply to
delta and pool → publish; the compaction trigger; and compaction itself
as :meth:`~WritePath.snapshot` → :meth:`~WritePath.build` (reads
nothing mutable, so it may run off-lock or on another thread) →
:meth:`~WritePath.swap`.  docs/RELIABILITY.md, "Durable write path"
and "Read views", carries the ordering and exactness arguments.

One lock per fact.  :attr:`~WritePath.lock` is the one writer lock:
the owning tier holds it around every call that changes state
(:meth:`~WritePath.insert`, :meth:`~WritePath.delete`,
:meth:`~WritePath.snapshot`, :meth:`~WritePath.swap`,
:meth:`~WritePath.reset`, :meth:`~WritePath.compact`).  Readers take
no lock: after every change the writer publishes :attr:`~WritePath.view`
— the base index with a frozen copy of the delta merged in
(:meth:`~repro.core.index.RankedJoinIndex.frozen`) — by one reference
assignment, and a reader dereferences it once per call.

The trigger (:attr:`~WritePath.needs_compaction`) ignores inert
entries, which change no region (Lemma 2), and bounds them by log
length instead.
"""

from __future__ import annotations

import math
import threading
from typing import Any, Callable, Iterable, NamedTuple

from ..errors import MaintenanceError
from ..obs import NULL_RECORDER, Recorder
from .delta import DeltaStore, SupportsWal
from .index import RankedJoinIndex
from .tuples import RankTuple

__all__ = ["MemoryLog", "Snapshot", "TRIGGERS", "WritePath"]

#: Each reason :attr:`WritePath.needs_compaction` gives -> its counter.
TRIGGERS = {
    "charged": "compaction.reason.charged",
    "visible": "compaction.reason.visible",
    "log": "compaction.reason.log",
}


class Snapshot(NamedTuple):
    """What a compaction rebuilds from, and the base it was taken against."""

    tuples: list[RankTuple]
    #: The WAL position the tuples reflect.
    lsn: int
    #: :attr:`WritePath.generation` at the time; a swap refuses any other.
    generation: int


class MemoryLog:
    """The in-memory :class:`SupportsWal`: hands out LSNs, keeps nothing.

    What a tier writes through when no ``wal`` is given: the write path
    is the same, and an acknowledged write is as volatile as the process.
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


class WritePath:
    """Live pool + delta + WAL + compaction policy behind one base index."""

    def __init__(
        self,
        index: RankedJoinIndex,
        pool: dict[int, RankTuple],
        wal: SupportsWal | None = None,
        *,
        threshold: int = 64,
        build_options: dict | None = None,
        recorder: Recorder = NULL_RECORDER,
    ):
        #: The one writer lock (module docstring); reads never take it.
        self.lock = threading.Lock()
        self.wal = wal if wal is not None else MemoryLog()
        self.threshold = max(1, threshold)
        self.k_bound = index.k_bound
        #: Forwarded verbatim to every compaction's RankedJoinIndex.build.
        self.build_options = dict(build_options or {})
        self.recorder = recorder
        #: Duck-typed chaos hook (see repro.faults.inject.arm).
        self.faults: Any = None
        self.delta = DeltaStore()
        #: Bumped by every reset and swap (under :attr:`lock`, like every
        #: field here but :attr:`view`); a Snapshot of another is stale.
        self.generation = 0
        self.reset(index, pool)

    def reset(self, index: RankedJoinIndex, pool: dict[int, RankTuple]) -> None:
        """Adopt ``index`` as the base over exactly ``pool``; empty delta.

        ``pool`` (tid -> tuple, plain ints and floats) is owned from
        here on.  It is the full live set, not just the dominating set:
        tuples K-dominated today can resurface after deletes.
        """
        self.pool = pool
        self.delta.clear()
        self._install(index, self.wal.last_lsn)

    def _install(self, index: RankedJoinIndex, base_lsn: int) -> None:
        index.attach_delta(self.delta)
        self.index = index
        #: The WAL position the base reflects (the log trigger's origin).
        self.base_lsn = base_lsn
        self.generation += 1
        self._publish()

    def _publish(self) -> None:
        #: What every read answers from: the base and the delta's frozen
        #: view, swapped together by this one assignment, so no read
        #: pairs an old base with a delta classified against a new one.
        self.view = self.index.frozen()

    # -- writes ------------------------------------------------------------

    def insert(self, tuple_: RankTuple | tuple) -> None:
        """Log, acknowledge, then buffer one insert."""
        tid, s1, s2 = tuple_
        candidate = RankTuple(int(tid), float(s1), float(s2))
        if candidate.tid in self.pool:
            raise MaintenanceError(f"tuple id {candidate.tid} already live")
        if not (math.isfinite(candidate.s1) and math.isfinite(candidate.s2)):
            raise MaintenanceError("rank values must be finite")
        lsn = self.wal.append_insert(*candidate)
        self._acknowledge()
        self.delta.insert(candidate, lsn)
        self.pool[candidate.tid] = candidate
        self._publish()
        self._count("delta.inserts")

    def delete(self, tid: int) -> None:
        """Log, acknowledge, then tombstone one live tuple."""
        tid = int(tid)
        if tid not in self.pool:
            raise MaintenanceError(f"tuple id {tid} is not live")
        if len(self.pool) == 1:
            raise MaintenanceError(
                "deleting the last live tuple; an index cannot be empty"
            )
        lsn = self.wal.append_delete(tid)
        self._acknowledge()
        self.delta.delete(tid, lsn)
        del self.pool[tid]
        self._publish()
        self._count("delta.deletes")

    def _acknowledge(self) -> None:
        self.wal.commit()
        # Acknowledgement point: the record is durable.  A crash on
        # apply (hook below) must be recovered, never lost.
        if self.faults is not None:
            self.faults.on_durable_apply()

    def _count(self, name: str) -> None:
        if self.recorder.enabled:
            view = self.delta.view()
            self.recorder.count(name)
            self.recorder.observe("delta.size", view.n_ops)
            self.recorder.observe("delta.charged", view.n_charged)
            self.recorder.observe("delta.visible", view.n_visible)

    # -- exactness and the compaction trigger ------------------------------

    @property
    def k_effective(self) -> int:
        """Largest exact ``k`` as of the published :attr:`view`."""
        return self.view.k_effective

    @property
    def needs_compaction(self) -> str | None:
        """Why a rebuild is due now (a :data:`TRIGGERS` key), or ``None``.

        ``"charged"``: charged entries have used up half the exact-merge
        slack, so queries at moderate ``k`` would soon fail validation.
        ``"visible"``: the entries a read merges (charged plus visible)
        reached ``threshold``.  ``"log"``: the log since the base reached
        ``max(threshold, n_live)`` records, which bounds both recovery
        replay and the inert entries buffered meanwhile.
        """
        delta = self.delta.view()
        if delta.n_charged * 2 >= self.k_bound:
            return "charged"
        if delta.n_charged + delta.n_visible >= self.threshold:
            return "visible"
        if self.wal.last_lsn - self.base_lsn >= max(
            self.threshold, len(self.pool)
        ):
            return "log"
        return None

    # -- compaction --------------------------------------------------------

    def snapshot(self) -> Snapshot:
        """The live pool, tid-sorted, the WAL position and base it reflects."""
        return Snapshot(
            sorted(self.pool.values()), self.wal.last_lsn, self.generation
        )

    def build(self, snapshot: Iterable[RankTuple]) -> RankedJoinIndex:
        """A fresh base over ``snapshot``; touches no mutable state."""
        return RankedJoinIndex.build(
            snapshot, self.k_bound, **self.build_options
        )

    def swap(self, fresh: RankedJoinIndex, snapshot: Snapshot) -> None:
        """Make ``fresh`` the base; keep writes newer than the snapshot.

        The survivors are re-classified against ``fresh``'s dominating
        set: a post-snapshot delete of a tuple the snapshot baked in is
        charged from here on.  A build from a snapshot whose base has
        since been replaced (a :meth:`reset` while it ran) describes a
        discarded pool and is dropped.  LSNs cannot tell — a reset with
        no write after it leaves the snapshot's LSN current.  Readers
        keep the old view until :meth:`_install` publishes the new pair.
        """
        if snapshot.generation != self.generation:
            return
        self.delta.clear_upto(snapshot.lsn)
        self._install(fresh, snapshot.lsn)

    def compact(
        self,
        persist: Callable[[RankedJoinIndex, list[RankTuple]], None]
        | None = None,
    ) -> None:
        """snapshot → build → ``persist(fresh, snapshot)`` → swap."""
        snapshot = self.snapshot()
        fresh = self.build(snapshot.tuples)
        if persist is not None:
            persist(fresh, snapshot.tuples)
        self.swap(fresh, snapshot)
