"""The delta store: a write buffer that queries merge *exactly*.

The paper defers incremental maintenance to future work.  The
LSM-flavored answer implemented here buffers writes in a
:class:`DeltaStore` — pending inserts keyed by tuple id plus delete
tombstones — and lets :meth:`RankedJoinIndex.query
<repro.core.index.RankedJoinIndex.query>` merge the buffer into every
answer, so the immutable base index keeps serving while writers only
touch the (tiny) delta.

Exactness argument.  Attaching the delta to a base (:meth:`DeltaStore.
rebase`) hands it the base's dominating set ``D``, and every entry is
classified once, when it is written, replayed or rebased (the paper's
Lemma 2 applied to the buffer): a tombstone or superseding insert is
*charged* iff its tid is in ``D`` — only then does it hide a base row —
and a buffered insert is *visible* unless at least ``K`` tuples of ``D``
are strictly greater in both rank values, in which case those ``K``
outrank it at every angle (the endpoints 0 and π/2 included) whatever
the tid tie-break says.  A query is answered from one base region's
rows minus the charged tids, plus the visible inserts.  A live base
tuple outside those rows is beaten at that angle by the region's ``K``
rows, of which at most ``charged`` are hidden; an invisible insert is
beaten by ``K`` tuples of ``D``, of which at most ``charged`` are
hidden.  Hence for ``k + charged <= K_effective`` the top-``k`` of
``(rows \\ charged) ∪ visible`` is the top-``k`` of the live set — the
precondition :meth:`DeltaView.check_k` enforces; past it the query
raises a typed error and the owner must compact.  A delta not
yet attached to any base knows no ``D`` and stays conservative: every
entry is charged and every insert visible.

An entry neither charged nor visible is *inert*: it changes no region
and no admitted answer, so the owner's compaction trigger
(:class:`repro.core.writepath.WritableRankedJoinIndex`) ignores it.

Entries are tagged with the WAL log-sequence-number that produced them
so a compaction that rebuilds the base from a snapshot at LSN ``n`` can
:meth:`~DeltaStore.clear_upto` ``n`` and keep serving the writes that
arrived while the rebuild ran.

Reads never look at the mutable store: they merge its :class:`DeltaView`,
an immutable copy of the charged tids and visible inserts taken by
:meth:`DeltaStore.view`.  A writer that publishes a fresh view after each
change lets any number of readers merge the old one without a lock.
"""

from __future__ import annotations

import math
from typing import Container, Iterable, Iterator, Protocol, runtime_checkable

import numpy as np

from ..errors import InvalidQueryError, MaintenanceError
from .tuples import RankTuple

__all__ = ["NO_DELTA", "DeltaStore", "DeltaView", "SupportsWal"]


@runtime_checkable
class SupportsWal(Protocol):
    """The write-ahead-log surface the core write path relies on.

    ``core`` may not import ``storage`` (RJI001), so the writable index
    accepts any object with this duck-typed shape —
    in practice :class:`repro.storage.wal.WriteAheadLog`, or a test
    double.  ``commit()`` is the acknowledgement point: a write may only
    be applied to the in-memory delta after its records are durable.
    """

    def append_insert(self, tid: int, s1: float, s2: float) -> int: ...

    def append_delete(self, tid: int) -> int: ...

    def commit(self) -> int: ...

    @property
    def last_lsn(self) -> int: ...


class DeltaView:
    """What a read merges, frozen: charged tids and visible inserts.

    Immutable once built, hence shared by readers without a lock.  It
    carries the one ``k``-bound check (:meth:`check_k`) and the one
    merge (:meth:`merged_scored`) of every query path, memory and disk
    alike.
    """

    def __init__(
        self,
        charged: frozenset[int] = frozenset(),
        visible: dict[int, RankTuple] | None = None,
        *,
        n_ops: int = 0,
        n_tombstones: int = 0,
    ):
        #: Tids of entries that hide a base row (each consumes slack).
        self.charged = charged
        #: tid -> tuple for the buffered inserts reads score; never mutated.
        self.visible = visible if visible is not None else {}
        self.n_charged = len(charged)
        self.n_visible = len(self.visible)
        #: Buffered entries, inert ones included.
        self.n_ops = n_ops
        self.n_tombstones = n_tombstones
        #: Nothing charged, nothing visible: the base alone is exact.
        self.is_transparent = not (charged or self.visible)

    def view(self) -> "DeltaView":
        """A view is its own snapshot (the :meth:`DeltaStore.view` surface)."""
        return self

    @property
    def is_empty(self) -> bool:
        return not self.n_ops

    def check_k(self, k: int, k_bound: int) -> None:
        """The single ``k``-bound check of every query entry point.

        Raises :class:`~repro.errors.InvalidQueryError` (a
        :class:`~repro.errors.QueryError`) for ``k`` outside ``[1, K]``
        or beyond the slack this view's charged entries leave.
        """
        if k < 1:
            raise InvalidQueryError(f"k must be positive, got {k}")
        if k > k_bound:
            raise InvalidQueryError(
                f"k={k} exceeds the construction bound K={k_bound}"
            )
        charged = self.n_charged
        if charged and k + charged > k_bound:
            raise InvalidQueryError(
                f"k={k} plus {charged} buffered writes hiding indexed "
                f"tuples exceeds the effective bound {k_bound}; the merged "
                "answer would no longer be exact — compact the delta"
            )

    # -- the merge ---------------------------------------------------------

    def merged_scored(
        self,
        rows: Iterable[tuple[float, float, int]],
        p1: float,
        p2: float,
    ) -> list[tuple[float, float, int]]:
        """Score base rows (minus charged tids) plus visible inserts.

        ``rows`` are the region's candidate ``(s1, s2, -tid)`` triples
        (the disk tier decodes them from its page payload).  The returned
        ``(score, s1, -tid)`` triples use the exact scalar arithmetic of
        the base query path, so ranking them with
        :func:`~repro.core.index.top_k_scored` realizes the canonical
        total order (score desc, s1 desc, tid asc) bit-identically to a
        from-scratch rebuild.

        A base row is hidden by a tombstone *or* by a buffered insert
        of the same tid: the delta entry always supersedes the base
        copy.  The two never coexist in normal maintenance (an insert
        requires the tid dead), but WAL replay onto an image that was
        saved mid-compaction legitimately revisits records the image
        already reflects — without the supersede rule the tuple would
        be served twice.
        """
        charged = self.charged
        if charged:
            scored = [
                (p1 * s1 + p2 * s2, s1, neg_tid)
                for s1, s2, neg_tid in rows
                if -neg_tid not in charged
            ]
        else:
            scored = [
                (p1 * s1 + p2 * s2, s1, neg_tid) for s1, s2, neg_tid in rows
            ]
        for tid, t in self.visible.items():
            scored.append((p1 * t.s1 + p2 * t.s2, t.s1, -tid))
        return scored


#: The view of no delta at all: every query path's default.
NO_DELTA = DeltaView()


class DeltaStore:
    """Pending inserts and delete tombstones, merged into answers.

    Not thread-safe: one writer at a time mutates it, and concurrent
    readers merge a published :meth:`view` instead of the store.
    """

    __slots__ = (
        "_inserts",
        "_tombstones",
        "_base",
        "_charged",
        "_visible",
        "_view",
    )

    def __init__(self) -> None:
        #: tid -> (tuple, lsn) for writes not yet compacted into the base.
        self._inserts: dict[int, tuple[RankTuple, int]] = {}
        #: tid -> lsn of the delete that tombstoned it.
        self._tombstones: dict[int, int] = {}
        #: The base's dominating set as (tids, s1, s2, K); shared with
        #: the base, never copied.  ``None`` until :meth:`rebase`.
        self._base: tuple[Container[int], np.ndarray, np.ndarray, int] | None = None
        #: Tids of entries that hide a base row and so consume slack.
        self._charged: set[int] = set()
        #: tid -> tuple for the buffered inserts that can reach a top-K.
        self._visible: dict[int, RankTuple] = {}
        #: The frozen copy :meth:`view` hands out; dropped by every change.
        self._view: DeltaView | None = None

    # -- classification (module docstring: the exactness argument) ---------

    def rebase(
        self,
        tids: Container[int],
        s1: np.ndarray,
        s2: np.ndarray,
        k_bound: int,
    ) -> None:
        """Adopt a base's dominating set and re-classify every entry.

        ``tids`` answers membership for the parallel ``s1`` / ``s2``
        rank columns; all three are kept by reference.
        """
        self._base = (tids, s1, s2, k_bound)
        self._classify_all()

    def _classify_all(self) -> None:
        self._charged = set()
        self._visible = {}
        for tid in self._tombstones:
            self._classify(tid)
        for tid, (tuple_, _) in self._inserts.items():
            self._classify(tid, tuple_)
        self._view = None

    def _classify(self, tid: int, inserted: RankTuple | None = None) -> None:
        """Charge ``tid`` if the base holds it; show ``inserted`` if it
        could enter a top-K."""
        base = self._base
        if base is None or tid in base[0]:
            self._charged.add(tid)
        if inserted is None:
            return
        if base is not None:
            _, s1, s2, k_bound = base
            above = np.count_nonzero((s1 > inserted.s1) & (s2 > inserted.s2))
            if above >= k_bound:
                return
        self._visible[tid] = inserted

    # -- mutation ----------------------------------------------------------

    def insert(self, tuple_: RankTuple, lsn: int = 0) -> None:
        """Buffer an insert.  The caller has checked ``tid`` is not live.

        A tombstone for the same tid is kept: it hides the *base* copy
        that the earlier delete removed, while the buffered insert
        supplies the new values.
        """
        tid, s1, s2 = tuple_
        if not (math.isfinite(s1) and math.isfinite(s2)):
            raise MaintenanceError("rank values must be finite")
        if tid in self._inserts:
            raise MaintenanceError(
                f"tuple id {tid} already buffered in the delta"
            )
        self._buffer(RankTuple(tid, float(s1), float(s2)), lsn)

    def _buffer(self, tuple_: RankTuple, lsn: int) -> None:
        self._inserts[tuple_.tid] = (tuple_, lsn)
        self._visible.pop(tuple_.tid, None)
        self._classify(tuple_.tid, tuple_)
        self._view = None

    def delete(self, tid: int, lsn: int = 0) -> None:
        """Buffer a delete.  The caller has checked ``tid`` is live.

        A pending insert for ``tid`` is cancelled, and a tombstone is
        recorded unconditionally: if the base never held the tid the
        tombstone is not charged and filters nothing, and after a
        compaction snapshot that *did* bake the insert in, the
        tombstone (re-classified against the fresh base) is what keeps
        the tuple hidden.
        """
        self._inserts.pop(tid, None)
        self._visible.pop(tid, None)
        self._tombstones[tid] = lsn
        self._classify(tid)
        self._view = None

    def replay(self, op: str, tuple_: RankTuple) -> None:
        """Idempotently re-apply one recovered WAL record.

        Unlike :meth:`insert`, a duplicate tid overwrites: replay may
        revisit records already reflected in a snapshot.
        """
        if op == "insert":
            self._buffer(tuple_, 0)
        elif op == "delete":
            self.delete(tuple_.tid)
        else:
            raise MaintenanceError(f"unknown delta replay op {op!r}")

    def clear_upto(self, lsn: int) -> None:
        """Drop entries produced at or before ``lsn``.

        Used when a compaction swaps in a base built from a pool
        snapshot taken at ``lsn``: entries newer than the snapshot stay
        buffered and keep merging into answers.
        """
        self._inserts = {
            tid: entry
            for tid, entry in self._inserts.items()
            if entry[1] > lsn
        }
        self._tombstones = {
            tid: at for tid, at in self._tombstones.items() if at > lsn
        }
        self._classify_all()

    def view(self) -> DeltaView:
        """The current contents, frozen; cached until the next change."""
        if self._view is None:
            self._view = DeltaView(
                frozenset(self._charged),
                dict(self._visible),
                n_ops=len(self._inserts) + len(self._tombstones),
                n_tombstones=len(self._tombstones),
            )
        return self._view

    # -- introspection (every count lives on the view) ---------------------

    def pending_inserts(self) -> Iterator[RankTuple]:
        """The buffered insert tuples (tid order, deterministic)."""
        for tid in sorted(self._inserts):
            yield self._inserts[tid][0]

    def tombstoned(self, tid: int) -> bool:
        return tid in self._tombstones

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DeltaStore(inserts={len(self._inserts)}, "
            f"tombstones={len(self._tombstones)}, "
            f"charged={len(self._charged)}, visible={len(self._visible)})"
        )
