"""The Ranked Join Index — the paper's primary contribution.

:class:`RankedJoinIndex` preprocesses a set of join-result tuples for a
construction-time bound ``K`` and then answers any top-k join query with
``k <= K`` for any monotone linear scoring function:

1. the input is pruned to the dominating set ``D_K`` (Section 4);
2. the ConstructRJI sweep partitions the preference space ``[0, pi/2]``
   into angular regions, each holding the K tuples every query in the
   region draws from (Sections 5-6);
3. a query locates its region by binary search on the materialized
   separating points, evaluates the scoring function on the ``k'`` rows
   of the region that can reach its top ``k`` and sorts them —
   ``O(log l + k' log k')`` (the paper scores all K rows,
   ``O(log l + K + k log k)``; the in-region cut is
   :mod:`repro.core.regionstore`'s).

The regions live in a :class:`~repro.core.regionstore.RegionStore`:
one contiguous payload of pre-gathered ``(tid, s1, s2)`` columns plus a
CSR offsets array, so the query hot path is a boundary ``bisect``, a
prefix of one region's cached rows, and one sort of ``(score, s1,
-tid)`` keys — no per-query lookup of tuple ids.  The store is packed
once, in ``__init__``, and the index is immutable from then on
(maintained tiers buffer writes in an attached
:class:`~repro.core.delta.DeltaStore`, serve reads from a
:meth:`~RankedJoinIndex.frozen` copy that merges a frozen view of it,
and swap in a fresh index on compaction); boxed ``Region`` objects are
a view materialized on demand for introspection.

Variants (Section 6.2):

* ``variant="ordered"`` additionally materializes every *ordering*
  change, so queries return the first ``k`` stored tuples with no
  evaluation (more separating points, faster queries);
* ``merge_slack=m`` merges regions so each holds at most ``K + m - 1``
  distinct tuples (fewer separating points, slightly slower queries),
  with ``merge_strategy`` choosing the fixed (``"every"``) or greedy
  budget-packing (``"adaptive"``) scheme.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

from ..errors import ConstructionError
from .deadline import Deadline, DeadlineLike
from .delta import NO_DELTA, DeltaStore, DeltaView
from ..obs import (
    NULL_RECORDER,
    ExplainRecorder,
    PhaseTiming,
    QueryExplain,
    Recorder,
    current_trace_id,
    sort_comparison_budget,
)
from .dominance import dominating_set
from .merging import merge_adaptive, merge_every
from .regionstore import RegionStore
from .scoring import PreferenceLike, as_preference
from .sweep import Region, sweep_regions
from .tuples import RankTuple, RankTupleSet

__all__ = [
    "QueryResult",
    "BuildStats",
    "RankedJoinIndex",
    "top_k_scored",
]


class QueryResult(NamedTuple):
    """One answer tuple: its identifier and score under the query.

    A named tuple rather than a dataclass: queries build ``k`` of these
    per call, and named-tuple construction is the cheapest structured
    record CPython offers on that path.
    """

    tid: int
    score: float


def top_k_scored(
    scored: list[tuple[float, float, int]], k: int
) -> list[QueryResult]:
    """The first ``k`` of ``(score, s1, -tid)`` triples, in answer order.

    The ranking step of every read, memory and disk, plain and merged:
    sorting the triples reversed (in place) realizes the total order
    (score desc, ``s1`` desc, tid asc).
    """
    scored.sort(reverse=True)
    new = tuple.__new__
    return [
        new(QueryResult, (-neg_tid, score)) for score, _, neg_tid in scored[:k]
    ]


@dataclass(frozen=True)
class BuildStats:
    """Construction report: set sizes and per-phase wall-clock seconds.

    Mirrors the quantities of the paper's evaluation — ``n_dominating``
    is |Dom|, ``n_separating`` is |Sep|, and the three time components
    correspond to Figure 14's tDom / tSep / tBLoad breakdown.
    """

    n_input: int
    n_dominating: int
    n_separating: int
    n_regions: int
    pairs_considered: int
    n_events: int
    time_dominating: float
    time_separating: float
    time_load: float

    @property
    def time_total(self) -> float:
        return self.time_dominating + self.time_separating + self.time_load


class RankedJoinIndex:
    """Answers top-k join queries, ``k <= K``, for any linear preference."""

    def __init__(
        self,
        k_bound: int,
        regions: Sequence[Region],
        dominating: RankTupleSet,
        stats: BuildStats,
        *,
        variant: str = "standard",
        recorder: Recorder = NULL_RECORDER,
    ):
        self.k_bound = k_bound
        self.variant = variant
        self._dominating = dominating
        self._stats = stats
        self._recorder = recorder
        self._position_of = {
            int(tid): pos for pos, tid in enumerate(dominating.tids)
        }
        # The one region record: the boxed sweep output is packed here
        # and not kept.
        self._store = RegionStore.from_regions(
            regions, dominating, ordered=variant == "ordered"
        )
        # What every query merges: an attached write buffer's current
        # view, or a frozen DeltaView (a read view, or no delta at all).
        self._delta: DeltaStore | DeltaView = NO_DELTA

    # -- construction ------------------------------------------------------

    @classmethod
    def build(
        cls,
        tuples: RankTupleSet | Iterable[RankTuple],
        k: int,
        *,
        prune: bool = True,
        variant: str = "standard",
        merge_slack: int = 0,
        merge_strategy: str = "adaptive",
        recorder: Recorder = NULL_RECORDER,
    ) -> "RankedJoinIndex":
        """Construct an index over join-result tuples for bound ``K = k``.

        ``tuples`` is the candidate join result (e.g. the output of
        :func:`repro.core.pruning.topk_join_candidates`); with
        ``prune=True`` the dominating-set algorithm is applied first.
        ``merge_slack`` > 0 enables §6.2 region merging with per-region
        distinct-tuple budget ``K + merge_slack``.  All tuning arguments
        are keyword-only.  ``recorder`` observes the build phases and
        stays attached to the index for query-time counters; the default
        null recorder observes nothing and costs nothing.
        """
        if variant not in ("standard", "ordered"):
            raise ConstructionError(f"unknown variant {variant!r}")
        if merge_slack < 0:
            raise ConstructionError("merge_slack must be >= 0")
        if variant == "ordered" and merge_slack:
            raise ConstructionError(
                "the ordered variant stores exact orderings and cannot be "
                "merged; use the standard variant for merging"
            )
        if not isinstance(tuples, RankTupleSet):
            tuples = RankTupleSet.from_tuples(tuples)

        with recorder.span(
            "build", {"k": k, "n_input": len(tuples), "variant": variant}
        ):
            started = time.perf_counter()
            with recorder.span("build.dominating"):
                dominating = (
                    dominating_set(tuples, k, recorder=recorder)
                    if prune
                    else tuples.sort_for_sweep()
                )
            t_dom = time.perf_counter() - started

            started = time.perf_counter()
            with recorder.span("build.separating"):
                regions, sweep_stats = sweep_regions(
                    dominating,
                    k,
                    record_order=(variant == "ordered"),
                    recorder=recorder,
                )
            t_sep = time.perf_counter() - started

            started = time.perf_counter()
            with recorder.span("build.load"):
                if merge_slack:
                    budget = min(k, len(dominating)) + merge_slack
                    if merge_strategy == "adaptive":
                        regions = merge_adaptive(regions, budget)
                    elif merge_strategy == "every":
                        regions = merge_every(regions, merge_slack + 1)
                    else:
                        raise ConstructionError(
                            f"unknown merge_strategy {merge_strategy!r}"
                        )
            t_load = time.perf_counter() - started

        stats = BuildStats(
            n_input=len(tuples),
            n_dominating=len(dominating),
            n_separating=sweep_stats.n_separating,
            n_regions=sweep_stats.n_regions,
            pairs_considered=sweep_stats.pairs_considered,
            n_events=sweep_stats.n_events,
            time_dominating=t_dom,
            time_separating=t_sep,
            time_load=t_load,
        )
        return cls(
            k,
            regions,
            dominating,
            stats,
            variant=variant,
            recorder=recorder,
        )

    # -- queries -----------------------------------------------------------

    def query(
        self,
        preference: PreferenceLike,
        k: int,
        *,
        deadline: DeadlineLike = None,
    ) -> list[QueryResult]:
        """Top-k join tuples under ``preference``, highest score first.

        ``preference`` is anything :func:`~repro.core.scoring.as_preference`
        accepts: a :class:`Preference`, a ``(p1, p2)`` pair, or a raw
        sweep angle.  Raises
        :class:`~repro.errors.InvalidQueryError` when ``k`` exceeds the
        construction bound ``K`` or the preference is malformed.  When
        fewer than ``k`` tuples exist in the whole input, all of them
        are returned.  ``deadline`` — an armed
        :class:`~repro.core.deadline.Deadline` or a plain budget in
        seconds — arms cooperative checks at the phase boundaries
        (locate / evaluate), raising
        :class:`~repro.errors.QueryTimeoutError` once exceeded; ``None``
        adds no work to the hot path.
        """
        view = self._delta.view()
        view.check_k(k, self.k_bound)
        preference = as_preference(preference)
        deadline = Deadline.of(deadline)
        region_id = self._store.region_id(preference.angle)
        if deadline is not None:
            deadline.check("locate")
        recorder = self._recorder
        results, n_scored, _ = self._top_k(
            view, region_id, preference.p1, preference.p2, k, recorder
        )
        if recorder.enabled:
            self._record_query(recorder, region_id, n_scored)
        if deadline is not None:
            deadline.check("evaluate")
        return results

    def _top_k(
        self,
        view: DeltaView,
        region_id: int,
        p1: float,
        p2: float,
        k: int,
        recorder: Recorder,
    ) -> tuple[list[QueryResult], int, int]:
        """Score the region rows that can reach the top ``k``; keep it.

        The one scoring step of :meth:`query` and :meth:`explain`; also
        returns how many rows it scored and how many keys it sorted (0
        on the ordered variant, which reads its rows in stored order).
        A merged view hides at most ``n_charged`` of a row's beaters, so
        it takes the rows that can reach the top ``k + n_charged``.
        Scores are plain float64 arithmetic over the stored values and
        the reversed ``(score, s1, -tid)`` sort realizes the total order
        (score desc, s1 desc, tid asc), so answers are bit-identical to
        scoring the whole region of a from-scratch rebuild.
        """
        store = self._store
        if not view.is_transparent:
            # Merged view: base rows minus charged tids plus visible
            # inserts, scored with the same arithmetic.
            if recorder.enabled:
                recorder.count("delta.merged_queries")
            rows = store.candidates(region_id, p1, p2, k + view.n_charged)
            scored = view.merged_scored(rows, p1, p2)
        elif self.variant == "ordered":
            new = tuple.__new__
            results = [
                new(QueryResult, (-neg_tid, p1 * s1 + p2 * s2))
                for s1, s2, neg_tid in store.rows(region_id)[0][:k]
            ]
            return results, len(results), 0
        else:
            scored = [
                (p1 * s1 + p2 * s2, s1, neg_tid)
                for s1, s2, neg_tid in store.candidates(region_id, p1, p2, k)
            ]
        return top_k_scored(scored, k), len(scored), len(scored)

    def _record_query(
        self, recorder: Recorder, region_id: int, n_scored: int
    ) -> None:
        """Emit the per-query metric events of one scalar query.

        The single emission point shared by :meth:`query` and
        :meth:`explain`, so an explained query is indistinguishable from
        a plain one in any attached recorder — names, values and
        attributes included.  ``n_scored`` is the rows actually scored.
        """
        recorder.count("rji.queries")
        recorder.observe("rji.regions_touched", 1)
        recorder.observe(
            "rji.descent_steps", max(len(self._store.lows), 1).bit_length()
        )
        recorder.observe(
            "rji.tuples_evaluated", n_scored, {"region": region_id}
        )

    def explain(
        self, preference: PreferenceLike, k: int, *, record: bool = True
    ) -> QueryExplain:
        """Answer a query *and* capture its structural cost breakdown.

        Runs the same locate / materialize / evaluate pipeline as
        :meth:`query` — the returned record's ``results`` are identical
        to ``query(preference, k)`` — while teeing every metric event
        into the index's own recorder through an
        :class:`~repro.obs.ExplainRecorder`, so ``descent_depth``,
        ``region_size`` and ``tuples_evaluated`` equal the observations
        an attached :class:`~repro.obs.MetricsRecorder` makes for the
        same query.  ``record=False`` detaches the tee (the SQL layer's
        ``EXPLAIN``, which must not perturb query counters).  Render the
        record with :func:`~repro.obs.render_explain`.
        """
        view = self._delta.view()
        view.check_k(k, self.k_bound)
        preference = as_preference(preference)
        tee = ExplainRecorder(self._recorder if record else NULL_RECORDER)
        store = self._store

        started = time.perf_counter()
        region_id, path = store.descent_path(preference.angle)
        t_locate = time.perf_counter() - started

        started = time.perf_counter()
        region_size = len(store.rows(region_id)[0])
        t_materialize = time.perf_counter() - started

        started = time.perf_counter()
        p1 = preference.p1
        p2 = preference.p2
        results, n_scored, n_sorted = self._top_k(
            view, region_id, p1, p2, k, tee
        )
        t_score = time.perf_counter() - started
        self._record_query(tee, region_id, n_scored)
        tee.count("rji.explains")

        explain = QueryExplain(
            p1=p1,
            p2=p2,
            angle=preference.angle,
            k=k,
            k_bound=self.k_bound,
            variant=self.variant,
            n_regions=len(store),
            region_id=region_id,
            region_lo=float(store.lo[region_id]),
            region_hi=float(store.hi[region_id]),
            region_size=region_size,
            descent_depth=max(len(store.lows), 1).bit_length(),
            descent_path=path,
            tuples_evaluated=n_scored,
            sort_comparisons=sort_comparison_budget(n_sorted),
            n_results=len(results),
            results=tuple(results),
            phases=(
                PhaseTiming("locate", t_locate),
                PhaseTiming("materialize", t_materialize),
                PhaseTiming("score_sort", t_score),
            ),
            trace_id=current_trace_id(),
        )
        tee.record(explain)
        return explain

    def query_batch(
        self,
        preferences: Sequence[PreferenceLike],
        k: int,
        *,
        deadline: DeadlineLike = None,
    ) -> list[list[QueryResult]]:
        """:meth:`query` for each preference, in order.

        A region holds about K rows, so a batch has no region work to
        amortize: it is a loop.  ``k`` is checked up front (an empty
        batch with a bad ``k`` still raises) and one ``deadline`` budget
        covers the whole batch, checked at each query's phase
        boundaries.
        """
        self._delta.view().check_k(k, self.k_bound)
        deadline = Deadline.of(deadline)
        return [self.query(p, k, deadline=deadline) for p in preferences]

    # -- delta merge -------------------------------------------------------

    def attach_delta(self, delta: DeltaStore) -> None:
        """Merge ``delta`` into every subsequent query answer.

        The write path of every maintained tier: owners buffer inserts
        and tombstones in the delta and replace this (immutable) index
        with a fresh one on compaction.  The delta is rebased on this
        index's dominating set (shared, not copied), which re-classifies
        its entries; while attached, the ``k`` check additionally
        requires ``k + n_charged <= K`` so the merged answer stays
        exact (see :mod:`repro.core.delta`).  Every call reads the
        delta's current :meth:`~repro.core.delta.DeltaStore.view`, so
        only its single writer may query meanwhile; concurrent readers
        use :meth:`frozen` copies.
        """
        self._delta = delta
        dominating = self._dominating
        delta.rebase(
            self._position_of, dominating.s1, dominating.s2, self.k_bound
        )

    def detach_delta(self) -> DeltaStore | DeltaView | None:
        """Stop merging; returns the previously attached delta."""
        delta = self._delta
        self._delta = NO_DELTA
        return None if delta is NO_DELTA else delta

    def frozen(self) -> "RankedJoinIndex":
        """A read view: this index with its delta's current view frozen in.

        Shares the region store and recorder.  Later writes to
        the attached delta change the delta, never the copy, so readers
        holding it need no lock; an owner publishes a fresh copy after
        each change (:class:`~repro.core.writepath.WritableRankedJoinIndex`).
        """
        view = object.__new__(type(self))  # copy.copy would add 2 µs per write
        view.__dict__.update(self.__dict__, _delta=self._delta.view())
        return view

    @property
    def delta(self) -> DeltaStore | DeltaView | None:
        """The attached write buffer (a frozen view on a read view), or ``None``."""
        return None if self._delta is NO_DELTA else self._delta

    # -- introspection -------------------------------------------------------

    @property
    def stats(self) -> BuildStats:
        """Construction statistics (|Dom|, |Sep|, phase timings)."""
        return self._stats

    @property
    def store(self) -> RegionStore:
        """The packed columnar region store serving the query paths."""
        return self._store

    @property
    def regions(self) -> list[Region]:
        """The angular regions, left to right: a boxed view materialized
        from :attr:`store` on every access (introspection, not queries)."""
        return self._store.to_regions()

    @property
    def dominating(self) -> RankTupleSet:
        """The pruned tuple set the index is built over."""
        return self._dominating

    @property
    def n_regions(self) -> int:
        return len(self._store)

    @property
    def k_effective(self) -> int:
        """Largest exact ``k`` right now: ``K`` less the attached delta's
        charged entries (each hides an indexed tuple until compaction)."""
        return max(0, self.k_bound - self._delta.view().n_charged)

    @property
    def n_separating(self) -> int:
        """Number of separating points currently materialized."""
        return len(self._store) - 1

    def logical_size_bytes(self, *, tid_bytes: int = 8, key_bytes: int = 8) -> int:
        """Back-of-envelope in-memory index payload size.

        Counts the separating-point keys and the per-region tuple-id
        payload.  For byte-exact, page-based accounting (Figure 16) use
        :class:`repro.storage.diskindex.DiskRankedJoinIndex`.
        """
        keys = len(self._store.lows) * key_bytes
        payload = self._store.n_positions * tid_bytes
        rank_values = len(self._dominating) * (tid_bytes + 16)
        return keys + payload + rank_values

    def check_invariants(self) -> None:
        """Validate structural invariants; raises on violation (tests)."""
        regions = self.regions
        if not math.isclose(regions[0].lo, 0.0, abs_tol=1e-15):
            raise ConstructionError("first region must start at angle 0")
        if not math.isclose(regions[-1].hi, math.pi / 2, rel_tol=1e-12):
            raise ConstructionError("last region must end at pi/2")
        for left, right in zip(regions, regions[1:]):
            if left.hi != right.lo:
                raise ConstructionError(
                    f"regions must tile the quadrant; gap at {left.hi}"
                )
            if left.lo >= left.hi:
                raise ConstructionError("regions must have positive width")
        for region in regions:
            if len(set(region.tids)) != len(region.tids):
                raise ConstructionError("region tuple ids must be distinct")
            for tid in region.tids:
                if tid not in self._position_of:
                    raise ConstructionError(
                        f"region references unknown tuple id {tid}"
                    )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RankedJoinIndex(K={self.k_bound}, regions={len(self._store)}, "
            f"dominating={len(self._dominating)}, variant={self.variant!r})"
        )
