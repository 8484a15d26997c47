"""The Ranked Join Index — the paper's primary contribution.

:class:`RankedJoinIndex` preprocesses a set of join-result tuples for a
construction-time bound ``K`` and then answers any top-k join query with
``k <= K`` for any monotone linear scoring function:

1. the input is pruned to the dominating set ``D_K`` (Section 4);
2. the ConstructRJI sweep partitions the preference space ``[0, pi/2]``
   into angular regions, each holding the K tuples every query in the
   region draws from (Sections 5-6);
3. a query locates its region by binary search on the materialized
   separating points, evaluates the scoring function on the region's K
   tuples and partially sorts — ``O(log l + K + k log k)``.

The regions live in a :class:`~repro.core.regionstore.RegionStore`:
one contiguous payload of pre-gathered ``(tid, s1, s2)`` columns plus a
CSR offsets array, so the query hot path is a boundary ``searchsorted``,
an array slice, and one vectorized score/``lexsort`` — no per-query
Python loop over tuple ids.  The store is packed once, in ``__init__``,
and the index is immutable from then on (maintained tiers buffer writes
in an attached :class:`~repro.core.delta.DeltaStore`, serve reads from a
:meth:`~RankedJoinIndex.frozen` copy that merges a frozen view of it,
and swap in a fresh index on compaction); boxed ``Region`` objects are a
view materialized on demand for introspection.

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

import numpy as np

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
from .hotcache import MISS, HotRegionCache
from .merging import merge_adaptive, merge_every
from .regionstore import RegionStore
from .scoring import Preference, PreferenceLike, as_preference
from .sweep import Region, sweep_regions
from .tuples import RankTuple, RankTupleSet

__all__ = ["QueryResult", "BuildStats", "RankedJoinIndex", "top_k_columns"]


class QueryResult(NamedTuple):
    """One answer tuple: its identifier and score under the query.

    A named tuple rather than a dataclass: queries build ``k`` of these
    per call, and named-tuple construction is the cheapest structured
    record CPython offers on that path.
    """

    tid: int
    score: float


def top_k_columns(
    tids: np.ndarray,
    s1: np.ndarray,
    s2: np.ndarray,
    p1: float,
    p2: float,
    k: int,
    *,
    ordered: bool = False,
    neg_s1: np.ndarray | None = None,
) -> list[QueryResult]:
    """Top-``k`` of one region's columns under ``p1 * s1 + p2 * s2``.

    The one columnar score / select / materialize kernel, shared by
    :meth:`RankedJoinIndex.query_batch` and the disk tier's ``query``.
    Scores use the scalar path's arithmetic and the ``lexsort`` realizes
    its total order (score desc, ``s1`` desc, tid asc), so answers are
    bit-identical to :meth:`RankedJoinIndex.query`.  ``ordered`` says the
    rows are already stored in answer order (the ordered variant with
    no write buffer merged in); ``neg_s1`` is ``-s1`` when the caller
    keeps it precomputed (float negation is exact either way).
    """
    scores = p1 * s1 + p2 * s2
    if ordered:
        chosen = np.arange(min(k, len(tids)))
    else:
        if neg_s1 is None:
            neg_s1 = -s1
        chosen = np.lexsort((tids, neg_s1, -scores))[:k]
    return [
        QueryResult(tid, score)
        for tid, score in zip(tids[chosen].tolist(), scores[chosen].tolist())
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
        cache_size: int = 0,
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
        self._store = RegionStore.from_regions(regions, dominating)
        # Hot-region cache: angle -> region id, so repeated preferences
        # skip the descent.
        self._cache = HotRegionCache(cache_size) if cache_size > 0 else None
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
        cache_size: int = 0,
        recorder: Recorder = NULL_RECORDER,
    ) -> "RankedJoinIndex":
        """Construct an index over join-result tuples for bound ``K = k``.

        ``tuples`` is the candidate join result (e.g. the output of
        :func:`repro.core.pruning.topk_join_candidates`); with
        ``prune=True`` the dominating-set algorithm is applied first.
        ``merge_slack`` > 0 enables §6.2 region merging with per-region
        distinct-tuple budget ``K + merge_slack``.  ``cache_size``
        > 0 attaches a :class:`~repro.core.hotcache.HotRegionCache` of
        that capacity so repeated preference angles skip the query
        descent.  All tuning arguments are keyword-only.  ``recorder``
        observes the build phases and stays attached to the index for
        query-time counters; the default null recorder observes nothing
        and costs nothing.
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
            cache_size=cache_size,
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
        store = self._store
        cache = self._cache
        cache_hit = evicted = False
        if cache is not None:
            cached = cache.get(preference.angle)
            if cached is not MISS:
                region_id = cached
                cache_hit = True
            else:
                region_id = store.region_id(preference.angle)
                evicted = cache.put(preference.angle, region_id)
        else:
            region_id = store.region_id(preference.angle)
        if deadline is not None:
            deadline.check("locate")
        rows = store.rows(region_id)
        recorder = self._recorder
        if recorder.enabled:
            self._record_query(
                recorder,
                region_id,
                len(rows),
                cache_hit=cache_hit,
                cache_evicted=evicted,
            )
        p1 = preference.p1
        p2 = preference.p2
        new = tuple.__new__
        if not view.is_transparent:
            # Merged view: base rows minus charged tids plus visible
            # inserts, all scored with the same scalar arithmetic, so
            # the reversed tuple sort realizes the canonical order
            # bit-identically to a from-scratch rebuild.
            if recorder.enabled:
                recorder.count("delta.merged_queries")
            scored = view.merged_scored(rows, p1, p2)
            scored.sort(reverse=True)
            if deadline is not None:
                deadline.check("evaluate")
            return [
                new(QueryResult, (-neg_tid, score))
                for score, _, neg_tid in scored[:k]
            ]
        if self.variant == "ordered":
            return [
                new(QueryResult, (-neg_tid, p1 * s1 + p2 * s2))
                for s1, s2, neg_tid in rows[:k]
            ]
        # Scalar scoring over the unboxed rows: plain float64 arithmetic
        # computes the exact same score bits as the column kernels (a
        # region holds K-ish rows, far below the break-even size of a
        # NumPy kernel call), and the reversed (score, s1, -tid) tuple
        # sort realizes the same total order (score desc, s1 desc, tid
        # asc) as the pre-columnar lexsort, so answers are bit-identical
        # to the scalar seed path.
        scored = [
            (p1 * s1 + p2 * s2, s1, neg_tid) for s1, s2, neg_tid in rows
        ]
        scored.sort(reverse=True)
        if deadline is not None:
            deadline.check("evaluate")
        return [
            new(QueryResult, (-neg_tid, score))
            for score, _, neg_tid in scored[:k]
        ]

    def _record_query(
        self,
        recorder: Recorder,
        region_id: int,
        n_rows: int,
        *,
        cache_hit: bool = False,
        cache_evicted: bool = False,
    ) -> None:
        """Emit the per-query metric events of one scalar query.

        The single emission point shared by :meth:`query` and
        :meth:`explain`, so an explained query is indistinguishable from
        a plain one in any attached recorder — names, values and
        attributes included.  A hot-region cache hit observes a descent
        depth of 0 (the binary search never ran); the cache counters are
        emitted only when a cache is configured, so uncached indices
        keep their exact pre-cache metric stream.
        """
        recorder.count("rji.queries")
        recorder.observe("rji.regions_touched", 1)
        recorder.observe(
            "rji.descent_steps",
            0 if cache_hit else max(len(self._store.lows), 1).bit_length(),
        )
        recorder.observe(
            "rji.tuples_evaluated", n_rows, {"region": region_id}
        )
        if self._cache is not None:
            recorder.count(
                "rji.cache.hits" if cache_hit else "rji.cache.misses"
            )
            if cache_evicted:
                recorder.count("rji.cache.evictions")

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
        cache = self._cache

        started = time.perf_counter()
        cache_hit = evicted = False
        if cache is not None:
            cached = cache.get(preference.angle)
            if cached is not MISS:
                region_id, path = cached, ()
                cache_hit = True
            else:
                region_id, path = store.descent_path(preference.angle)
                evicted = cache.put(preference.angle, region_id)
        else:
            region_id, path = store.descent_path(preference.angle)
        t_locate = time.perf_counter() - started

        started = time.perf_counter()
        rows = store.rows(region_id)
        t_materialize = time.perf_counter() - started

        self._record_query(
            tee,
            region_id,
            len(rows),
            cache_hit=cache_hit,
            cache_evicted=evicted,
        )
        tee.count("rji.explains")

        started = time.perf_counter()
        p1 = preference.p1
        p2 = preference.p2
        if not view.is_transparent:
            # Mirror the merged query path exactly (results and metric
            # stream), so an explained write-buffered query stays
            # indistinguishable from a plain one.
            tee.count("delta.merged_queries")
            scored = view.merged_scored(rows, p1, p2)
            scored.sort(reverse=True)
            results = tuple(
                QueryResult(-neg_tid, score)
                for score, _, neg_tid in scored[:k]
            )
            comparisons = sort_comparison_budget(len(scored))
        elif self.variant == "ordered":
            results = tuple(
                QueryResult(-neg_tid, p1 * s1 + p2 * s2)
                for s1, s2, neg_tid in rows[:k]
            )
            comparisons = 0
        else:
            scored = [
                (p1 * s1 + p2 * s2, s1, neg_tid) for s1, s2, neg_tid in rows
            ]
            scored.sort(reverse=True)
            results = tuple(
                QueryResult(-neg_tid, score)
                for score, _, neg_tid in scored[:k]
            )
            comparisons = sort_comparison_budget(len(rows))
        t_score = time.perf_counter() - started

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
            region_size=len(rows),
            descent_depth=(
                0 if cache_hit else max(len(store.lows), 1).bit_length()
            ),
            descent_path=path,
            cache_hit=cache_hit,
            tuples_evaluated=len(rows),
            sort_comparisons=comparisons,
            n_results=len(results),
            results=results,
            phases=(
                PhaseTiming("locate", t_locate),
                PhaseTiming("materialize", t_materialize),
                PhaseTiming("score_sort", t_score),
            ),
            trace_id=current_trace_id(),
        )
        tee.record(explain)
        return explain

    def query_weights(self, p1: float, p2: float, k: int) -> list[QueryResult]:
        """Convenience wrapper accepting bare preference weights."""
        return self.query(Preference(p1, p2), k)

    def query_batch(
        self,
        preferences: Sequence[PreferenceLike],
        k: int,
        *,
        deadline: DeadlineLike = None,
    ) -> list[list[QueryResult]]:
        """Answer many queries at once, amortizing region work.

        Each preference is anything
        :func:`~repro.core.scoring.as_preference` accepts.  Queries are
        grouped by the region their angle falls into; each region's
        payload columns are sliced once from the store and scored for
        all of its queries.  Results are identical to issuing
        :meth:`query` per preference.  ``deadline`` (a
        :class:`~repro.core.deadline.Deadline` or seconds) is checked
        once per region group, so a batch abandons work within one
        group's worth of evaluation after its budget expires.  The
        hot-region cache is not consulted here: one vectorized
        ``searchsorted`` already locates every region in the batch, so
        per-angle memoization would only add lock traffic.
        """
        view = self._delta.view()
        view.check_k(k, self.k_bound)
        coerced = [as_preference(p) for p in preferences]
        deadline = Deadline.of(deadline)
        if not coerced:
            return []
        store = self._store
        angles = np.array([p.angle for p in coerced])
        region_ids = store.region_ids(angles)
        unique_regions = np.unique(region_ids)
        recorder = self._recorder
        if recorder.enabled:
            recorder.count("rji.batch.calls")
            recorder.count("rji.queries", len(coerced))
            recorder.observe("rji.batch.queries", len(coerced))
            recorder.observe("rji.batch.groups", len(unique_regions))
            recorder.observe("rji.regions_touched", len(unique_regions))

        merged = not view.is_transparent
        if merged and recorder.enabled:
            recorder.count("delta.merged_queries", len(coerced))

        ordered = self.variant == "ordered" and not merged
        results: list[list[QueryResult] | None] = [None] * len(coerced)
        for region_id in unique_regions:
            if deadline is not None:
                deadline.check("batch")
            start, stop = store.span(int(region_id))
            queries = np.nonzero(region_ids == region_id)[0]
            if stop == start and not merged:
                for q in queries:
                    results[int(q)] = []
                continue
            tids = store.tids[start:stop]
            s1 = store.s1[start:stop]
            s2 = store.s2[start:stop]
            if merged:
                tids, s1, s2 = view.merged_columns(tids, s1, s2)
                neg_s1 = -s1
            else:
                neg_s1 = store.neg_s1[start:stop]
            if recorder.enabled:
                recorder.count(
                    "rji.batch.tuples_evaluated",
                    len(tids) * len(queries),
                    {"region": int(region_id)},
                )
            for q in queries.tolist():
                p = coerced[q]
                results[q] = top_k_columns(
                    tids, s1, s2, p.p1, p.p2, k, ordered=ordered, neg_s1=neg_s1
                )
        return results  # type: ignore[return-value]

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

        Shares the region store, cache and recorder.  Later writes to
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
    def cache(self) -> HotRegionCache | None:
        """The hot-region descent cache, or ``None`` when disabled."""
        return self._cache

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
