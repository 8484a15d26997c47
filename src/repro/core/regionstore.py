"""Columnar storage of the materialized angular regions.

The sweep produces regions as Python tuples of tuple ids — convenient
for construction, but hostile to the query path: every
query had to translate ``region.tids`` into array positions through a
dict lookup per tuple before any vectorized work could start, and the
``O(n * K)`` region payload lived as boxed Python ints.

:class:`RegionStore` packs the whole region structure into five
contiguous NumPy arrays, built once per index and never edited (a
maintained tier replaces the whole index on compaction):

``lows``
    ``float64[l]`` — the ``l`` interior separating points; a query
    locates its region with one binary search (the paper's
    ``O(log2 l)`` term).
``offsets``
    ``int64[l + 2]`` — CSR-style starts of each region's slice in the
    payload columns.
``tids`` / ``s1`` / ``s2``
    The gathered payload columns: region ``i`` owns rows
    ``offsets[i]:offsets[i + 1]``, holding the tuple ids and both rank
    values of its composition, pre-gathered from the dominating set so
    a query is a boundary search plus one region's rows (:meth:`rows`).

Values are copied *from* the dominating arrays, so query answers are
bit-identical to scoring the dominating set through a position gather —
the arithmetic sees the exact same float64 inputs.

The in-region cut: a row that ``n`` rows of its region beat everywhere
in ``[lo, hi]`` never ranks in a top ``n`` there.  A score difference
``Δ1·cos θ + Δ2·sin θ = R·sin(θ + φ)`` is concave where positive, so
beating a row by a relative margin at both ends means beating it in
between.  Both tiers cut with two functions: :func:`reach` sorts a
region's rows by that count, and :func:`cut_size` keeps those below
``n`` (about ``k``, not K): ``O(log l + k' log k')`` per query.  The
memory tier caches the sorted rows (:meth:`rows`), the disk tier only
their order and counts (:mod:`repro.storage.diskindex`).
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from typing import Sequence

import numpy as np

from ..errors import ConstructionError
from .sweep import Region
from .tuples import RankTupleSet

__all__ = ["RegionStore", "cut_size", "reach"]

Row = tuple[float, float, int]
Cut = tuple[list[Row], list[int] | None]

#: The margin (relative to the rank scale ``max |s1| + |s2|``) dwarfs
#: score rounding while the scale is in _SCALE_RANGE and ``p1 + p2`` in
#: _WEIGHT_RANGE: scores stay below 2^1000 and far above underflow.
#: Other regions are not cut; other weights score the whole region.
_MARGIN = 1e-9
_SCALE_RANGE = (2.0**-900, 2.0**900)
_WEIGHT_RANGE = (2.0**-100, 2.0**100)


def reach(
    s1: np.ndarray, s2: np.ndarray, lo: float, hi: float
) -> tuple[list[int], list[int]]:
    """Rows in reach order, and the sorted reach counts: per row, how
    many rows beat it by the margin at both ``lo`` and ``hi``.  Stable,
    so rows of equal reach (all, where the rank scale is outside the
    margin's range) keep their stored order."""
    n = len(s1)
    scale = float(np.max(np.abs(s1) + np.abs(s2))) if n else 0.0
    if not _SCALE_RANGE[0] <= scale <= _SCALE_RANGE[1]:  # NaN lands here too
        return list(range(n)), [0] * n
    beaten = np.ones((n, n), dtype=bool)
    for angle in (lo, hi):
        score = math.cos(angle) * s1 + math.sin(angle) * s2
        # [i, j]: row j beats row i by the margin at this end.
        beaten &= score - score[:, None] > _MARGIN * scale
    counts = np.sum(beaten, axis=1)
    order = np.argsort(counts, kind="stable")
    return order.tolist(), counts[order].tolist()


def cut_size(counts: list[int], p1: float, p2: float, n: int) -> int | None:
    """How many reach-sorted rows can rank in a top ``n`` under
    ``p1 * s1 + p2 * s2``: those with reach below ``n``.  ``None`` for
    weights the margin does not cover: score every row, in stored order."""
    if _WEIGHT_RANGE[0] <= p1 + p2 <= _WEIGHT_RANGE[1]:
        return bisect_left(counts, n)
    return None


class RegionStore:
    """Packed columnar image of an index's angular regions."""

    __slots__ = (
        "lo",
        "hi",
        "lows",
        "lows_list",
        "offsets",
        "tids",
        "s1",
        "s2",
        "ordered",
        "_rows",
    )

    def __init__(
        self,
        lo: np.ndarray,
        hi: np.ndarray,
        offsets: np.ndarray,
        tids: np.ndarray,
        s1: np.ndarray,
        s2: np.ndarray,
        ordered: bool = False,
    ):
        self.lo = lo
        self.hi = hi
        self.lows = lo[1:]
        # Plain-float mirror of ``lows`` for scalar lookups: ``bisect``
        # on a list is several times cheaper than a one-element
        # ``searchsorted`` call.
        self.lows_list: list[float] = self.lows.tolist()
        self.offsets = offsets
        self.tids = tids
        self.s1 = s1
        self.s2 = s2
        #: Rows in answer order (the ordered variant): never re-sorted.
        self.ordered = ordered
        # Lazily built (rows, reach) pairs, one per region (:meth:`rows`).
        self._rows: list[Cut | None] = [None] * len(lo)

    # -- construction ------------------------------------------------------

    @classmethod
    def from_regions(
        cls, regions: Sequence[Region], dominating: RankTupleSet, ordered: bool = False
    ) -> "RegionStore":
        """Pack a region list over its dominating set into columns.

        Raises :class:`~repro.errors.ConstructionError` when a region
        references a tuple id absent from ``dominating`` — the same
        condition ``check_invariants`` reports, surfaced at build time.
        """
        if not regions:
            raise ConstructionError("a region store needs at least one region")
        n_regions = len(regions)
        lo = np.fromiter(
            (r.lo for r in regions), dtype=np.float64, count=n_regions
        )
        hi = np.fromiter(
            (r.hi for r in regions), dtype=np.float64, count=n_regions
        )
        lengths = np.fromiter(
            (len(r.tids) for r in regions), dtype=np.int64, count=n_regions
        )
        offsets = np.zeros(n_regions + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])

        flat = [tid for region in regions for tid in region.tids]
        all_tids = np.asarray(flat, dtype=np.int64)
        if all_tids.size == 0:
            empty_f = np.empty(0, dtype=np.float64)
            return cls(lo, hi, offsets, all_tids, empty_f, empty_f.copy(), ordered)
        if len(dominating) == 0:
            raise ConstructionError(
                "regions reference tuples but the dominating set is empty"
            )

        # tid -> array position, vectorized through a sorted view.
        order = np.argsort(dominating.tids, kind="stable")
        sorted_tids = dominating.tids[order]
        found = np.minimum(
            np.searchsorted(sorted_tids, all_tids), len(sorted_tids) - 1
        )
        missing = sorted_tids[found] != all_tids
        if missing.any():
            unknown = int(all_tids[int(np.argmax(missing))])
            raise ConstructionError(
                f"region references unknown tuple id {unknown}"
            )
        positions = order[found]
        return cls(
            lo,
            hi,
            offsets,
            all_tids,
            dominating.s1[positions],
            dominating.s2[positions],
            ordered,
        )

    # -- lookups -----------------------------------------------------------

    def region_id(self, angle: float) -> int:
        """Index of the region whose ``[lo, hi)`` span contains ``angle``."""
        return bisect_right(self.lows_list, angle)

    def descent_path(self, angle: float) -> tuple[int, tuple[int, ...]]:
        """Region id plus the separating-point positions probed to find it.

        Replicates the ``bisect_right`` binary search of
        :meth:`region_id` step by step, so the returned id always equals
        ``region_id(angle)`` and the path is the exact probe sequence of
        the descent — the EXPLAIN view of the paper's ``O(log2 l)``
        locate phase.
        """
        lows = self.lows_list
        lo, hi = 0, len(lows)
        path: list[int] = []
        while lo < hi:
            mid = (lo + hi) // 2
            path.append(mid)
            if angle < lows[mid]:
                hi = mid
            else:
                lo = mid + 1
        return lo, tuple(path)

    def span(self, region_id: int) -> tuple[int, int]:
        """Payload-row range ``[start, stop)`` of one region."""
        return int(self.offsets[region_id]), int(self.offsets[region_id + 1])

    def rows(self, region_id: int) -> Cut:
        """One region's ``(s1, s2, -tid)`` rows and their sorted reach.

        Regions are small (K to K+m-1 rows), so queries score them with
        plain float arithmetic, not NumPy kernels.  The tuple id is
        stored *negated* so a ``reverse=True`` sort of ``(score, s1,
        -tid)`` keys yields the query order (score desc, s1 desc, tid
        asc) with no per-row negations at query time.  Rows are
        stable-sorted by reach, the sorted count list (:func:`reach`);
        an ordered store keeps its order and has no reach.  Built on a
        region's first touch and cached as one pair, so no reader sees
        rows without their cut; the idempotent cache write makes reader
        races harmless.
        """
        cached = self._rows[region_id]
        if cached is None:
            rows = self._unbox(region_id)
            if self.ordered:
                cached = (rows, None)
            else:
                start, stop = self.span(region_id)
                s1, s2 = self.s1[start:stop], self.s2[start:stop]
                order, counts = reach(s1, s2, self.lo[region_id], self.hi[region_id])
                cached = ([rows[i] for i in order], counts)
            self._rows[region_id] = cached
        return cached

    def candidates(self, region_id: int, p1: float, p2: float, n: int) -> list[Row]:
        """The region rows that can rank in its top ``n`` under
        ``p1 * s1 + p2 * s2`` (:func:`cut_size`).  Weights the margin
        does not cover get every row in sweep order."""
        rows, counts = self.rows(region_id)
        if counts is None:
            return rows
        size = cut_size(counts, p1, p2, n)
        return self._unbox(region_id) if size is None else rows[:size]

    def _unbox(self, region_id: int) -> list[Row]:
        start, stop = self.span(region_id)
        return list(
            zip(
                self.s1[start:stop].tolist(),
                self.s2[start:stop].tolist(),
                (-self.tids[start:stop]).tolist(),
            )
        )

    def to_regions(self) -> list[Region]:
        """Materialize the full boxed region list (introspection)."""
        flat = self.tids.tolist()
        lo = self.lo.tolist()
        hi = self.hi.tolist()
        bounds = self.offsets.tolist()
        return [
            Region(lo[i], hi[i], tuple(flat[bounds[i] : bounds[i + 1]]))
            for i in range(len(lo))
        ]

    # -- accounting --------------------------------------------------------

    def __len__(self) -> int:
        return len(self.lo)

    @property
    def n_positions(self) -> int:
        """Total payload rows (sum of region compositions)."""
        return int(self.offsets[-1])

    @property
    def nbytes(self) -> int:
        """Packed size of every array in the store."""
        return (
            self.lo.nbytes
            + self.hi.nbytes
            + self.offsets.nbytes
            + self.tids.nbytes
            + self.s1.nbytes
            + self.s2.nbytes
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RegionStore(regions={len(self)}, rows={self.n_positions}, "
            f"bytes={self.nbytes})"
        )
