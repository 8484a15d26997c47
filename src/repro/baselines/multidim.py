"""Beyond two rank attributes — the paper's future-work direction.

Section 9 names "generalizing RJI in dimensions more than two" (joins of
more than a pair of relations) as open.  The exact 2-d construction
sweeps a 1-parameter family of directions; in d dimensions the
preference space is a (d-1)-sphere octant and the arrangement of
separating hyperplanes grows combinatorially.  This module implements
the natural practical generalization with a provable (weaker) guarantee:

1. **K-dominance pruning generalizes verbatim** (Lemmas 1-2 hold in any
   dimension): :func:`nd_dominating_set` keeps only tuples dominated by
   fewer than K others.
2. **Convex-hull layering** (the Onion principle, exact in any
   dimension): for every monotone linear function, the rank-j tuple lies
   within the first j hull layers, so merging the first ``min(k, L)``
   layers answers any top-k query exactly.  Unlike the 2-d RJI the
   per-query work is not worst-case logarithmic — it is bounded by the
   size of the first k layers of the *pruned* set, which the dominance
   step keeps small.

:func:`topk_multiway_join_candidates` extends Lemma 1 to star equi-joins
of ``m`` relations: within each join-key group every input contributes
only its K highest-ranked rows, bounding the candidate set by
``K^(m-1)`` per left row instead of the full cross product.

Degenerate inputs (fewer points than a full-dimensional simplex, or all
points on a common hyperplane) make Qhull fail; the peeler then places
all remaining points in one layer, which keeps answers exact — a layer
that is a superset of the hull vertices preserves the rank-j-in-first-j
invariant — at the cost of scanning that layer.  The d >= 3 hull is
scipy's Qhull, imported at the first such build; without scipy every
d >= 3 build takes the same one-layer fallback.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from ..core.index import QueryResult
from ..errors import ConstructionError, QueryError
from .hull import convex_hull_indices

__all__ = [
    "NDTupleSet",
    "nd_dominator_counts",
    "nd_dominating_set",
    "LayeredQueryStats",
    "LayeredTopKIndex",
    "topk_multiway_join_candidates",
]


@dataclass(frozen=True)
class NDTupleSet:
    """Tuples with ``d >= 2`` rank values: parallel tids and a value matrix."""

    tids: np.ndarray
    values: np.ndarray  # shape (n, d)

    def __post_init__(self) -> None:
        tids = np.ascontiguousarray(self.tids, dtype=np.int64)
        values = np.ascontiguousarray(self.values, dtype=np.float64)
        if values.ndim != 2 or values.shape[1] < 2:
            raise ConstructionError(
                f"values must be an (n, d>=2) matrix, got shape {values.shape}"
            )
        if len(tids) != len(values):
            raise ConstructionError("tids and values must be parallel")
        if len(values) and not np.isfinite(values).all():
            raise ConstructionError("rank values must be finite")
        if len(tids) != len(np.unique(tids)):
            raise ConstructionError("tuple identifiers must be unique")
        object.__setattr__(self, "tids", tids)
        object.__setattr__(self, "values", values)

    @classmethod
    def from_matrix(cls, values: np.ndarray) -> "NDTupleSet":
        values = np.asarray(values, dtype=np.float64)
        return cls(np.arange(len(values), dtype=np.int64), values)

    def __len__(self) -> int:
        return len(self.tids)

    @property
    def dimensions(self) -> int:
        return self.values.shape[1]

    def __getitem__(self, index) -> "NDTupleSet":
        return NDTupleSet(self.tids[index], self.values[index])

    def scores(self, weights: np.ndarray) -> np.ndarray:
        return self.values @ np.asarray(weights, dtype=np.float64)


def nd_dominator_counts(
    tuples: NDTupleSet, *, block_rows: int = 256
) -> np.ndarray:
    """Exact dominator count per tuple in any dimension (``O(n^2 d)``).

    ``u`` dominates ``t`` when ``u >= t`` component-wise and the vectors
    differ; processed in row blocks to bound temporary memory.
    """
    values = tuples.values
    n = len(values)
    counts = np.zeros(n, dtype=np.int64)
    for start in range(0, n, block_rows):
        stop = min(start + block_rows, n)
        block = values[start:stop]  # (b, d)
        ge = (values[None, :, :] >= block[:, None, :]).all(axis=2)  # (b, n)
        identical = (values[None, :, :] == block[:, None, :]).all(axis=2)
        counts[start:stop] = (ge & ~identical).sum(axis=1)
    return counts


def nd_dominating_set(tuples: NDTupleSet, k: int) -> NDTupleSet:
    """Tuples dominated by fewer than ``k`` others (Lemma 2, any d)."""
    if k < 1:
        raise ConstructionError(f"K must be a positive integer, got {k}")
    if len(tuples) == 0:
        return tuples
    return tuples[nd_dominator_counts(tuples) < k]


def _hull_vertex_positions(points: np.ndarray) -> np.ndarray:
    """Hull vertex positions; every point when the hull is degenerate."""
    n, d = points.shape
    if n <= d:  # fewer points than a full-dimensional simplex
        return np.arange(n)
    if d == 2:
        return convex_hull_indices(points)
    try:  # scipy is optional and loaded here only: 2-d never needs it
        from scipy.spatial import ConvexHull, QhullError
    except ImportError:
        return np.arange(n)
    try:
        return np.array(sorted(ConvexHull(points).vertices), dtype=np.int64)
    except QhullError:
        # Flat (lower-dimensional) point set: treat it as one layer.
        return np.arange(n)


@dataclass
class LayeredQueryStats:
    layers_visited: int = 0
    points_scored: int = 0


class LayeredTopKIndex:
    """Top-k index for ``d >= 2`` rank attributes and linear preferences.

    Build: K-dominance pruning, then convex-hull layer peeling of the
    survivors.  Query: merge the first ``min(k, n_layers)`` layers.
    Exact for every monotone linear preference (non-negative weights).
    """

    def __init__(self, tuples: NDTupleSet, k: int):
        if len(tuples) == 0:
            raise ConstructionError("cannot index an empty tuple set")
        if k < 1:
            raise ConstructionError(f"K must be a positive integer, got {k}")
        self.k_bound = k
        self.dominating = nd_dominating_set(tuples, k)
        self.layers: list[np.ndarray] = []
        remaining = np.arange(len(self.dominating))
        points = self.dominating.values
        while len(remaining):
            hull_local = _hull_vertex_positions(points[remaining])
            self.layers.append(remaining[hull_local])
            mask = np.ones(len(remaining), dtype=bool)
            mask[hull_local] = False
            remaining = remaining[mask]
        self.last_query = LayeredQueryStats()

    @property
    def n_layers(self) -> int:
        return len(self.layers)

    def query(self, weights: Iterable[float], k: int) -> list[QueryResult]:
        """Exact top-k under non-negative ``weights`` (one per dimension)."""
        weights = np.asarray(list(weights), dtype=np.float64)
        if len(weights) != self.dominating.dimensions:
            raise QueryError(
                f"expected {self.dominating.dimensions} weights, "
                f"got {len(weights)}"
            )
        if (weights < 0).any() or not weights.any():
            raise QueryError("weights must be non-negative and not all zero")
        if k < 1:
            raise QueryError(f"k must be positive, got {k}")
        if k > self.k_bound:
            raise QueryError(
                f"k={k} exceeds the construction bound K={self.k_bound}"
            )
        stats = LayeredQueryStats()
        heap: list[tuple[float, int]] = []
        for depth, layer in enumerate(self.layers):
            if depth >= k and len(heap) >= k:
                break
            stats.layers_visited += 1
            stats.points_scored += len(layer)
            scores = self.dominating.values[layer] @ weights
            for position, score in zip(layer, scores):
                item = (float(score), -int(self.dominating.tids[position]))
                if len(heap) < k:
                    heapq.heappush(heap, item)
                elif item > heap[0]:
                    heapq.heappushpop(heap, item)
        self.last_query = stats
        ordered = sorted(heap, key=lambda item: (-item[0], -item[1]))
        return [QueryResult(-neg_tid, score) for score, neg_tid in ordered]


def topk_multiway_join_candidates(
    inputs: list[tuple[np.ndarray, np.ndarray]], k: int
) -> tuple[NDTupleSet, list[tuple[int, ...]]]:
    """Lemma 1 for a star equi-join of ``m >= 2`` keyed, ranked inputs.

    ``inputs`` is a list of ``(keys, ranks)`` pairs sharing a join key
    domain.  Within every key group each input is trimmed to its ``k``
    highest-ranked rows before forming the group's cross product, which
    preserves every top-k answer for every monotone linear preference:
    a dropped combination is dominated by at least ``k`` retained ones
    that improve a single coordinate.

    Returns the candidate set (one rank value per input) and, parallel
    to its tids, the contributing row ids per input.
    """
    if len(inputs) < 2:
        raise ConstructionError("a multiway join needs at least two inputs")
    if k < 1:
        raise ConstructionError(f"K must be a positive integer, got {k}")

    trimmed_per_input = []
    for keys, ranks in inputs:
        keys = np.asarray(keys)
        ranks = np.asarray(ranks, dtype=np.float64)
        groups: dict = {}
        for row, key in enumerate(keys):
            groups.setdefault(key, []).append(row)
        trimmed = {}
        for key, rows in groups.items():
            rows = np.asarray(rows, dtype=np.int64)
            order = np.lexsort((rows, -ranks[rows]))
            trimmed[key] = rows[order[:k]]
        trimmed_per_input.append((trimmed, ranks))

    shared_keys = set(trimmed_per_input[0][0])
    for trimmed, _ in trimmed_per_input[1:]:
        shared_keys &= set(trimmed)

    rows_out: list[tuple[int, ...]] = []
    values_out: list[list[float]] = []
    for key in sorted(shared_keys, key=repr):
        combos: list[tuple[tuple[int, ...], list[float]]] = [((), [])]
        for trimmed, ranks in trimmed_per_input:
            combos = [
                (ids + (int(row),), vals + [float(ranks[row])])
                for ids, vals in combos
                for row in trimmed[key]
            ]
        for ids, vals in combos:
            rows_out.append(ids)
            values_out.append(vals)
    if not rows_out:
        empty = np.empty((0, len(inputs)))
        return NDTupleSet(np.empty(0, dtype=np.int64), empty), []
    candidates = NDTupleSet(
        np.arange(len(rows_out), dtype=np.int64), np.asarray(values_out)
    )
    return candidates, rows_out
