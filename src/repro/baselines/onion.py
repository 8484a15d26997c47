"""The Onion technique (Chang et al., SIGMOD 2000) — cited baseline [5].

The paper positions itself against Onion for top-k *selection* with
linear scoring: Onion indexes a point set by peeling convex hull layers
(the "onion"), exploiting the fact that the maximizer of any linear
function lies on the convex hull.  A top-k query evaluates layers
outward-in, and may stop after layer ``d + k - 1`` in the worst case
(here ``d = k`` suffices in 2-d with the outward peeling because each
layer contributes at least one of the top elements); crucially, as the
paper notes, Onion "does not provide guarantees for its performance and
in the worst case the entire data set has to be examined".

This implementation peels layers with Andrew's monotone-chain convex
hull (including collinear boundary points, which is required for
correctness: a collinear boundary point can still be the unique linear
maximizer's runner-up).  The query scans layers in order, keeping a
bounded answer heap, and stops once an entire layer cannot contribute —
every point of layer ``i+1`` is dominated in score by some point of
layer ``i`` for the same linear function, so after ``k`` layers have
been fully merged the answer is final.

Restriction to non-negative weights: with preferences in the positive
quadrant only the upper-right portion of each hull matters, but peeling
full hulls keeps the structure usable for arbitrary linear functions,
matching the original technique.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from ..core.index import QueryResult
from ..core.scoring import Preference
from ..core.tuples import RankTupleSet
from ..errors import ConstructionError, QueryError
from .hull import convex_hull_indices

__all__ = ["OnionIndex", "OnionQueryStats", "convex_hull_indices"]


@dataclass
class OnionQueryStats:
    """Work counters of one Onion query."""

    layers_visited: int = 0
    points_scored: int = 0


class OnionIndex:
    """Convex-hull layers over rank pairs, answering linear top-k."""

    def __init__(self, tuples: RankTupleSet):
        if len(tuples) == 0:
            raise ConstructionError("cannot build an Onion index over no tuples")
        self.tuples = tuples
        self.layers: list[np.ndarray] = []  # positions per layer
        remaining = np.arange(len(tuples))
        points = np.column_stack([tuples.s1, tuples.s2])
        while len(remaining):
            hull_local = convex_hull_indices(points[remaining])
            layer = remaining[hull_local]
            self.layers.append(np.sort(layer))
            mask = np.ones(len(remaining), dtype=bool)
            mask[hull_local] = False
            remaining = remaining[mask]
        self.last_query = OnionQueryStats()

    @property
    def n_layers(self) -> int:
        return len(self.layers)

    # Onion indexes the whole input (no construction bound K).
    def query(self, preference: Preference, k: int) -> list[QueryResult]:  # rjilint: disable=RJI007
        """Exact top-k: merge layers outward-in until k layers contribute.

        The linear maximizer over the points inside layer ``i`` lies on
        layer ``i+1``'s hull, so after fully merging ``min(k, n_layers)``
        layers the heap holds the exact answer.
        """
        if k < 1:
            raise QueryError(f"k must be positive, got {k}")
        p1, p2 = preference.p1, preference.p2
        stats = OnionQueryStats()
        heap: list[tuple[float, int]] = []  # min-heap of (score, -tid)
        for depth, layer in enumerate(self.layers):
            if depth >= k and len(heap) >= k:
                break
            stats.layers_visited += 1
            scores = p1 * self.tuples.s1[layer] + p2 * self.tuples.s2[layer]
            stats.points_scored += len(layer)
            for position, score in zip(layer, scores):
                item = (float(score), -int(self.tuples.tids[position]))
                if len(heap) < k:
                    heapq.heappush(heap, item)
                elif item > heap[0]:
                    heapq.heappushpop(heap, item)
        self.last_query = stats
        ordered = sorted(heap, key=lambda item: (-item[0], -item[1]))
        return [QueryResult(-neg_tid, score) for score, neg_tid in ordered]

    def check_invariants(self) -> None:
        """Layers partition the input; every layer is a convex position set."""
        seen: set[int] = set()
        total = 0
        for layer in self.layers:
            total += len(layer)
            overlap = seen.intersection(int(p) for p in layer)
            if overlap:
                raise ConstructionError(f"positions {overlap} in two layers")
            seen.update(int(p) for p in layer)
        if total != len(self.tuples):
            raise ConstructionError(
                f"layers hold {total} points, input has {len(self.tuples)}"
            )
