"""Full-scan baseline: score every materialized join tuple.

The conceptually simplest correct competitor — materialize the join's
rank pairs once, then answer each query by scoring all of them and
partially sorting.  Linear work per query; used as the correctness
oracle throughout the test suite and as the lower baseline in the
ablation benchmarks.
"""

from __future__ import annotations

import numpy as np

from ..core.index import QueryResult
from ..core.scoring import Preference
from ..core.tuples import RankTupleSet
from ..errors import QueryError

__all__ = ["FullScanTopK"]


class FullScanTopK:
    """Vectorized linear-scan top-k over a materialized rank-pair set."""

    def __init__(self, tuples: RankTupleSet):
        self.tuples = tuples

    def __len__(self) -> int:
        return len(self.tuples)

    # A full scan has no construction bound: any k is answerable.
    def query(self, preference: Preference, k: int) -> list[QueryResult]:  # rjilint: disable=RJI007
        """Exact top-k by full scan; ties broken like the RJI (s1 desc, tid)."""
        if k < 1:
            raise QueryError(f"k must be positive, got {k}")
        tuples = self.tuples
        n = len(tuples)
        if n == 0:
            return []
        scores = preference.p1 * tuples.s1 + preference.p2 * tuples.s2
        k_eff = min(k, n)
        if k_eff < n:
            # Cheap partial selection of the k-th score, then every tuple
            # scoring at least that much: a tie at the cut is settled by
            # the ordering below, not by the partition.
            kth = -np.partition(-scores, k_eff - 1)[k_eff - 1]
            candidates = np.flatnonzero(scores >= kth)
        else:
            candidates = np.arange(n)
        order = np.lexsort(
            (
                tuples.tids[candidates],
                -tuples.s1[candidates],
                -scores[candidates],
            )
        )
        chosen = candidates[order[:k_eff]]
        return [
            QueryResult(int(tuples.tids[p]), float(scores[p])) for p in chosen
        ]
