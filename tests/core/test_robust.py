"""Tests for preference-robust top-k candidate sets."""

import math

import numpy as np
import pytest

from repro.baselines.robust import robust_topk_candidates
from repro.core.geometry import HALF_PI, separating_angle
from repro.core.index import RankedJoinIndex
from repro.core.tuples import RankTupleSet
from repro.errors import QueryError


def _uniform(n, seed=0):
    rng = np.random.default_rng(seed)
    return RankTupleSet.from_pairs(rng.uniform(0, 100, n), rng.uniform(0, 100, n))


def _oracle(tuples: RankTupleSet, lo: float, hi: float, k: int) -> set[int]:
    """Exact union of top-k over [lo, hi] via a global mini-sweep."""
    cuts = {lo, hi}
    n = len(tuples)
    for i in range(n):
        for j in range(i + 1, n):
            angle = separating_angle(
                float(tuples.s1[i]), float(tuples.s2[i]),
                float(tuples.s1[j]), float(tuples.s2[j]),
            )
            if angle is not None and lo < angle < hi:
                cuts.add(angle)
    boundaries = sorted(cuts)
    out: set[int] = set()
    for a, b in zip(boundaries, boundaries[1:]):
        mid = (a + b) / 2.0
        p1, p2 = math.cos(mid), math.sin(mid)
        scores = p1 * tuples.s1 + p2 * tuples.s2
        order = np.lexsort((tuples.tids, -tuples.s1, -scores))
        out.update(int(tuples.tids[p]) for p in order[:k])
    if len(boundaries) == 1:
        p1, p2 = math.cos(lo), math.sin(lo)
        scores = p1 * tuples.s1 + p2 * tuples.s2
        order = np.lexsort((tuples.tids, -tuples.s1, -scores))
        out.update(int(tuples.tids[p]) for p in order[:k])
    return out


class TestValidation:
    def test_bad_range(self):
        index = RankedJoinIndex.build(_uniform(50), 4)
        with pytest.raises(QueryError, match="angle range"):
            robust_topk_candidates(index, 1.0, 0.5, 2)
        with pytest.raises(QueryError, match="angle range"):
            robust_topk_candidates(index, -0.1, 0.5, 2)

    def test_k_validation(self):
        index = RankedJoinIndex.build(_uniform(50), 4)
        with pytest.raises(QueryError):
            robust_topk_candidates(index, 0.0, 1.0, 0)
        with pytest.raises(QueryError, match="effective"):
            robust_topk_candidates(index, 0.0, 1.0, 5)


class TestExactness:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("window", [(0.0, HALF_PI), (0.3, 0.9), (1.1, 1.2)])
    def test_matches_global_oracle(self, seed, window):
        tuples = _uniform(120, seed=seed)
        k = 5
        index = RankedJoinIndex.build(tuples, k)
        lo, hi = window
        robust = robust_topk_candidates(index, lo, hi, k)
        # The oracle sweeps the *dominating* set (sufficient by Lemma 2).
        expected = _oracle(index.dominating, lo, hi, k)
        assert robust == expected

    def test_k_smaller_than_bound(self):
        tuples = _uniform(150, seed=4)
        index = RankedJoinIndex.build(tuples, 8)
        robust = robust_topk_candidates(index, 0.2, 1.3, 3)
        expected = _oracle(index.dominating, 0.2, 1.3, 3)
        assert robust == expected

    def test_merged_index_agrees_with_standard(self):
        tuples = _uniform(150, seed=5)
        standard = RankedJoinIndex.build(tuples, 6)
        merged = RankedJoinIndex.build(tuples, 6, merge_slack=6)
        for window in [(0.1, 0.4), (0.0, HALF_PI)]:
            assert robust_topk_candidates(
                standard, *window, 4
            ) == robust_topk_candidates(merged, *window, 4)

    def test_point_interval_equals_single_query(self):
        tuples = _uniform(100, seed=6)
        index = RankedJoinIndex.build(tuples, 5)
        from repro.core.scoring import Preference

        angle = 0.7
        robust = robust_topk_candidates(index, angle, angle, 5)
        single = {r.tid for r in index.query(Preference.from_angle(angle), 5)}
        assert robust == single

    def test_grows_with_window(self):
        tuples = _uniform(200, seed=7)
        index = RankedJoinIndex.build(tuples, 5)
        narrow = robust_topk_candidates(index, 0.7, 0.8, 3)
        wide = robust_topk_candidates(index, 0.2, 1.4, 3)
        assert narrow <= wide
        assert len(wide) >= 3

    def test_sampled_answers_always_covered(self):
        tuples = _uniform(150, seed=8)
        index = RankedJoinIndex.build(tuples, 6)
        lo, hi = 0.25, 1.25
        robust = robust_topk_candidates(index, lo, hi, 4)
        from repro.core.scoring import Preference

        for angle in np.linspace(lo + 1e-6, hi - 1e-6, 100):
            answer = {
                r.tid for r in index.query(Preference.from_angle(float(angle)), 4)
            }
            assert answer <= robust
