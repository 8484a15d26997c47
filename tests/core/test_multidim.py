"""Tests for the d-dimensional extension (future work of Section 9)."""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.multidim import (
    LayeredTopKIndex,
    NDTupleSet,
    nd_dominating_set,
    nd_dominator_counts,
    topk_multiway_join_candidates,
)
from repro.errors import ConstructionError, QueryError


def _random_weights(rng, d):
    weights = rng.uniform(0, 1, d)
    weights[rng.integers(0, d)] += 0.1  # never all-zero
    return weights


class TestNDTupleSet:
    def test_validation(self):
        with pytest.raises(ConstructionError, match="matrix"):
            NDTupleSet.from_matrix(np.zeros((3,)))
        with pytest.raises(ConstructionError, match="matrix"):
            NDTupleSet.from_matrix(np.zeros((3, 1)))
        with pytest.raises(ConstructionError, match="finite"):
            NDTupleSet.from_matrix(np.array([[1.0, np.nan]]))
        with pytest.raises(ConstructionError, match="unique"):
            NDTupleSet(np.array([1, 1]), np.zeros((2, 2)))

    def test_scores(self):
        ts = NDTupleSet.from_matrix([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        np.testing.assert_allclose(ts.scores([1.0, 0.0, 2.0]), [7.0, 16.0])


class TestNDDominance:
    def test_counts_3d_chain(self):
        ts = NDTupleSet.from_matrix(
            [[1.0, 1.0, 1.0], [2.0, 2.0, 2.0], [3.0, 3.0, 3.0]]
        )
        assert list(nd_dominator_counts(ts)) == [2, 1, 0]

    def test_matches_2d_implementation(self):
        from repro.core.dominance import dominator_counts
        from repro.core.tuples import RankTupleSet

        rng = np.random.default_rng(0)
        s1, s2 = rng.uniform(0, 1, 80), rng.uniform(0, 1, 80)
        two_d = RankTupleSet.from_pairs(s1, s2)
        n_d = NDTupleSet.from_matrix(np.column_stack([s1, s2]))
        np.testing.assert_array_equal(
            nd_dominator_counts(n_d), dominator_counts(two_d)
        )

    def test_blocking_transparent(self):
        rng = np.random.default_rng(1)
        ts = NDTupleSet.from_matrix(rng.integers(0, 4, (50, 3)).astype(float))
        np.testing.assert_array_equal(
            nd_dominator_counts(ts, block_rows=7),
            nd_dominator_counts(ts, block_rows=1000),
        )

    def test_dominating_set_preserves_topk(self):
        rng = np.random.default_rng(2)
        ts = NDTupleSet.from_matrix(rng.uniform(0, 1, (150, 4)))
        k = 5
        dom = nd_dominating_set(ts, k)
        assert len(dom) < len(ts)
        for _ in range(10):
            weights = _random_weights(rng, 4)
            full = np.sort(ts.scores(weights))[::-1][:k]
            pruned = np.sort(dom.scores(weights))[::-1][:k]
            np.testing.assert_allclose(pruned, full, atol=1e-9)

    def test_k_validation(self):
        with pytest.raises(ConstructionError):
            nd_dominating_set(NDTupleSet.from_matrix(np.zeros((1, 2))), 0)


class TestLayeredIndex:
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_matches_brute_force(self, d):
        rng = np.random.default_rng(d)
        ts = NDTupleSet.from_matrix(rng.uniform(0, 100, (200, d)))
        k = 8
        index = LayeredTopKIndex(ts, k)
        for _ in range(25):
            weights = _random_weights(rng, d)
            kk = int(rng.integers(1, k + 1))
            got = [r.score for r in index.query(weights, kk)]
            expected = np.sort(ts.scores(weights))[::-1][:kk]
            np.testing.assert_allclose(got, expected, atol=1e-9)

    def test_degenerate_coplanar_points(self):
        # All points on the plane x + y + z = 10: Qhull would fail;
        # the index falls back to a single layer and stays exact.
        rng = np.random.default_rng(9)
        xy = rng.uniform(0, 5, (40, 2))
        z = 10.0 - xy.sum(axis=1)
        ts = NDTupleSet.from_matrix(np.column_stack([xy, z]))
        index = LayeredTopKIndex(ts, 5)
        weights = np.array([1.0, 2.0, 0.5])
        got = [r.score for r in index.query(weights, 5)]
        expected = np.sort(ts.scores(weights))[::-1][:5]
        np.testing.assert_allclose(got, expected, atol=1e-9)

    def test_tiny_input(self):
        ts = NDTupleSet.from_matrix([[1.0, 2.0, 3.0]])
        index = LayeredTopKIndex(ts, 3)
        assert len(index.query([1.0, 1.0, 1.0], 3)) == 1

    def test_query_validation(self):
        ts = NDTupleSet.from_matrix(np.random.default_rng(0).uniform(0, 1, (20, 3)))
        index = LayeredTopKIndex(ts, 4)
        with pytest.raises(QueryError, match="weights"):
            index.query([1.0, 1.0], 2)
        with pytest.raises(QueryError, match="non-negative"):
            index.query([1.0, -1.0, 0.0], 2)
        with pytest.raises(QueryError, match="exceeds"):
            index.query([1.0, 1.0, 1.0], 5)

    def test_small_k_touches_few_layers(self):
        rng = np.random.default_rng(11)
        ts = NDTupleSet.from_matrix(rng.uniform(0, 1, (1000, 3)))
        index = LayeredTopKIndex(ts, 10)
        index.query([1.0, 1.0, 1.0], 1)
        assert index.last_query.layers_visited == 1

    @staticmethod
    def _exact_3d_index(k=10):
        """A d = 3 index over uniform points, checked against brute force."""
        rng = np.random.default_rng(11)
        ts = NDTupleSet.from_matrix(rng.uniform(0, 1, (1000, 3)))
        index = LayeredTopKIndex(ts, k)
        for _ in range(10):
            weights = _random_weights(rng, 3)
            got = [r.score for r in index.query(weights, k)]
            expected = np.sort(ts.scores(weights))[::-1][:k]
            np.testing.assert_allclose(got, expected, atol=1e-9)
        return index

    def test_without_scipy_one_layer_stays_exact(self, monkeypatch):
        # A None entry makes ``from scipy.spatial import ...`` raise
        # ImportError whether or not scipy is installed.
        monkeypatch.setitem(sys.modules, "scipy.spatial", None)
        assert self._exact_3d_index().n_layers == 1

    def test_with_scipy_peels_several_layers(self):
        pytest.importorskip("scipy.spatial")
        assert self._exact_3d_index().n_layers > 1

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 4),
        st.integers(3, 40),
        st.integers(1, 5),
    )
    def test_exactness_property(self, seed, d, n, k):
        rng = np.random.default_rng(seed)
        ts = NDTupleSet.from_matrix(rng.integers(0, 6, (n, d)).astype(float))
        index = LayeredTopKIndex(ts, k)
        weights = _random_weights(rng, d)
        got = [r.score for r in index.query(weights, k)]
        expected = np.sort(ts.scores(weights))[::-1][: min(k, n)]
        np.testing.assert_allclose(got, expected, atol=1e-9)


class TestMultiwayJoin:
    def test_three_way_preserves_topk(self):
        rng = np.random.default_rng(3)
        inputs = [
            (rng.integers(0, 6, 30), rng.uniform(0, 1, 30)) for _ in range(3)
        ]
        k = 4
        candidates, rows = topk_multiway_join_candidates(inputs, k)
        assert candidates.dimensions == 3
        assert len(rows) == len(candidates)

        # Full three-way join oracle.
        full_values = []
        groups = []
        for keys, ranks in inputs:
            by_key: dict = {}
            for row, key in enumerate(keys):
                by_key.setdefault(key, []).append(row)
            groups.append(by_key)
        shared = set(groups[0]) & set(groups[1]) & set(groups[2])
        for key in shared:
            for a in groups[0][key]:
                for b in groups[1][key]:
                    for c in groups[2][key]:
                        full_values.append(
                            [inputs[0][1][a], inputs[1][1][b], inputs[2][1][c]]
                        )
        full = np.asarray(full_values)

        for _ in range(10):
            weights = _random_weights(rng, 3)
            want = min(k, len(full))
            top_full = np.sort(full @ weights)[::-1][:want]
            top_cand = np.sort(candidates.scores(weights))[::-1][:want]
            np.testing.assert_allclose(top_cand, top_full, atol=1e-9)

    def test_candidate_rows_point_back_to_inputs(self):
        inputs = [
            (np.array([1, 1, 2]), np.array([5.0, 7.0, 1.0])),
            (np.array([1, 2]), np.array([3.0, 4.0])),
        ]
        candidates, rows = topk_multiway_join_candidates(inputs, 2)
        for tid, ids in zip(candidates.tids, rows):
            values = candidates.values[int(tid)]
            assert values[0] == inputs[0][1][ids[0]]
            assert values[1] == inputs[1][1][ids[1]]

    def test_validation(self):
        with pytest.raises(ConstructionError, match="two inputs"):
            topk_multiway_join_candidates([(np.array([1]), np.array([1.0]))], 2)
        with pytest.raises(ConstructionError, match="positive"):
            topk_multiway_join_candidates(
                [
                    (np.array([1]), np.array([1.0])),
                    (np.array([1]), np.array([1.0])),
                ],
                0,
            )

    def test_disjoint_keys_empty_result(self):
        candidates, rows = topk_multiway_join_candidates(
            [
                (np.array([1]), np.array([1.0])),
                (np.array([2]), np.array([1.0])),
            ],
            3,
        )
        assert len(candidates) == 0 and rows == []


class TestEndToEndMultiway:
    def test_three_relation_topk_join(self):
        """The full future-work pipeline: 3-way join -> layered index."""
        rng = np.random.default_rng(4)
        inputs = [
            (rng.integers(0, 10, 60), rng.uniform(0, 100, 60))
            for _ in range(3)
        ]
        k = 5
        candidates, _ = topk_multiway_join_candidates(inputs, k)
        index = LayeredTopKIndex(candidates, k)
        for _ in range(10):
            weights = _random_weights(rng, 3)
            got = [r.score for r in index.query(weights, k)]
            expected = np.sort(candidates.scores(weights))[::-1][:k]
            np.testing.assert_allclose(got, expected, atol=1e-9)
