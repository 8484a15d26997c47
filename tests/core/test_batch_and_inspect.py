"""Tests for the batch-query API and the region structure it reads."""

import numpy as np
import pytest

from repro.core.index import RankedJoinIndex
from repro.core.scoring import Preference
from repro.core.tuples import RankTupleSet
from repro.errors import InvalidQueryError, QueryError


def _index(n=400, k=8, seed=0, **options):
    rng = np.random.default_rng(seed)
    ts = RankTupleSet.from_pairs(rng.uniform(0, 100, n), rng.uniform(0, 100, n))
    return RankedJoinIndex.build(ts, k, **options)


class TestQueryBatch:
    @pytest.mark.parametrize(
        "options", [dict(), dict(variant="ordered"), dict(merge_slack=4)]
    )
    def test_bit_identical_to_single_queries(self, options):
        index = _index(**options)
        rng = np.random.default_rng(1)
        prefs = [
            Preference.from_angle(float(a))
            for a in rng.uniform(0, np.pi / 2, 60)
        ]
        assert index.query_batch(prefs, 5) == [
            index.query(p, 5) for p in prefs
        ]

    def test_empty_batch(self):
        assert _index().query_batch([], 3) == []

    def test_duplicate_preferences(self):
        index = _index()
        pref = Preference(1.0, 1.0)
        out = index.query_batch([pref, pref, pref], 4)
        assert out[0] == out[1] == out[2]

    def test_k_validation(self):
        index = _index(k=5)
        with pytest.raises(QueryError):
            index.query_batch([Preference(1.0, 1.0)], 6)
        with pytest.raises(QueryError):
            index.query_batch([Preference(1.0, 1.0)], 0)
        # An empty batch checks k too.
        for bad_k in (0, index.k_bound + 1):
            with pytest.raises(InvalidQueryError):
                index.query_batch([], bad_k)

    def test_axis_extremes_in_one_batch(self):
        index = _index()
        prefs = [Preference(1.0, 0.0), Preference(0.0, 1.0)]
        batch = index.query_batch(prefs, 3)
        assert batch[0] == index.query(prefs[0], 3)
        assert batch[1] == index.query(prefs[1], 3)


def _churn(index):
    """Symmetric-difference size between each pair of adjacent regions."""
    regions = index.regions
    return [len(set(a.tids) ^ set(b.tids)) for a, b in zip(regions, regions[1:])]


class TestInspect:
    def test_churn_is_two_for_unmerged(self):
        # Lemma 4: adjacent unmerged regions differ by one exchange.
        churn = _churn(_index())
        assert churn and all(c == 2 for c in churn)

    def test_churn_larger_for_merged(self):
        index = _index(merge_slack=5)
        if index.n_regions > 1:
            assert max(_churn(index)) > 2
