"""Tests for the K-bound advisor."""

import numpy as np
import pytest

from repro.bench.advisor import advise_k
from repro.core.tuples import RankTupleSet
from repro.errors import ConstructionError


def _tuples(n=500, seed=0):
    rng = np.random.default_rng(seed)
    return RankTupleSet.from_pairs(rng.uniform(0, 100, n), rng.uniform(0, 100, n))


class TestValidation:
    def test_empty_workload_rejected(self):
        with pytest.raises(ConstructionError, match="at least one"):
            advise_k(_tuples(), [])

    def test_non_positive_k_rejected(self):
        with pytest.raises(ConstructionError, match="positive"):
            advise_k(_tuples(), [3, 0])

    def test_bad_quantile_rejected(self):
        with pytest.raises(ConstructionError, match="quantile"):
            advise_k(_tuples(), [3], coverage_quantile=1.5)


class TestAdvice:
    def test_recommendation_covers_quantile(self):
        report = advise_k(
            _tuples(), [1, 2, 3, 5, 5, 8, 10], n_probe_queries=10
        )
        assert report.quantile_k == 10
        assert report.recommended_k >= report.quantile_k
        assert report.recommended_k == report.candidates[0].k_bound

    def test_candidates_cover_headroom_factors(self):
        report = advise_k(
            _tuples(), [4, 4, 4], headroom=(1.0, 3.0), n_probe_queries=5
        )
        assert [c.k_bound for c in report.candidates] == [4, 12]

    def test_space_grows_with_k(self):
        report = advise_k(
            _tuples(n=800), [5] * 10, headroom=(1.0, 8.0), n_probe_queries=5
        )
        assert report.candidates[-1].disk_bytes >= report.candidates[0].disk_bytes
        assert (
            report.candidates[-1].n_dominating
            > report.candidates[0].n_dominating
        )

    def test_render_contains_table(self):
        report = advise_k(_tuples(), [2, 3], n_probe_queries=5)
        text = report.render()
        assert "recommended K" in text
        assert "query us" in text
        for candidate in report.candidates:
            assert str(candidate.k_bound) in text
