"""Tests for the ConstructRJI sweep (Section 6), including the paper's
worked Example 2 and exactness under co-linear / duplicate rank pairs."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.geometry import HALF_PI
from repro.core.sweep import Region, sweep_regions
from repro.core.tuples import RankTupleSet
from repro.errors import ConstructionError


def _check_tiling(regions: list[Region]):
    assert regions[0].lo == 0.0
    assert regions[-1].hi == pytest.approx(HALF_PI)
    for left, right in zip(regions, regions[1:]):
        assert left.hi == right.lo
        assert left.lo < left.hi


def _verify_against_brute_force(ts: RankTupleSet, k: int, regions):
    """Every angle's exact top-k score multiset must live in its region."""
    probes = list(np.linspace(1e-6, HALF_PI - 1e-6, 60))
    for region in regions:
        if region.hi > region.lo:
            probes.append((region.lo + region.hi) / 2)
    by_tid = {int(t): (float(a), float(b)) for t, a, b in zip(ts.tids, ts.s1, ts.s2)}
    boundaries = [r.lo for r in regions[1:]]
    import bisect

    for angle in probes:
        p1, p2 = math.cos(angle), math.sin(angle)
        region = regions[bisect.bisect_right(boundaries, angle)]
        k_eff = min(k, len(ts))
        expected = sorted(
            (p1 * a + p2 * b for a, b in zip(ts.s1, ts.s2)), reverse=True
        )[:k_eff]
        got = sorted(
            (p1 * by_tid[t][0] + p2 * by_tid[t][1] for t in region.tids),
            reverse=True,
        )[:k_eff]
        np.testing.assert_allclose(got, expected, atol=1e-9)


class TestPaperExample2:
    """Figure 7: four tuples, K=2, three materialized orderings."""

    # Geometry chosen to match the figure: t1 dominates the picture's
    # top-left; t4 is strongest near the s1-axis; sweeping towards the
    # s2-axis replaces t4 with t3, then t3 with t2.
    TUPLES = RankTupleSet(
        np.array([1, 2, 3, 4]),
        np.array([4.0, 5.0, 7.0, 9.0]),   # s1
        np.array([9.0, 7.0, 6.0, 1.0]),   # s2
    )

    def test_three_regions_for_k2(self):
        regions, stats = sweep_regions(self.TUPLES, 2)
        # R0 = {t1?,...}: at angle 0 top-2 by s1 is {t4, t3}; at pi/2 it is
        # {t1, t2}; the example materializes exactly 2 separating points
        # that change the composition (e34-like and e23-like crossings).
        _check_tiling(regions)
        compositions = [set(r.tids) for r in regions]
        assert compositions[0] == {4, 3}
        assert compositions[-1] == {1, 2}
        assert len(regions) == len(set(map(frozenset, compositions)))
        _verify_against_brute_force(self.TUPLES, 2, regions)

    def test_top1_queries_also_answered(self):
        regions, _ = sweep_regions(self.TUPLES, 2)
        _verify_against_brute_force(self.TUPLES, 1, regions)


class TestSweepBasics:
    def test_k_must_be_positive(self):
        with pytest.raises(ConstructionError):
            sweep_regions(RankTupleSet.from_pairs([1.0], [1.0]), 0)

    def test_empty_input_single_empty_region(self):
        regions, stats = sweep_regions(RankTupleSet.empty(), 3)
        assert len(regions) == 1
        assert regions[0].tids == ()
        assert stats.n_separating == 0

    def test_single_tuple(self):
        regions, _ = sweep_regions(RankTupleSet.from_pairs([5.0], [7.0]), 2)
        assert len(regions) == 1
        assert regions[0].tids == (0,)

    def test_k_at_least_n_single_region(self):
        ts = RankTupleSet.from_pairs([1.0, 5.0, 3.0], [9.0, 2.0, 4.0])
        regions, stats = sweep_regions(ts, 5)
        assert len(regions) == 1
        assert set(regions[0].tids) == {0, 1, 2}

    def test_dominating_chain_single_region(self):
        ts = RankTupleSet.from_pairs([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        regions, _ = sweep_regions(ts, 2)
        assert len(regions) == 1
        assert set(regions[0].tids) == {2, 1}

    def test_region_width_is_k(self):
        rng = np.random.default_rng(5)
        ts = RankTupleSet.from_pairs(rng.uniform(0, 1, 80), rng.uniform(0, 1, 80))
        regions, _ = sweep_regions(ts, 7)
        assert all(len(r.tids) == 7 for r in regions)

    def test_tie_width_is_not_a_knob(self):
        ts = RankTupleSet.from_pairs([1.0, 2.0], [2.0, 1.0])
        with pytest.raises(TypeError):
            sweep_regions(ts, 1, angle_tol=1e-6)

    def test_stats_counts(self):
        rng = np.random.default_rng(6)
        ts = RankTupleSet.from_pairs(rng.uniform(0, 1, 50), rng.uniform(0, 1, 50))
        regions, stats = sweep_regions(ts, 4)
        assert stats.n_input == 50
        assert stats.pairs_considered == 50 * 49 // 2
        assert stats.n_regions == len(regions)
        assert stats.n_separating == len(regions) - 1


class TestSweepDegenerate:
    def test_collinear_triple_resolved_exactly(self):
        # Three co-linear points share one separating vector (Lemma 5).
        ts = RankTupleSet.from_pairs(
            [1.0, 2.0, 3.0, 0.5], [3.0, 2.0, 1.0, 0.5]
        )
        for k in (1, 2, 3):
            regions, _ = sweep_regions(ts, k)
            _check_tiling(regions)
            _verify_against_brute_force(ts, k, regions)

    def test_duplicate_rank_pairs(self):
        ts = RankTupleSet.from_pairs(
            [2.0, 2.0, 1.0, 3.0], [1.0, 1.0, 3.0, 0.5]
        )
        for k in (1, 2, 4):
            regions, _ = sweep_regions(ts, k)
            _verify_against_brute_force(ts, k, regions)

    def test_grid_with_many_simultaneous_crossings(self):
        values = [(float(a), float(b)) for a in range(5) for b in range(5)]
        ts = RankTupleSet(
            np.arange(len(values)),
            np.array([v[0] for v in values]),
            np.array([v[1] for v in values]),
        )
        for k in (1, 3, 6):
            regions, _ = sweep_regions(ts, k)
            _check_tiling(regions)
            _verify_against_brute_force(ts, k, regions)


class TestOrderedSweep:
    def test_regions_are_score_ordered_internally(self):
        rng = np.random.default_rng(9)
        ts = RankTupleSet.from_pairs(rng.uniform(0, 1, 60), rng.uniform(0, 1, 60))
        regions, _ = sweep_regions(ts, 5, record_order=True)
        by_tid = {
            int(t): (float(a), float(b))
            for t, a, b in zip(ts.tids, ts.s1, ts.s2)
        }
        for region in regions:
            mid = (region.lo + region.hi) / 2
            p1, p2 = math.cos(mid), math.sin(mid)
            scores = [
                p1 * by_tid[t][0] + p2 * by_tid[t][1] for t in region.tids
            ]
            assert scores == sorted(scores, reverse=True)

    def test_at_least_as_many_regions_as_standard(self):
        rng = np.random.default_rng(10)
        ts = RankTupleSet.from_pairs(rng.uniform(0, 1, 60), rng.uniform(0, 1, 60))
        standard, _ = sweep_regions(ts, 5)
        ordered, _ = sweep_regions(ts, 5, record_order=True)
        assert len(ordered) >= len(standard)


rank_coords = st.integers(min_value=0, max_value=7)


class TestSweepProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.tuples(rank_coords, rank_coords), min_size=1, max_size=20),
        st.integers(min_value=1, max_value=5),
    )
    def test_exact_on_adversarial_integer_grids(self, values, k):
        ts = RankTupleSet(
            np.arange(len(values)),
            np.array([float(a) for a, _ in values]),
            np.array([float(b) for _, b in values]),
        )
        regions, _ = sweep_regions(ts, k)
        _check_tiling(regions)
        _verify_against_brute_force(ts, k, regions)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(5, 60), st.integers(1, 6))
    def test_exact_on_continuous_data(self, seed, n, k):
        rng = np.random.default_rng(seed)
        ts = RankTupleSet.from_pairs(rng.uniform(0, 1, n), rng.uniform(0, 1, n))
        regions, _ = sweep_regions(ts, k)
        _verify_against_brute_force(ts, k, regions)
