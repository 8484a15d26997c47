"""Tests for the public RankedJoinIndex (build + query, all variants)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.index import RankedJoinIndex
from repro.core.regionstore import RegionStore
from repro.core.scoring import Preference
from repro.core.sweep import Region
from repro.core.tuples import RankTuple, RankTupleSet
from repro.errors import ConstructionError, QueryError

from ..conftest import assert_scores_match


def _uniform(n, seed=0):
    rng = np.random.default_rng(seed)
    return RankTupleSet.from_pairs(rng.uniform(0, 100, n), rng.uniform(0, 100, n))


class TestBuildValidation:
    def test_unknown_variant(self):
        with pytest.raises(ConstructionError, match="variant"):
            RankedJoinIndex.build(_uniform(10), 3, variant="banana")

    def test_negative_merge_slack(self):
        with pytest.raises(ConstructionError, match="merge_slack"):
            RankedJoinIndex.build(_uniform(10), 3, merge_slack=-1)

    def test_ordered_cannot_be_merged(self):
        with pytest.raises(ConstructionError, match="ordered"):
            RankedJoinIndex.build(_uniform(10), 3, variant="ordered", merge_slack=2)

    def test_unknown_merge_strategy(self):
        with pytest.raises(ConstructionError, match="merge_strategy"):
            RankedJoinIndex.build(_uniform(10), 3, merge_slack=1, merge_strategy="x")

    def test_build_accepts_iterables_of_rank_tuples(self):
        index = RankedJoinIndex.build(
            [RankTuple(1, 5.0, 1.0), RankTuple(2, 1.0, 5.0)], 1
        )
        assert index.stats.n_input == 2

    def test_build_without_pruning(self):
        ts = _uniform(50)
        pruned = RankedJoinIndex.build(ts, 3)
        unpruned = RankedJoinIndex.build(ts, 3, prune=False)
        assert unpruned.stats.n_dominating == 50
        assert pruned.stats.n_dominating < 50
        pref = Preference(1.0, 0.8)
        assert [r.score for r in pruned.query(pref, 3)] == pytest.approx(
            [r.score for r in unpruned.query(pref, 3)]
        )


class TestQueryValidation:
    def test_k_zero_rejected(self):
        index = RankedJoinIndex.build(_uniform(20), 3)
        with pytest.raises(QueryError, match="positive"):
            index.query(Preference(1.0, 1.0), 0)

    def test_k_above_bound_rejected(self):
        index = RankedJoinIndex.build(_uniform(20), 3)
        with pytest.raises(QueryError, match="exceeds"):
            index.query(Preference(1.0, 1.0), 4)

class TestQueryCorrectness:
    @pytest.mark.parametrize("options", [
        dict(),
        dict(variant="ordered"),
        dict(merge_slack=3),
        dict(merge_slack=3, merge_strategy="every"),
        dict(merge_slack=10),
    ])
    def test_matches_brute_force(self, options, uniform_set):
        k_bound = 8
        index = RankedJoinIndex.build(uniform_set, k_bound, **options)
        index.check_invariants()
        rng = np.random.default_rng(42)
        for _ in range(80):
            angle = rng.uniform(0, np.pi / 2)
            pref = Preference.from_angle(float(angle))
            k = int(rng.integers(1, k_bound + 1))
            assert_scores_match(
                index.query(pref, k), uniform_set, pref, k
            )

    def test_axis_preferences(self, uniform_set):
        index = RankedJoinIndex.build(uniform_set, 5)
        for pref in (Preference(1.0, 0.0), Preference(0.0, 1.0)):
            assert_scores_match(index.query(pref, 5), uniform_set, pref, 5)

    def test_results_sorted_descending(self, uniform_set):
        index = RankedJoinIndex.build(uniform_set, 6)
        results = index.query(Preference(0.5, 0.5), 6)
        scores = [r.score for r in results]
        assert scores == sorted(scores, reverse=True)

    def test_fewer_tuples_than_k(self):
        ts = RankTupleSet.from_pairs([1.0, 2.0], [2.0, 1.0])
        index = RankedJoinIndex.build(ts, 10)
        assert len(index.query(Preference(1.0, 1.0), 10)) == 2

    def test_duplicate_rank_pairs(self):
        ts = RankTupleSet.from_pairs(
            [5.0, 5.0, 5.0, 1.0], [2.0, 2.0, 2.0, 9.0]
        )
        index = RankedJoinIndex.build(ts, 3)
        for pref in (Preference(1.0, 0.2), Preference(0.2, 1.0)):
            assert_scores_match(index.query(pref, 3), ts, pref, 3)


class TestIntrospection:
    def test_stats_shape(self, uniform_set):
        index = RankedJoinIndex.build(uniform_set, 5)
        stats = index.stats
        assert stats.n_input == len(uniform_set)
        assert 5 <= stats.n_dominating <= len(uniform_set)
        assert stats.n_regions == index.n_regions
        assert stats.n_separating == index.n_regions - 1
        assert stats.time_total >= 0.0

    def test_regions_copy_is_defensive(self, uniform_set):
        index = RankedJoinIndex.build(uniform_set, 4)
        regions = index.regions
        regions.clear()
        assert index.n_regions > 0

    def test_regions_are_a_view_of_the_store(self, uniform_set, monkeypatch):
        # The store is the one region record: packed once per build,
        # and no boxed Region outlives the constructor.
        packed = []
        pack = RegionStore.from_regions
        monkeypatch.setattr(
            RegionStore,
            "from_regions",
            lambda *args, **kwargs: packed.append(args) or pack(*args, **kwargs),
        )
        index = RankedJoinIndex.build(uniform_set, 4)
        assert len(packed) == 1
        held = [v for v in vars(index).values() if isinstance(v, (list, tuple))]
        assert not any(isinstance(item, Region) for v in held for item in v)
        first, second = index.regions, index.regions
        assert first == second == index.store.to_regions()
        assert first is not second

    def test_logical_size_grows_with_k(self, uniform_set):
        small = RankedJoinIndex.build(uniform_set, 2).logical_size_bytes()
        large = RankedJoinIndex.build(uniform_set, 10).logical_size_bytes()
        assert large > small

    def test_empty_region_list_rejected(self, uniform_set):
        index = RankedJoinIndex.build(uniform_set, 3)
        with pytest.raises(ConstructionError):
            RankedJoinIndex(3, [], index.dominating, index.stats)

    @pytest.mark.parametrize(
        "bounds,match",
        [
            ([(0.1, np.pi / 2)], "start at angle 0"),
            ([(0.0, 1.0)], "end at pi/2"),
            ([(0.0, 0.5), (0.6, np.pi / 2)], "tile the quadrant"),
            ([(0.0, 0.5), (0.5, 0.5), (0.5, np.pi / 2)], "positive width"),
        ],
        ids=["start", "end", "gap", "width"],
    )
    def test_check_invariants_catches_bad_regions(
        self, uniform_set, bounds, match
    ):
        built = RankedJoinIndex.build(uniform_set, 3)
        tids = built.regions[0].tids
        regions = [Region(lo, hi, tids) for lo, hi in bounds]
        index = RankedJoinIndex(3, regions, built.dominating, built.stats)
        with pytest.raises(ConstructionError, match=match):
            index.check_invariants()

    def test_k_effective_initially_equals_bound(self, uniform_set):
        index = RankedJoinIndex.build(uniform_set, 7)
        assert index.k_effective == 7


class TestIndexProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(3, 80),
        st.integers(1, 8),
        st.sampled_from(["standard", "ordered"]),
    )
    def test_random_instances_exact(self, seed, n, k, variant):
        ts = _uniform(n, seed)
        index = RankedJoinIndex.build(ts, k, variant=variant)
        index.check_invariants()
        rng = np.random.default_rng(seed ^ 0xABCDEF)
        for _ in range(10):
            pref = Preference.from_angle(float(rng.uniform(0, np.pi / 2)))
            kk = int(rng.integers(1, k + 1))
            assert_scores_match(index.query(pref, kk), ts, pref, kk)

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 6), st.integers(0, 6)),
            min_size=1,
            max_size=25,
        ),
        st.integers(1, 5),
    )
    def test_adversarial_grids_exact(self, values, k):
        ts = RankTupleSet(
            np.arange(len(values)),
            np.array([float(a) for a, _ in values]),
            np.array([float(b) for _, b in values]),
        )
        index = RankedJoinIndex.build(ts, k)
        for angle in np.linspace(0.01, np.pi / 2 - 0.01, 15):
            pref = Preference.from_angle(float(angle))
            assert_scores_match(index.query(pref, k), ts, pref, k)
