"""Tests for the DominatingSet algorithm (Section 4, Figure 2)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dominance import (
    dominating_set,
    dominating_set_naive,
    dominator_counts,
)
from repro.core.tuples import RankTupleSet
from repro.errors import ConstructionError


def _pairs(values) -> RankTupleSet:
    s1 = np.array([v[0] for v in values], dtype=np.float64)
    s2 = np.array([v[1] for v in values], dtype=np.float64)
    return RankTupleSet(np.arange(len(values)), s1, s2)


class TestPaperExamples:
    def test_figure_3a_antichain_keeps_everything(self):
        # Figure 3(a): (quality, availability) = (10,5), (3,3)... the three
        # join tuples are mutually non-dominating, so D_1 is all of them.
        ts = _pairs([(5.0, 10.0), (3.0, 3.0), (2.0, 8.0)])
        # adjust to the paper's actual antichain: no tuple dominates another
        ts = _pairs([(5.0, 2.0), (3.0, 4.0), (1.0, 6.0)])
        assert len(dominating_set(ts, 1)) == 3

    def test_figure_3b_single_dominator(self):
        # Figure 3(b): one tuple dominates the other two; D_1 is that tuple.
        ts = _pairs([(5.0, 5.0), (3.0, 3.0), (2.0, 4.0)])
        dom = dominating_set(ts, 1)
        assert len(dom) == 1
        assert dom.row(0).s1 == 5.0 and dom.row(0).s2 == 5.0


class TestDominatorCounts:
    def test_counts_chain(self):
        ts = _pairs([(1.0, 1.0), (2.0, 2.0), (3.0, 3.0)])
        assert list(dominator_counts(ts)) == [2, 1, 0]

    def test_identical_pairs_do_not_dominate_each_other(self):
        ts = _pairs([(2.0, 2.0), (2.0, 2.0)])
        assert list(dominator_counts(ts)) == [0, 0]

    def test_tie_on_one_axis_counts_as_domination(self):
        ts = _pairs([(2.0, 5.0), (2.0, 3.0)])
        assert list(dominator_counts(ts)) == [0, 1]


class TestDominatingSet:
    def test_k_must_be_positive(self):
        ts = _pairs([(1.0, 1.0)])
        with pytest.raises(ConstructionError):
            dominating_set(ts, 0)
        with pytest.raises(ConstructionError):
            dominating_set_naive(ts, -3)

    def test_empty_input(self):
        empty = RankTupleSet.empty()
        assert len(dominating_set(empty, 5)) == 0
        assert len(dominating_set_naive(empty, 5)) == 0

    def test_k_larger_than_n_keeps_everything(self):
        ts = _pairs([(1.0, 1.0), (2.0, 2.0), (3.0, 3.0)])
        assert len(dominating_set(ts, 10)) == 3

    def test_chain_keeps_exactly_k(self):
        ts = _pairs([(float(i), float(i)) for i in range(20)])
        for k in (1, 3, 7):
            assert len(dominating_set(ts, k)) == k
            assert len(dominating_set_naive(ts, k)) == k

    def test_output_sorted_for_sweep(self):
        rng = np.random.default_rng(1)
        ts = RankTupleSet.from_pairs(
            rng.uniform(0, 1, 100), rng.uniform(0, 1, 100)
        )
        dom = dominating_set(ts, 5)
        assert list(dom.s1) == sorted(dom.s1, reverse=True)

    def test_matches_naive_on_continuous_data(self):
        rng = np.random.default_rng(2)
        ts = RankTupleSet.from_pairs(
            rng.uniform(0, 1, 200), rng.uniform(0, 1, 200)
        )
        for k in (1, 2, 5, 20):
            fast = dominating_set(ts, k)
            naive = dominating_set_naive(ts, k)
            assert set(fast.tids) == set(naive.tids)

    def test_monotone_in_k_lemma_3(self):
        # Lemma 3: D_{k1} subseteq D_{k2} subseteq D_K for k1 <= k2 <= K.
        rng = np.random.default_rng(3)
        ts = RankTupleSet.from_pairs(
            rng.uniform(0, 1, 150), rng.uniform(0, 1, 150)
        )
        previous: set[int] = set()
        for k in (1, 2, 4, 8, 16):
            current = set(dominating_set(ts, k).tids)
            assert previous <= current
            previous = current


rank_lists = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=8),
        st.integers(min_value=0, max_value=8),
    ),
    min_size=1,
    max_size=40,
)


class TestDominatingSetProperties:
    @settings(max_examples=100, deadline=None)
    @given(rank_lists, st.integers(min_value=1, max_value=6))
    def test_superset_of_exact_and_discards_only_dominated(self, values, k):
        """The single-pass output contains the exact D_K, and everything it
        discards has >= K true dominators (correctness of Lemma 2)."""
        ts = _pairs([(float(a), float(b)) for a, b in values])
        fast = set(dominating_set(ts, k).tids)
        exact = set(dominating_set_naive(ts, k).tids)
        assert exact <= fast
        counts = dominator_counts(ts)
        discarded = set(int(t) for t in ts.tids) - fast
        for tid in discarded:
            assert counts[list(ts.tids).index(tid)] >= k

    @settings(max_examples=60, deadline=None)
    @given(rank_lists, st.integers(min_value=1, max_value=6))
    def test_topk_answers_survive_pruning(self, values, k):
        """For random preferences, the exact top-k score multiset is fully
        available inside the pruned set (Lemma 2's guarantee)."""
        ts = _pairs([(float(a), float(b)) for a, b in values])
        dom = dominating_set(ts, k)
        assert len(dom) >= min(k, len(ts))
        rng = np.random.default_rng(7)
        for _ in range(5):
            angle = rng.uniform(0, np.pi / 2)
            p1, p2 = np.cos(angle), np.sin(angle)
            want = min(k, len(ts))
            full = np.sort(ts.scores(p1, p2))[::-1][:want]
            pruned = np.sort(dom.scores(p1, p2))[::-1][:want]
            np.testing.assert_allclose(pruned, full, atol=1e-9)
