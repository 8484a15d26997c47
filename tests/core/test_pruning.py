"""Tests for Lemma 1 join-result pruning and rid-pair packing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pruning import (
    decode_rid_pair,
    encode_rid_pair,
    full_join_pairs,
    topk_join_candidates,
)
from repro.errors import ConstructionError


class TestRidPairPacking:
    def test_roundtrip(self):
        for left, right in [(0, 0), (1, 2), (12345, 67890), (2**31 - 1, 0)]:
            assert decode_rid_pair(encode_rid_pair(left, right)) == (left, right)

    def test_out_of_range_rejected(self):
        with pytest.raises(ConstructionError):
            encode_rid_pair(2**31, 0)
        with pytest.raises(ConstructionError):
            encode_rid_pair(0, -1)

    @given(st.integers(0, 2**31 - 1), st.integers(0, 2**31 - 1))
    def test_roundtrip_property(self, left, right):
        packed = encode_rid_pair(left, right)
        assert packed >= 0
        assert decode_rid_pair(packed) == (left, right)


class TestFullJoinPairs:
    def test_cross_product_within_key_groups(self):
        left_keys = np.array([1, 1, 2])
        right_keys = np.array([1, 2, 2])
        result = full_join_pairs(
            left_keys, np.array([10.0, 20.0, 30.0]),
            right_keys, np.array([1.0, 2.0, 3.0]),
        )
        # key 1: 2 left x 1 right; key 2: 1 left x 2 right => 4 pairs.
        assert len(result) == 4

    def test_no_matches(self):
        result = full_join_pairs(
            np.array([1]), np.array([1.0]), np.array([2]), np.array([2.0])
        )
        assert len(result) == 0


class TestTopKJoinCandidates:
    def test_k_must_be_positive(self):
        with pytest.raises(ConstructionError):
            topk_join_candidates(
                np.array([1]), np.array([1.0]), np.array([1]), np.array([1.0]), 0
            )

    def test_keeps_k_best_partners_per_left_tuple(self):
        left_keys = np.array([7])
        right_keys = np.array([7, 7, 7, 7])
        right_ranks = np.array([5.0, 9.0, 1.0, 7.0])
        result = topk_join_candidates(
            left_keys, np.array([3.0]), right_keys, right_ranks, 2
        )
        assert len(result) == 2
        assert sorted(result.s2) == [7.0, 9.0]

    def test_no_shared_key_gives_no_candidates(self):
        result = topk_join_candidates(
            np.array([1]), np.array([1.0]), np.array([2]), np.array([2.0]), 3
        )
        assert len(result) == 0

    def test_partner_ties_broken_by_row_id(self):
        right_ranks = np.array([5.0, 5.0, 5.0])
        result = topk_join_candidates(
            np.array([1]), np.array([0.0]),
            np.array([1, 1, 1]), right_ranks, 2,
        )
        rights = sorted(decode_rid_pair(int(t))[1] for t in result.tids)
        assert rights == [0, 1]

    def test_subset_of_full_join(self):
        rng = np.random.default_rng(4)
        lk = rng.integers(0, 10, 50)
        rk = rng.integers(0, 10, 60)
        lr = rng.uniform(0, 1, 50)
        rr = rng.uniform(0, 1, 60)
        full = set(full_join_pairs(lk, lr, rk, rr).tids)
        pruned = set(topk_join_candidates(lk, lr, rk, rr, 3).tids)
        assert pruned <= full

    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(1, 5),
        st.integers(2, 30),
        st.integers(2, 30),
        st.integers(1, 4),
    )
    def test_preserves_every_topk_answer(self, k, n_left, n_right, n_keys):
        """Lemma 1: the pruned candidates contain the top-k of the full
        join for any preference."""
        rng = np.random.default_rng(n_left * 100 + n_right)
        lk = rng.integers(0, n_keys, n_left)
        rk = rng.integers(0, n_keys, n_right)
        lr = rng.uniform(0, 1, n_left)
        rr = rng.uniform(0, 1, n_right)
        full = full_join_pairs(lk, lr, rk, rr)
        pruned = topk_join_candidates(lk, lr, rk, rr, k)
        if len(full) == 0:
            assert len(pruned) == 0
            return
        assert len(pruned) <= k * n_left
        for angle in (0.1, 0.7, 1.4):
            p1, p2 = np.cos(angle), np.sin(angle)
            want = min(k, len(full))
            top_full = np.sort(full.scores(p1, p2))[::-1][:want]
            top_pruned = np.sort(pruned.scores(p1, p2))[::-1][:want]
            np.testing.assert_allclose(top_pruned, top_full, atol=1e-9)
