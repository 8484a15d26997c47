"""Shared fixtures and oracles for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.index import RankedJoinIndex
from repro.core.scoring import Preference
from repro.core.tuples import RankTupleSet
from repro.datagen.preferences import random_preferences


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260706)


@pytest.fixture
def uniform_set(rng) -> RankTupleSet:
    """300 uniformly random rank pairs, duplicate-free with probability 1."""
    return RankTupleSet.from_pairs(
        rng.uniform(0, 100, 300), rng.uniform(0, 100, 300)
    )


def brute_force_topk_scores(
    tuples: RankTupleSet, preference: Preference, k: int
) -> list[float]:
    """Oracle: the top-k score sequence by exhaustive evaluation."""
    scores = preference.p1 * tuples.s1 + preference.p2 * tuples.s2
    return sorted((float(s) for s in scores), reverse=True)[:k]


def assert_scores_match(results, tuples, preference, k, *, atol=1e-9):
    """Assert a query answer's score sequence equals the brute force one."""
    got = [result.score for result in results]
    expected = brute_force_topk_scores(tuples, preference, k)
    assert len(got) == len(expected)
    np.testing.assert_allclose(got, expected, atol=atol, rtol=1e-12)


def assert_matches_rebuild(index, live, k_bound, k, seed=9, **options):
    """Assert a maintained tier answers bit for bit like a from-scratch
    build over ``live`` (tid -> tuple) with the same build options."""
    reference = RankedJoinIndex.build(sorted(live.values()), k_bound, **options)
    preferences = random_preferences(20, seed=seed)
    assert index.query_batch(preferences, k) == reference.query_batch(
        preferences, k
    )
    for preference in preferences:
        assert index.query(preference, k) == reference.query(preference, k)
