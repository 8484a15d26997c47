"""The consolidated query API: preference coercion and error types.

``query`` / ``query_batch`` / ``robust_topk_candidates`` all accept a
:class:`Preference`, a ``(p1, p2)`` pair, or a raw sweep angle, and all
reject malformed preferences and out-of-bound ``k`` with
:class:`InvalidQueryError`.
"""

import math

import numpy as np
import pytest

from repro.baselines.robust import robust_topk_candidates
from repro.core.index import RankedJoinIndex
from repro.core.scoring import Preference, as_preference
from repro.core.tuples import RankTupleSet
from repro.errors import (
    InvalidQueryError,
    QueryError,
    ReproError,
)


def _uniform(n, seed=5):
    rng = np.random.default_rng(seed)
    return RankTupleSet.from_pairs(
        rng.uniform(0, 100, n), rng.uniform(0, 100, n)
    )


@pytest.fixture(scope="module")
def index():
    return RankedJoinIndex.build(_uniform(300), 8)


class TestAsPreference:
    def test_preference_passthrough(self):
        preference = Preference(0.6, 0.8)
        assert as_preference(preference) is preference

    def test_angle(self):
        assert as_preference(0.0) == Preference.from_angle(0.0)
        assert as_preference(math.pi / 4) == Preference.from_angle(
            math.pi / 4
        )

    def test_pair(self):
        assert as_preference((0.6, 0.8)) == Preference(0.6, 0.8)
        assert as_preference([0.6, 0.8]) == Preference(0.6, 0.8)
        assert as_preference(np.array([0.6, 0.8])) == Preference(0.6, 0.8)

    def test_numpy_scalar_is_an_angle(self):
        assert as_preference(np.float64(0.5)) == Preference.from_angle(0.5)

    @pytest.mark.parametrize(
        "bad",
        [
            (1.0, 2.0, 3.0),
            (1.0,),
            "0.5",
            None,
            (-0.5, 0.5),
            float("nan"),
        ],
    )
    def test_malformed_raises_invalid_query(self, bad):
        with pytest.raises(InvalidQueryError):
            as_preference(bad)


class TestFormEquivalence:
    """All three input forms must give bit-identical answers."""

    ANGLES = [0.0, 0.3, math.pi / 4, 1.1, math.pi / 2]

    @pytest.mark.parametrize("angle", ANGLES)
    def test_query_forms_identical(self, index, angle):
        preference = Preference.from_angle(angle)
        from_pref = index.query(preference, 6)
        from_pair = index.query((preference.p1, preference.p2), 6)
        from_angle = index.query(angle, 6)
        assert from_pref == from_pair == from_angle

    def test_query_batch_forms_identical(self, index):
        preferences = [Preference.from_angle(a) for a in self.ANGLES]
        as_prefs = index.query_batch(preferences, 6)
        as_pairs = index.query_batch(
            [(p.p1, p.p2) for p in preferences], 6
        )
        as_angles = index.query_batch(self.ANGLES, 6)
        assert as_prefs == as_pairs == as_angles

    def test_robust_forms_identical(self, index):
        lo, hi = Preference.from_angle(0.2), Preference.from_angle(1.2)
        from_prefs = robust_topk_candidates(index, lo, hi, 6)
        from_angles = robust_topk_candidates(index, 0.2, 1.2, 6)
        from_pairs = robust_topk_candidates(
            index, (lo.p1, lo.p2), (hi.p1, hi.p2), 6
        )
        assert from_prefs == from_angles == from_pairs


class TestInvalidQueryError:
    def test_hierarchy(self):
        assert issubclass(InvalidQueryError, QueryError)
        assert issubclass(InvalidQueryError, ReproError)

    def test_query_k_too_large(self, index):
        with pytest.raises(InvalidQueryError, match="exceeds"):
            index.query(0.5, index.k_bound + 1)

    def test_query_k_nonpositive(self, index):
        with pytest.raises(InvalidQueryError, match="positive"):
            index.query(0.5, 0)

    def test_query_malformed_preference(self, index):
        with pytest.raises(InvalidQueryError):
            index.query((1.0, 2.0, 3.0), 4)

    def test_query_batch_malformed_preference(self, index):
        with pytest.raises(InvalidQueryError):
            index.query_batch(["bad"], 4)

    def test_robust_k_too_large(self, index):
        with pytest.raises(InvalidQueryError, match="exceeds"):
            robust_topk_candidates(index, 0.0, 1.0, index.k_bound + 1)

    def test_robust_bad_range_stays_query_error(self, index):
        # Range violations keep their historical QueryError contract.
        with pytest.raises(QueryError, match="angle range"):
            robust_topk_candidates(index, 1.0, 0.5, 4)

    def test_legacy_catch_still_works(self, index):
        # Pre-consolidation callers caught QueryError; they must keep
        # working now that the concrete type is InvalidQueryError.
        with pytest.raises(QueryError):
            index.query(0.5, index.k_bound + 1)
