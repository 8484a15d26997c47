"""Tests for the full-scan baseline."""

import numpy as np
import pytest

from repro.baselines.fullscan import FullScanTopK
from repro.core.scoring import Preference
from repro.core.tuples import RankTupleSet
from repro.errors import QueryError


class TestFullScan:
    def test_empty(self):
        scan = FullScanTopK(RankTupleSet.empty())
        assert scan.query(Preference(1.0, 1.0), 5) == []

    def test_k_validation(self):
        scan = FullScanTopK(RankTupleSet.from_pairs([1.0], [1.0]))
        with pytest.raises(QueryError):
            scan.query(Preference(1.0, 1.0), 0)

    def test_matches_numpy_sort(self):
        rng = np.random.default_rng(0)
        ts = RankTupleSet.from_pairs(rng.uniform(0, 1, 500), rng.uniform(0, 1, 500))
        scan = FullScanTopK(ts)
        for _ in range(30):
            pref = Preference.from_angle(float(rng.uniform(0, np.pi / 2)))
            k = int(rng.integers(1, 50))
            got = [r.score for r in scan.query(pref, k)]
            expected = np.sort(ts.scores(pref.p1, pref.p2))[::-1][:k]
            np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_k_exceeding_n_returns_all_sorted(self):
        ts = RankTupleSet.from_pairs([1.0, 3.0, 2.0], [0.0, 0.0, 0.0])
        scan = FullScanTopK(ts)
        results = scan.query(Preference(1.0, 0.0), 10)
        assert [r.score for r in results] == [3.0, 2.0, 1.0]

    def test_deterministic_tie_break(self):
        ts = RankTupleSet.from_pairs([2.0, 2.0, 2.0], [2.0, 2.0, 2.0])
        scan = FullScanTopK(ts)
        first = scan.query(Preference(1.0, 1.0), 2)
        second = scan.query(Preference(1.0, 1.0), 2)
        assert [r.tid for r in first] == [r.tid for r in second]

    def test_ties_at_the_cut_follow_the_documented_order(self):
        """Score desc, then s1 desc, then tid asc — also among the tuples
        tied at the k-th score, which a partial partition picks at will."""
        rng = np.random.default_rng(40)
        prefs = [Preference(1.0, 1.0), Preference(1.0, 0.0), Preference(0.0, 1.0),
                 Preference(2.0, 1.0), Preference(1.0, 3.0)]
        for _ in range(300):
            ranks = rng.integers(0, 6, (40, 2)).astype(float)
            ts = RankTupleSet(rng.permutation(40), ranks[:, 0], ranks[:, 1])
            scan = FullScanTopK(ts)
            for pref in prefs:
                oracle = sorted(
                    zip(ts.tids.tolist(), ts.s1.tolist(), ts.s2.tolist()),
                    key=lambda t: (-(pref.p1 * t[1] + pref.p2 * t[2]), -t[1], t[0]),
                )
                for k in (1, 3, 5):
                    got = [r.tid for r in scan.query(pref, k)]
                    assert got == [t[0] for t in oracle[:k]]
