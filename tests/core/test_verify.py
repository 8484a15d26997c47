"""Tests for the index self-verification module."""

import numpy as np

from repro.bench.verify import verify_index
from repro.core.index import RankedJoinIndex
from repro.core.sweep import Region
from repro.core.tuples import RankTupleSet


def _index(n=200, k=6, seed=0):
    rng = np.random.default_rng(seed)
    ts = RankTupleSet.from_pairs(rng.uniform(0, 100, n), rng.uniform(0, 100, n))
    return ts, RankedJoinIndex.build(ts, k)


def _sabotaged(index, retid):
    """``index`` over regions whose tids went through ``retid(position, tids)``."""
    regions = [
        Region(r.lo, r.hi, retid(i, r.tids)) for i, r in enumerate(index.regions)
    ]
    return RankedJoinIndex(index.k_bound, regions, index.dominating, index.stats)


class TestVerify:
    def test_healthy_index_passes(self):
        ts, index = _index()
        report = verify_index(index, reference=ts, n_probes=50)
        assert report.ok
        assert report.probes == 50
        assert "OK" in report.render()

    def test_default_reference_is_dominating_set(self):
        _, index = _index(seed=1)
        assert verify_index(index, n_probes=30).ok

    def test_detects_corrupted_region(self):
        ts, index = _index(seed=2)
        # Sabotage: replace one region's members with the worst tuples of
        # the dominating set.
        dom = index.dominating
        worst = np.argsort(dom.scores(1.0, 1.0))[: index.k_bound]
        bad_tids = tuple(int(dom.tids[p]) for p in worst)
        middle = index.n_regions // 2
        index = _sabotaged(index, lambda i, tids: bad_tids if i == middle else tids)
        report = verify_index(index, reference=ts, n_probes=200, seed=3)
        assert not report.ok
        assert report.mismatches
        assert "FAILED" in report.render()

    def test_detects_structural_breakage(self):
        _, index = _index(seed=4)
        index = _sabotaged(index, lambda i, tids: tids * 2 if i == 0 else tids)
        report = verify_index(index, n_probes=5)
        assert report.structural_errors

    def test_mismatch_rendering_truncates(self):
        ts, index = _index(seed=5)
        report = verify_index(index, n_probes=5)
        report.mismatches = [f"m{i}" for i in range(20)]
        rendered = report.render()
        assert "... and 10 more" in rendered

    def test_empty_population(self):
        ts = RankTupleSet.from_pairs([1.0], [1.0])
        index = RankedJoinIndex.build(ts, 2)
        report = verify_index(index, reference=RankTupleSet.empty())
        assert report.ok and report.probes == 0


class TestVerifyEdgePaths:
    def test_empty_population_short_circuits_probing(self):
        """With no reference tuples, no probes run — even many requested."""
        ts, index = _index(seed=6)
        report = verify_index(
            index, reference=RankTupleSet.empty(), n_probes=500
        )
        assert report.probes == 0
        assert report.mismatches == []

    def test_empty_population_still_reports_structural_errors(self):
        """The structural check runs before the probe short-circuit."""
        _, index = _index(seed=7)
        index = _sabotaged(index, lambda i, tids: tids * 2 if i == 0 else tids)
        report = verify_index(index, reference=RankTupleSet.empty())
        assert report.probes == 0
        assert report.structural_errors
        assert not report.ok
        assert "structural" in report.render()

    def test_corrupted_region_produces_mismatch_details(self):
        """A corrupted region yields mismatches naming preference and k."""
        ts, index = _index(seed=8)
        dom = index.dominating
        worst = np.argsort(dom.scores(1.0, 1.0))[: index.k_bound]
        bad_tids = tuple(int(dom.tids[p]) for p in worst)
        index = _sabotaged(index, lambda i, tids: bad_tids)
        report = verify_index(index, reference=ts, n_probes=50, seed=9)
        assert not report.ok
        assert all("pref=" in m and "k=" in m for m in report.mismatches)

    def test_query_exception_is_reported_not_raised(self):
        """A crashing query becomes a mismatch entry, never an exception."""
        _, index = _index(seed=10)

        def boom(preference, k):
            raise RuntimeError("query exploded")

        index.query = boom
        report = verify_index(index, n_probes=3)
        assert report.probes == 3
        assert len(report.mismatches) == 3
        assert all("query raised" in m for m in report.mismatches)

    def test_probe_count_matches_request_on_healthy_index(self):
        ts, index = _index(seed=11)
        report = verify_index(index, reference=ts, n_probes=17, seed=12)
        assert report.ok and report.probes == 17
