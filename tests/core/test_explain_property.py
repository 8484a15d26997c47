"""EXPLAIN is the per-query twin of the aggregate counters.

The acceptance property of the explain layer: for any seeded workload,
``RankedJoinIndex.explain`` must (1) answer exactly what ``query``
answers, and (2) report descent depth, region size, and
tuples-evaluated that *equal* the observations a
:class:`~repro.obs.MetricsRecorder` makes for the same query — the two
views may never drift.
"""

import pytest

from repro.core.index import RankedJoinIndex
from repro.core.scoring import Preference
from repro.datagen.preferences import random_preferences
from repro.datagen.synthetic import correlated_pairs, uniform_pairs
from repro.errors import InvalidQueryError
from repro.obs import MetricsRecorder, render_explain


def build(n=400, k=12, seed=5, recorder=None, **kwargs):
    tuples = uniform_pairs(n, seed=seed)
    return RankedJoinIndex.build(
        tuples,
        k,
        recorder=recorder if recorder is not None else MetricsRecorder(),
        **kwargs,
    )


class TestExplainEqualsQuery:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_results_identical_over_seeded_workloads(self, seed):
        index = build(seed=seed)
        for preference in random_preferences(40, seed=seed + 100):
            explain = index.explain(preference, 7)
            assert list(explain.results) == index.query(preference, 7)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"variant": "ordered"},
            {"merge_slack": 3},
            {"prune": False},
        ],
    )
    def test_across_build_configurations(self, kwargs):
        index = build(**kwargs)
        for preference in random_preferences(20, seed=42):
            explain = index.explain(preference, 5)
            assert list(explain.results) == index.query(preference, 5)

    def test_k_validation_applies(self):
        index = build(k=5)
        with pytest.raises(InvalidQueryError):
            index.explain(Preference(0.5, 0.5), 6)


class TestExplainMatchesRecorder:
    def test_fields_equal_recorder_observations(self):
        recorder = MetricsRecorder()
        index = build(recorder=recorder)
        for i, preference in enumerate(random_preferences(25, seed=9)):
            recorder.reset()
            explain = index.explain(preference, 6)
            assert recorder.counter("rji.queries") == 1, f"query {i}"
            assert recorder.counter("rji.explains") == 1
            depth = recorder.series("rji.descent_steps")
            assert (depth.count, depth.total) == (1, explain.descent_depth)
            evaluated = recorder.series("rji.tuples_evaluated")
            assert (evaluated.count, evaluated.total) == (
                1,
                explain.tuples_evaluated,
            )
            # Only the rows that can reach the top 6 are scored.
            _, reach = index.store.rows(explain.region_id)
            assert len(reach) == explain.region_size
            assert explain.tuples_evaluated == sum(c < 6 for c in reach)
            assert 6 <= explain.tuples_evaluated <= explain.region_size

    def test_explained_query_emits_same_events_as_plain_query(self):
        """Counter deltas of explain() == query() (+ the explain marker)."""
        recorder = MetricsRecorder()
        index = build(recorder=recorder)
        preference = Preference(0.3, 0.7)

        recorder.reset()
        index.query(preference, 6)
        plain = recorder.snapshot()

        recorder.reset()
        index.explain(preference, 6)
        explained = recorder.snapshot()

        del explained["counters"]["rji.explains"]
        assert explained["counters"] == plain["counters"]
        assert explained["series"] == plain["series"]

    def test_record_false_is_invisible_to_the_recorder(self):
        recorder = MetricsRecorder()
        index = build(recorder=recorder)
        recorder.reset()
        index.explain(Preference(0.5, 0.5), 4, record=False)
        snapshot = recorder.snapshot()
        assert snapshot["counters"] == {}
        assert snapshot["series"] == {}


class TestExplainStructure:
    def test_descent_path_lands_in_reported_region(self):
        index = build(n=900, seed=8)
        for preference in random_preferences(30, seed=77):
            explain = index.explain(preference, 6)
            store = index.store
            region_id, path = store.descent_path(preference.angle)
            assert region_id == store.region_id(preference.angle)
            assert explain.region_id == region_id
            assert explain.descent_path == path
            assert explain.region_lo <= preference.angle < explain.region_hi
            assert explain.n_regions == index.n_regions
            # Every probe is a valid separating-point position.
            assert all(0 <= p < len(store.lows) for p in path)

    def test_anticorrelated_many_regions(self):
        tuples = correlated_pairs(1500, rho=-0.6, seed=13)
        index = RankedJoinIndex.build(tuples, 20)
        explain = index.explain(Preference(0.5, 0.5), 10)
        assert explain.n_regions > 1
        assert explain.descent_path  # non-trivial binary search
        assert explain.descent_depth == max(
            len(index.store.lows), 1
        ).bit_length()

    def test_ordered_variant_skips_sorting(self):
        index = build(variant="ordered")
        explain = index.explain(Preference(0.9, 0.1), 5)
        assert explain.variant == "ordered"
        assert explain.sort_comparisons == 0

    def test_render_is_stable_for_same_query(self):
        index = build()
        first = index.explain(Preference(0.7, 0.3), 5)
        second = index.explain(Preference(0.7, 0.3), 5)
        assert render_explain(first) == render_explain(second)
