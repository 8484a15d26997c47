"""Tests for the all-pairs separating-event pass of the reference
ConstructRJI (:mod:`repro.experiments.construct_rji`)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.geometry import separating_angle
from repro.core.tuples import RankTupleSet
from repro.experiments import construct_rji as events_module
from repro.experiments.construct_rji import separating_events


def _brute_force_events(ts: RankTupleSet):
    events = []
    for i in range(len(ts)):
        for j in range(i + 1, len(ts)):
            angle = separating_angle(
                float(ts.s1[i]), float(ts.s2[i]), float(ts.s1[j]), float(ts.s2[j])
            )
            if angle is not None:
                events.append((angle, i, j))
    return sorted(events)


class TestSeparatingEvents:
    def test_empty_and_singleton(self):
        assert len(separating_events(RankTupleSet.empty())) == 0
        single = RankTupleSet.from_pairs([1.0], [2.0])
        events = separating_events(single)
        assert len(events) == 0
        assert events.pairs_considered == 0

    def test_dominating_chain_produces_no_events(self):
        ts = RankTupleSet.from_pairs([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        events = separating_events(ts)
        assert len(events) == 0
        assert events.pairs_considered == 3

    def test_antichain_produces_all_pairs(self):
        ts = RankTupleSet.from_pairs([1.0, 2.0, 3.0], [3.0, 2.0, 1.0])
        events = separating_events(ts)
        assert len(events) == 3

    def test_sorted_by_angle(self):
        rng = np.random.default_rng(0)
        ts = RankTupleSet.from_pairs(
            rng.uniform(0, 1, 60), rng.uniform(0, 1, 60)
        )
        events = separating_events(ts)
        assert np.all(np.diff(events.angles) >= 0)

    def test_matches_scalar_brute_force(self):
        rng = np.random.default_rng(1)
        ts = RankTupleSet.from_pairs(
            rng.uniform(0, 1, 40), rng.uniform(0, 1, 40)
        )
        expected = _brute_force_events(ts)
        events = separating_events(ts)
        got = sorted(
            zip(events.angles, events.first, events.second),
            key=lambda e: (e[0], e[1], e[2]),
        )
        assert len(got) == len(expected)
        for (ga, gi, gj), (ea, ei, ej) in zip(got, expected):
            assert ga == pytest.approx(ea, abs=0.0)  # bit-identical formula
            assert (gi, gj) == (ei, ej)

    def test_blocking_is_transparent(self, monkeypatch):
        rng = np.random.default_rng(2)
        ts = RankTupleSet.from_pairs(
            rng.uniform(0, 1, 37), rng.uniform(0, 1, 37)
        )
        monkeypatch.setattr(events_module, "_BLOCK_ROWS", 5)
        small = separating_events(ts)
        monkeypatch.setattr(events_module, "_BLOCK_ROWS", 1000)
        large = separating_events(ts)
        np.testing.assert_array_equal(small.angles, large.angles)
        np.testing.assert_array_equal(small.first, large.first)
        np.testing.assert_array_equal(small.second, large.second)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 6), st.integers(0, 6)),
            min_size=2,
            max_size=25,
        )
    )
    def test_event_count_matches_brute_force(self, values):
        s1 = np.array([float(a) for a, _ in values])
        s2 = np.array([float(b) for _, b in values])
        ts = RankTupleSet(np.arange(len(values)), s1, s2)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(events_module, "_BLOCK_ROWS", 4)
            events = separating_events(ts)
        assert len(events) == len(_brute_force_events(ts))
        assert events.pairs_considered == len(values) * (len(values) - 1) // 2
