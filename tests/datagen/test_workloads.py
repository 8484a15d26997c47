"""Tests for query workload generators."""

import numpy as np
import pytest

from repro.datagen.preferences import grid_preferences, random_preferences
from repro.errors import ConstructionError


class TestRandomPreferences:
    def test_count_and_validity(self):
        prefs = random_preferences(200, seed=0)
        assert len(prefs) == 200
        for pref in prefs:
            assert pref.p1 >= 0.0 and pref.p2 >= 0.0
            assert pref.p1 > 0.0 or pref.p2 > 0.0

    def test_angle_mode_covers_quadrant(self):
        prefs = random_preferences(500, seed=1)
        angles = np.array([p.angle for p in prefs])
        assert angles.min() < 0.2
        assert angles.max() > np.pi / 2 - 0.2
        # uniform over angle: mean near pi/4
        assert abs(angles.mean() - np.pi / 4) < 0.1

    def test_weights_mode(self):
        prefs = random_preferences(100, seed=2, mode="weights")
        assert all(0.0 <= p.p1 <= 1.0 and 0.0 <= p.p2 <= 1.0 for p in prefs)

    def test_unknown_mode(self):
        with pytest.raises(ConstructionError):
            random_preferences(5, mode="banana")

    def test_determinism(self):
        a = random_preferences(50, seed=3)
        b = random_preferences(50, seed=3)
        assert [(p.p1, p.p2) for p in a] == [(p.p1, p.p2) for p in b]


class TestGridPreferences:
    def test_count(self):
        assert len(grid_preferences(10)) == 10

    def test_strictly_interior_and_increasing(self):
        prefs = grid_preferences(20)
        angles = [p.angle for p in prefs]
        assert angles[0] > 0.0
        assert angles[-1] < np.pi / 2
        assert angles == sorted(angles)

    def test_validation(self):
        with pytest.raises(ConstructionError):
            grid_preferences(0)
