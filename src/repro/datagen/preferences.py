"""Query workloads: preference vectors sampled over the query space.

Section 8.3 reports averages over 500 top-K queries "distributed
uniformly at random over the space of all possible queries" — since a
preference is (up to scale) a direction in the positive quadrant, the
uniform distribution over queries is the uniform distribution over the
sweep angle ``[0, pi/2]``.

The benchmark harness, the experiments, the K advisor and the index
verifier (:mod:`repro.bench`) draw their probe workloads from here.
(The retired ``repro.datagen.workloads`` and ``repro.core.workloads``
paths raise ``ModuleNotFoundError``; see docs/API.md.)
"""

from __future__ import annotations

import numpy as np

from ..core.scoring import Preference
from ..errors import ConstructionError

__all__ = ["random_preferences", "grid_preferences"]


def random_preferences(
    n: int, *, seed: int = 0, mode: str = "angle"
) -> list[Preference]:
    """``n`` random preference vectors.

    ``mode="angle"`` (the paper's workload) draws the direction angle
    uniformly on ``[0, pi/2]``; ``mode="weights"`` draws raw weights
    uniformly on ``[0, 1]^2`` instead, a workload biased toward the
    diagonal that the ablations use for contrast.
    """
    rng = np.random.default_rng(seed)
    if mode == "angle":
        angles = rng.uniform(0.0, np.pi / 2.0, n)
        return [Preference.from_angle(float(a)) for a in angles]
    if mode == "weights":
        out: list[Preference] = []
        while len(out) < n:
            p1, p2 = rng.uniform(0.0, 1.0, 2)
            if p1 > 0.0 or p2 > 0.0:
                out.append(Preference(float(p1), float(p2)))
        return out
    raise ConstructionError(f"unknown workload mode {mode!r}")


def grid_preferences(n: int) -> list[Preference]:
    """``n`` evenly spaced directions across the open quadrant.

    Deterministic; used by exactness tests that want guaranteed coverage
    of every index region rather than random sampling.
    """
    if n < 1:
        raise ConstructionError(f"need at least one preference, got {n}")
    angles = np.linspace(0.0, np.pi / 2.0, n + 2)[1:-1]
    return [Preference.from_angle(float(a)) for a in angles]
