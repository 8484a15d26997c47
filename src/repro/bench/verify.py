"""Self-verification: cross-check an index against independent oracles.

Operational safety net for long-lived, maintained indices: probes the
index with random preferences and compares every answer against a full
scan of the reference population, plus the structural invariants.
Intended to be cheap enough to run after maintenance bursts and in CI.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.index import RankedJoinIndex
from ..core.tuples import RankTupleSet
from ..datagen.preferences import random_preferences

__all__ = ["VerificationReport", "verify_index"]


@dataclass
class VerificationReport:
    """Outcome of one verification run."""

    probes: int = 0
    mismatches: list[str] = field(default_factory=list)
    structural_errors: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches and not self.structural_errors

    def render(self) -> str:
        if self.ok:
            return f"OK: {self.probes} probes, structure valid"
        lines = [f"FAILED after {self.probes} probes:"]
        lines += [f"  structural: {e}" for e in self.structural_errors]
        lines += [f"  mismatch: {m}" for m in self.mismatches[:10]]
        if len(self.mismatches) > 10:
            lines.append(f"  ... and {len(self.mismatches) - 10} more")
        return "\n".join(lines)


def verify_index(
    index: RankedJoinIndex,
    *,
    reference: RankTupleSet | None = None,
    n_probes: int = 100,
    seed: int = 0,
    atol: float = 1e-9,
) -> VerificationReport:
    """Probe an index against a brute-force oracle.

    ``reference`` is the tuple population the index is supposed to
    serve; by default the index's own dominating set is used (sufficient
    whenever the index was built with pruning from the same population —
    Lemma 2 guarantees identical top-k score multisets).  Returns a
    report rather than raising, so callers can log and decide.
    """
    report = VerificationReport()
    try:
        index.check_invariants()
    except Exception as exc:  # noqa: BLE001 - reported, not raised
        report.structural_errors.append(str(exc))

    population = reference if reference is not None else index.dominating
    if len(population) == 0:
        return report

    rng = np.random.default_rng(seed)
    preferences = random_preferences(n_probes, seed=seed)
    k_max = index.k_effective
    for preference in preferences:
        k = int(rng.integers(1, k_max + 1))
        report.probes += 1
        try:
            got = [r.score for r in index.query(preference, k)]
        except Exception as exc:  # noqa: BLE001 - a verifier must not crash
            report.mismatches.append(
                f"pref=({preference.p1:.4f},{preference.p2:.4f}) k={k}: "
                f"query raised {exc!r}"
            )
            continue
        scores = population.scores(preference.p1, preference.p2)
        want = min(k, len(population))
        expected = np.sort(scores)[::-1][:want]
        if len(got) != want or not np.allclose(
            got, expected, atol=atol, rtol=1e-12
        ):
            report.mismatches.append(
                f"pref=({preference.p1:.4f},{preference.p2:.4f}) k={k}: "
                f"got {got[:3]}..., expected {list(expected[:3])}..."
            )
    return report
