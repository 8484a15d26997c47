"""Monotone linear scoring functions and preference vectors.

Section 3 of the paper: a user expresses interest in the two rank
attributes with non-negative weights ``e = (p1, p2)``; the induced
scoring function is ``f_e(x, y) = p1*x + p2*y``, which is monotone
because the weights are non-negative.  The class of all such functions
is written ``L`` in the paper; a :class:`Preference` value uniquely
determines one member of ``L``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from ..errors import InvalidPreferenceError, InvalidQueryError
from .geometry import angle_of, preference_at

__all__ = [
    "Preference",
    "PreferenceLike",
    "LinearScorer",
    "as_preference",
    "is_monotone_on_grid",
]


@dataclass(frozen=True, slots=True)
class Preference:
    """A user preference vector ``e = (p1, p2)`` with ``p1, p2 >= 0``.

    The magnitude of the vector is irrelevant to query results (Section
    5); :meth:`unit` returns the normalized representative and
    :attr:`angle` the sweep angle ``a(e)`` in ``[0, pi/2]``.
    """

    p1: float
    p2: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.p1) and math.isfinite(self.p2)):
            raise InvalidPreferenceError(
                f"preference weights must be finite, got ({self.p1}, {self.p2})"
            )
        if self.p1 < 0 or self.p2 < 0:
            raise InvalidPreferenceError(
                f"preference weights must be non-negative, got ({self.p1}, {self.p2})"
            )
        if self.p1 == 0 and self.p2 == 0:
            raise InvalidPreferenceError("preference vector must be non-zero")

    @property
    def angle(self) -> float:
        """Sweep angle ``a(e)`` of this preference, in ``[0, pi/2]``."""
        return angle_of(self.p1, self.p2)

    def unit(self) -> "Preference":
        """The unit-length preference pointing in the same direction."""
        norm = math.hypot(self.p1, self.p2)
        return Preference(self.p1 / norm, self.p2 / norm)

    @classmethod
    def from_angle(cls, angle: float) -> "Preference":
        """Unit preference at sweep angle ``angle`` in ``[0, pi/2]``."""
        if not 0.0 <= angle <= math.pi / 2.0 + 1e-12:
            raise InvalidPreferenceError(
                f"angle must lie in [0, pi/2], got {angle}"
            )
        p1, p2 = preference_at(angle)
        return cls(max(p1, 0.0), max(p2, 0.0))

    def score(self, s1: float, s2: float) -> float:
        """Score of one rank-value pair under this preference."""
        return self.p1 * s1 + self.p2 * s2

    def score_array(self, s1: np.ndarray, s2: np.ndarray) -> np.ndarray:
        """Vectorized scores for parallel arrays of rank values."""
        return self.p1 * np.asarray(s1, dtype=np.float64) + self.p2 * np.asarray(
            s2, dtype=np.float64
        )


#: Anything the query entry points accept as a preference: a built
#: :class:`Preference`, a ``(p1, p2)`` weight pair, or a raw sweep angle
#: in ``[0, pi/2]``.
PreferenceLike = Union[Preference, Sequence[float], float]


def as_preference(value: PreferenceLike) -> Preference:
    """Coerce ``value`` into a :class:`Preference`.

    The one shared coercion of every query entry point
    (:meth:`repro.core.index.RankedJoinIndex.query`, ``query_batch``,
    :func:`repro.baselines.robust.robust_topk_candidates`, the disk index,
    and the relational bindings).  Accepted forms:

    * a :class:`Preference` — returned unchanged;
    * a ``(p1, p2)`` pair (tuple, list, or 1-d array of length 2) of
      non-negative, not-all-zero weights;
    * a bare real number — interpreted as the sweep angle ``a(e)`` in
      ``[0, pi/2]``.

    Anything else — including malformed weights — raises
    :class:`~repro.errors.InvalidQueryError`.
    """
    if isinstance(value, Preference):
        return value
    try:
        if isinstance(value, numbers.Real) and not isinstance(value, bool):
            return Preference.from_angle(float(value))
        if isinstance(value, (tuple, list, np.ndarray)) and len(value) == 2:
            return Preference(float(value[0]), float(value[1]))
    except (InvalidPreferenceError, TypeError, ValueError) as exc:
        raise InvalidQueryError(f"invalid preference {value!r}: {exc}") from exc
    raise InvalidQueryError(
        f"cannot interpret {value!r} as a preference: expected a "
        "Preference, a (p1, p2) pair, or a sweep angle in [0, pi/2]"
    )


class LinearScorer:
    """Callable wrapper pairing a :class:`Preference` with score caching.

    Provided for API symmetry with the paper's ``f_e`` notation::

        f = LinearScorer(Preference(2.0, 1.0))
        f(10.0, 4.0)   # -> 24.0
    """

    __slots__ = ("preference",)

    def __init__(self, preference: Preference):
        self.preference = preference

    def __call__(self, s1: float, s2: float) -> float:
        return self.preference.score(s1, s2)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LinearScorer({self.preference.p1}, {self.preference.p2})"


def is_monotone_on_grid(
    func, values: np.ndarray, *, tol: float = 0.0
) -> bool:
    """Check Definition 1 (monotonicity) of a scorer on a value grid.

    Exhaustively verifies that ``x <= x', y <= y'`` implies
    ``func(x, y) <= func(x', y') + tol`` over the cross product of
    ``values``.  Intended for tests and input validation of user-supplied
    scorers, not for hot paths.
    """
    vals = np.sort(np.asarray(values, dtype=np.float64))
    scores = np.array([[func(x, y) for y in vals] for x in vals])
    along_x = np.all(np.diff(scores, axis=0) >= -tol)
    along_y = np.all(np.diff(scores, axis=1) >= -tol)
    return bool(along_x and along_y)
