"""Containers for join-result tuples carrying rank-value pairs.

All core algorithms operate on a column-oriented :class:`RankTupleSet`:
parallel NumPy arrays of tuple identifiers and the two rank values.  The
identifier is opaque to the index — for a join result it typically
encodes the RID pair of the joined base tuples (see
:mod:`repro.relalg.joins`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from ..errors import ConstructionError

__all__ = ["RankTuple", "RankTupleSet"]


class RankTuple(NamedTuple):
    """One join-result tuple: identifier plus its two rank values."""

    tid: int
    s1: float
    s2: float


@dataclass(frozen=True)
class RankTupleSet:
    """An immutable column-store of ``(tid, s1, s2)`` tuples.

    Invariants enforced at construction: the three arrays are parallel,
    rank values are finite, and tuple identifiers are unique.
    """

    tids: np.ndarray
    s1: np.ndarray
    s2: np.ndarray

    def __post_init__(self) -> None:
        tids = np.ascontiguousarray(self.tids, dtype=np.int64)
        s1 = np.ascontiguousarray(self.s1, dtype=np.float64)
        s2 = np.ascontiguousarray(self.s2, dtype=np.float64)
        if not (len(tids) == len(s1) == len(s2)):
            raise ConstructionError(
                "tids, s1 and s2 must be parallel arrays; got lengths "
                f"{len(tids)}, {len(s1)}, {len(s2)}"
            )
        if len(s1) and not (np.isfinite(s1).all() and np.isfinite(s2).all()):
            raise ConstructionError("rank values must be finite")
        if len(tids) != len(np.unique(tids)):
            raise ConstructionError("tuple identifiers must be unique")
        object.__setattr__(self, "tids", tids)
        object.__setattr__(self, "s1", s1)
        object.__setattr__(self, "s2", s2)

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_tuples(cls, tuples: Iterable[RankTuple | tuple]) -> "RankTupleSet":
        """Build a set from an iterable of ``(tid, s1, s2)`` triples."""
        rows = list(tuples)
        if not rows:
            return cls.empty()
        tids, s1, s2 = zip(*rows)
        return cls(np.array(tids), np.array(s1), np.array(s2))

    @classmethod
    def from_pairs(cls, s1: np.ndarray, s2: np.ndarray) -> "RankTupleSet":
        """Build a set from rank-value arrays, assigning sequential tids."""
        s1 = np.asarray(s1, dtype=np.float64)
        return cls(np.arange(len(s1), dtype=np.int64), s1, s2)

    @classmethod
    def empty(cls) -> "RankTupleSet":
        return cls(
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.float64),
            np.empty(0, dtype=np.float64),
        )

    # -- container protocol ----------------------------------------------

    def __len__(self) -> int:
        return len(self.tids)

    def __iter__(self) -> Iterator[RankTuple]:
        return map(RankTuple, self.tids.tolist(), self.s1.tolist(), self.s2.tolist())

    def __getitem__(self, index) -> "RankTupleSet":
        """Positional selection; accepts anything NumPy indexing accepts."""
        return RankTupleSet(self.tids[index], self.s1[index], self.s2[index])

    def row(self, position: int) -> RankTuple:
        """The tuple at a given array position (not by tid)."""
        return RankTuple(
            int(self.tids[position]),
            float(self.s1[position]),
            float(self.s2[position]),
        )

    # -- operations ------------------------------------------------------

    def scores(self, p1: float, p2: float) -> np.ndarray:
        """Vectorized scores of every tuple under preference ``(p1, p2)``."""
        return p1 * self.s1 + p2 * self.s2

    def sorted_by(self, keys: np.ndarray, *, descending: bool = True) -> "RankTupleSet":
        """A copy ordered by an external key array (stable sort)."""
        order = np.argsort(keys, kind="stable")
        if descending:
            order = order[::-1]
        return self[order]

    def sort_for_sweep(self) -> "RankTupleSet":
        """Order used by the sweep start (angle 0): s1 desc, then s2 desc,
        then tid asc, so ties are broken by what happens just after the
        sweep leaves the s1-axis."""
        order = np.lexsort((self.tids, -self.s2, -self.s1))
        return self[order]

    def topk_at_angle(self, p1: float, p2: float, k: int) -> np.ndarray:
        """Positions of the top-``k`` tuples under ``(p1, p2)``.

        Ties are broken deterministically by (s1 desc, tid asc) so that
        independent evaluations agree.
        """
        scores = self.scores(p1, p2)
        order = np.lexsort((self.tids, -self.s1, -scores))
        return order[:k]

    def take_tids(self, tids: Iterable[int]) -> "RankTupleSet":
        """Subset by tuple identifier, in the order given."""
        index = {int(t): i for i, t in enumerate(self.tids)}
        positions = np.array([index[int(t)] for t in tids], dtype=np.int64)
        return self[positions]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RankTupleSet(n={len(self)})"
