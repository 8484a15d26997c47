"""Separating-vector event generation for the ConstructRJI sweep.

ConstructRJI (Section 6) considers every pair of dominating-set tuples
and computes its *separating point* — the sweep angle at which the two
tuples exchange relative order (Lemma 4).  Pairs in which one tuple
weakly dominates the other never swap inside the sweep interval and
produce no event.

The all-pairs computation is the asymptotically dominant part of index
construction (``O(|D_K|^2)``), so it is vectorized with NumPy and runs
in row blocks of ``_BLOCK_ROWS`` to bound peak memory: a block of ``B``
rows against ``n`` columns allocates ``O(B * n)`` temporaries.  The
final sort is a total order over ``(angle, first, second)``, so the
result does not depend on the block partition.  Events are returned
sorted by angle, matching the order in which the sweep consumes them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..obs import NULL_RECORDER, Recorder
from .tuples import RankTupleSet

__all__ = ["SeparatingEvents", "separating_events"]

#: Rows per block of the all-pairs pass (peak temporaries ``O(512 * n)``).
_BLOCK_ROWS = 512


@dataclass(frozen=True)
class SeparatingEvents:
    """All separating events of a tuple set, sorted by angle.

    ``angles[m]`` is the separating point of the pair at array positions
    ``(first[m], second[m])`` of the originating :class:`RankTupleSet`.
    ``pairs_considered`` is the total number of pairs examined, including
    those that produced no event (used by construction-cost reporting).
    """

    angles: np.ndarray
    first: np.ndarray
    second: np.ndarray
    pairs_considered: int

    def __len__(self) -> int:
        return len(self.angles)


def _block_events(
    x: np.ndarray, y: np.ndarray, n: int, start: int, stop: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Separating events of rows ``[start, stop)`` against all columns."""
    rows = np.arange(start, stop)
    # Pairwise differences of rows [start, stop) against all columns;
    # only the strict upper triangle (j > i) is kept.
    dx = x[rows, None] - x[None, :]
    dy = y[rows, None] - y[None, :]
    upper = np.arange(n)[None, :] > rows[:, None]
    # A separating point exists iff dx and dy have strictly opposite
    # signs; then tan(angle) = -dx/dy is positive.
    crossing = upper & ((dx > 0) != (dy > 0)) & (dx != 0) & (dy != 0)
    if not crossing.any():
        return None
    row_idx, col_idx = np.nonzero(crossing)
    ratio = -dx[row_idx, col_idx] / dy[row_idx, col_idx]
    return (
        np.arctan(ratio),
        rows[row_idx].astype(np.int64),
        col_idx.astype(np.int64),
    )


def separating_events(
    tuples: RankTupleSet,
    *,
    recorder: Recorder = NULL_RECORDER,
) -> SeparatingEvents:
    """Compute every pairwise separating point of ``tuples``.

    Peak additional memory is ``O(_BLOCK_ROWS * n)`` for the pairwise
    difference temporaries plus the event output itself (worst case one
    event per pair, i.e. ``n*(n-1)/2`` — reached when no tuple dominates
    another, exactly the regime the dominating set lives in).
    """
    n = len(tuples)
    if n < 2:
        empty = np.empty(0)
        return SeparatingEvents(
            empty, empty.astype(np.int64), empty.astype(np.int64), 0
        )

    x = tuples.s1
    y = tuples.s2
    blocks = [
        _block_events(x, y, n, start, min(start + _BLOCK_ROWS, n - 1))
        for start in range(0, n - 1, _BLOCK_ROWS)
    ]

    produced = [block for block in blocks if block is not None]
    pairs_considered = n * (n - 1) // 2
    if recorder.enabled:
        recorder.count("sweep.pairs_considered", pairs_considered)
        recorder.count("events.blocks", len(blocks), {"n": n})
    if not produced:
        empty = np.empty(0)
        return SeparatingEvents(
            empty,
            empty.astype(np.int64),
            empty.astype(np.int64),
            pairs_considered,
        )

    angles = np.concatenate([block[0] for block in produced])
    first = np.concatenate([block[1] for block in produced])
    second = np.concatenate([block[2] for block in produced])
    if recorder.enabled:
        recorder.count("sweep.events", len(angles))
    # Sort by angle; break ties by pair indices for determinism.
    order = np.lexsort((second, first, angles))
    return SeparatingEvents(
        angles[order], first[order], second[order], pairs_considered
    )
