"""Preference-robust candidates: top-k unions over angle intervals.

A natural extension the region structure makes cheap: a user who knows
their preference only approximately ("somewhere between 30 and 60
degrees") wants every tuple that is a top-k answer for *some* preference
in that range.  Because the index already partitions the angle axis into
regions whose K-sets are exact, the union of top-k answers over an
interval is computed region by region: within one region the top-k
*subset* of its K members changes only at the members' pairwise
separating angles, so a mini-sweep over at most K(K-1)/2 cut points per
region is exact.

For ``k == K`` this degenerates to the plain union of overlapping
regions' member sets.
"""

from __future__ import annotations

import math
import numbers

from ..core.geometry import HALF_PI, separating_angle
from ..core.index import RankedJoinIndex
from ..core.scoring import PreferenceLike, as_preference
from ..core.sweep import Region
from ..errors import InvalidQueryError

__all__ = ["robust_topk_candidates"]


def _endpoint_angle(value: PreferenceLike) -> float:
    """Sweep angle of one interval endpoint.

    Bare numbers pass through as angles (range-checked by the caller so
    out-of-range endpoints keep the historical "angle range" message);
    everything else goes through :func:`as_preference`.
    """
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        return float(value)
    return as_preference(value).angle


def _region_overlap(region: Region, lo: float, hi: float) -> tuple[float, float] | None:
    start = max(region.lo, lo)
    stop = min(region.hi, hi)
    if start > stop:
        return None
    return start, stop


def _topk_tids_at(
    index: RankedJoinIndex, region: Region, angle: float, k: int
) -> set[int]:
    p1, p2 = math.cos(angle), math.sin(angle)

    def key(tid: int):
        pos = index._position_of[tid]
        s1 = float(index.dominating.s1[pos])
        return (-(p1 * s1 + p2 * float(index.dominating.s2[pos])), -s1, tid)

    return set(sorted(region.tids, key=key)[:k])


def robust_topk_candidates(
    index: RankedJoinIndex, lo: PreferenceLike, hi: PreferenceLike, k: int
) -> set[int]:
    """Tuples in the top-k for at least one preference in ``[lo, hi]``.

    Each endpoint is anything :func:`~repro.core.scoring.as_preference`
    accepts — a :class:`~repro.core.scoring.Preference`, a ``(p1, p2)``
    pair, or a bare sweep angle in ``[0, pi/2]``; ``lo <= hi`` required
    (as angles).  Exact for standard and merged indices (any region is a
    superset of every top-k it covers, and the mini-sweep below resolves
    the subset exactly); works on the ordered variant too.
    """
    lo = _endpoint_angle(lo)
    hi = _endpoint_angle(hi)
    if not 0.0 <= lo <= hi <= HALF_PI + 1e-12:
        raise InvalidQueryError(
            f"angle range [{lo}, {hi}] must satisfy 0 <= lo <= hi <= pi/2"
        )
    if k < 1:
        raise InvalidQueryError(f"k must be positive, got {k}")
    if k > index.k_effective:
        raise InvalidQueryError(
            f"k={k} exceeds the effective bound {index.k_effective}"
        )

    out: set[int] = set()
    for region in index.regions:
        overlap = _region_overlap(region, lo, hi)
        if overlap is None:
            continue
        start, stop = overlap
        if k >= len(region.tids):
            out.update(region.tids)
            continue
        # Cut the overlap at every member-pair separating angle inside it.
        cuts: set[float] = set()
        members = region.tids
        values = {
            tid: (
                float(index.dominating.s1[index._position_of[tid]]),
                float(index.dominating.s2[index._position_of[tid]]),
            )
            for tid in members
        }
        for i in range(len(members)):
            a1, b1 = values[members[i]]
            for j in range(i + 1, len(members)):
                a2, b2 = values[members[j]]
                angle = separating_angle(a1, b1, a2, b2)
                if angle is not None and start < angle < stop:
                    cuts.add(angle)
        boundaries = [start, *sorted(cuts), stop]
        seen_intervals = zip(boundaries, boundaries[1:])
        for interval_lo, interval_hi in seen_intervals:
            midpoint = (interval_lo + interval_hi) / 2.0
            out |= _topk_tids_at(index, region, midpoint, k)
        # Interval endpoints shared with cuts are covered by adjacent
        # midpoints (scores tie exactly at the cut, so either side's
        # top-k multiset is valid there).
    return out
