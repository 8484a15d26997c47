"""Planar convex hull, boundary-inclusive.

Shared geometric primitive: the Onion baseline peels hull layers with
it, and the multidimensional layered index uses it for its ``d == 2``
fast path.
"""

from __future__ import annotations

import numpy as np

__all__ = ["convex_hull_indices"]


def convex_hull_indices(points: np.ndarray) -> np.ndarray:
    """Positions of the convex hull of a point array, boundary-inclusive.

    Andrew's monotone chain over ``points[:, 0..1]``; collinear points on
    the boundary are kept (required for top-k correctness: a collinear
    boundary point can still be the unique linear maximizer's runner-up).
    For fewer than three points, all points are the hull.
    """
    n = len(points)
    if n <= 2:
        return np.arange(n)
    order = np.lexsort((points[:, 1], points[:, 0]))

    def half(indices) -> list[int]:
        chain: list[int] = []
        for i in indices:
            while len(chain) >= 2:
                o, a = chain[-2], chain[-1]
                cross = (points[a, 0] - points[o, 0]) * (
                    points[i, 1] - points[o, 1]
                ) - (points[a, 1] - points[o, 1]) * (points[i, 0] - points[o, 0])
                if cross < 0:  # keep collinear (cross == 0) points
                    chain.pop()
                else:
                    break
            chain.append(int(i))
        return chain

    lower = half(order)
    upper = half(order[::-1])
    hull = dict.fromkeys(lower + upper)  # ordered, deduplicated
    return np.fromiter(hull.keys(), dtype=np.int64)
