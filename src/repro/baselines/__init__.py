"""Baselines: full scan, HRJN pipelined rank join, and the Onion index.

Beside them, extensions no serving path calls: §9's d-way hull-layer
index (:mod:`.multidim`) and top-k unions over preference intervals
(:mod:`.robust`).
"""

from .fullscan import FullScanTopK
from .hrjn import HRJN, HRJNStats
from .onion import OnionIndex, OnionQueryStats, convex_hull_indices

__all__ = [
    "FullScanTopK",
    "HRJN",
    "HRJNStats",
    "OnionIndex",
    "OnionQueryStats",
    "convex_hull_indices",
]
