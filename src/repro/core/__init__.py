"""Core of the reproduction: the Ranked Join Index and its algorithms.

Public surface:

* :class:`~repro.core.index.RankedJoinIndex` — build / query the index;
* :class:`~repro.core.writepath.WritableRankedJoinIndex` — the index
  with logged inserts and deletes (``build`` over tuples, or adopt a
  built index and its live pool);
* :class:`~repro.core.scoring.Preference` — monotone linear scoring;
* :class:`~repro.core.tuples.RankTupleSet` — join-result tuple container;
* :func:`~repro.core.dominance.dominating_set` — Section 4 pruning;
* :func:`~repro.core.sweep.sweep_regions` — the ConstructRJI sweep.

Lemma 1 pruning (:mod:`repro.core.pruning`) runs before a build, never
while serving, so it is imported from its module.
"""

from .deadline import Deadline
from .delta import DeltaStore, SupportsWal
from .dominance import dominating_set, dominating_set_naive
from .index import BuildStats, QueryResult, RankedJoinIndex
from .merging import merge_adaptive, merge_every
from .writepath import WritableRankedJoinIndex
from .scoring import LinearScorer, Preference
from .sweep import Region, SweepStats, sweep_regions
from .tuples import RankTuple, RankTupleSet

__all__ = [
    "BuildStats",
    "Deadline",
    "DeltaStore",
    "SupportsWal",
    "LinearScorer",
    "Preference",
    "QueryResult",
    "RankTuple",
    "RankTupleSet",
    "RankedJoinIndex",
    "Region",
    "SweepStats",
    "dominating_set",
    "dominating_set_naive",
    "merge_adaptive",
    "merge_every",
    "sweep_regions",
    "WritableRankedJoinIndex",
]
