"""repro — a full reproduction of *Ranked Join Indices* (ICDE 2003).

The package implements the paper's Ranked Join Index (RJI) together with
every substrate it depends on: a paged-storage layer with a disk
B+-tree, an R-tree with the paper's TopKrtree top-k search, a mini
relational engine, no-preprocessing baselines, data generators matching
the paper's evaluation datasets, and a benchmark harness regenerating
every table and figure of the evaluation section.

Quickstart::

    from repro import Preference, RankedJoinIndex, RankTupleSet

    tuples = RankTupleSet.from_pairs(s1_values, s2_values)
    index = RankedJoinIndex.build(tuples, k=50)
    top10 = index.query(Preference(0.7, 0.3), k=10)
"""

from .core import (
    LinearScorer,
    Preference,
    QueryResult,
    RankTuple,
    RankTupleSet,
    RankedJoinIndex,
    dominating_set,
)
from .errors import ReproError

__version__ = "1.0.0"

__all__ = [
    "LinearScorer",
    "Preference",
    "QueryResult",
    "RankTuple",
    "RankTupleSet",
    "RankedJoinIndex",
    "ReproError",
    "__version__",
    "dominating_set",
]
