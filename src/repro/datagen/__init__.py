"""Data and workload generators for the paper's evaluation datasets."""

from .synthetic import (
    correlated_pairs,
    gaussian_pairs,
    pairs_as_relations,
    random_keyed_relations,
    uniform_pairs,
    zipf_pairs,
)
from .web import (
    PAPER_TABLE1,
    ColumnStats,
    column_stats,
    real_web_pairs,
    real_web_relations,
    real_xml_pairs,
    real_xml_relations,
)
from .preferences import grid_preferences, random_preferences

__all__ = [
    "PAPER_TABLE1",
    "ColumnStats",
    "column_stats",
    "correlated_pairs",
    "gaussian_pairs",
    "grid_preferences",
    "pairs_as_relations",
    "random_keyed_relations",
    "random_preferences",
    "real_web_pairs",
    "real_web_relations",
    "real_xml_pairs",
    "real_xml_relations",
    "uniform_pairs",
    "zipf_pairs",
]
