"""Latency distributions: percentile comparison across engines.

The paper reports mean query times; production systems care about tails.
This harness replays one preference workload against every engine (RJI
in-memory, RJI on disk, TopKrtree, best-first R-tree, HRJN, full scan)
and reports p50 / p95 / p99 / max per engine — an operational complement
to Figure 15.
"""

from __future__ import annotations

import time
from typing import Callable

import numpy as np

from ..baselines.fullscan import FullScanTopK
from ..baselines.hrjn import HRJN
from ..core.dominance import dominating_set
from ..core.index import RankedJoinIndex
from ..datagen.preferences import random_preferences
from ..datagen.synthetic import pairs_as_relations
from ..rtree.disk import DiskRTree, max_entries_for_page
from ..rtree.rtree import RTree
from ..rtree.topk import topk_best_first, topk_paper
from ..storage.diskindex import DiskRankedJoinIndex
from .datasets import make_pairs
from .harness import ResultTable

__all__ = ["run", "percentiles"]


def percentiles(samples_us: np.ndarray) -> tuple[float, float, float, float]:
    """``(p50, p95, p99, max)`` of a latency sample, in microseconds."""
    return (
        float(np.percentile(samples_us, 50)),
        float(np.percentile(samples_us, 95)),
        float(np.percentile(samples_us, 99)),
        float(samples_us.max()),
    )


def _sample(engine: Callable, preferences, k: int) -> np.ndarray:
    out = np.empty(len(preferences))
    for i, preference in enumerate(preferences):
        started = time.perf_counter()
        engine(preference, k)
        out[i] = (time.perf_counter() - started) * 1e6
    return out


def run(
    *,
    dataset: str = "unif",
    join_size: int = 20_000,
    k_bound: int = 50,
    k: int = 10,
    n_queries: int = 300,
    seed: int = 0,
) -> ResultTable:
    """Latency percentiles of every engine on one workload."""
    pairs = make_pairs(dataset, join_size, seed=seed)
    preferences = random_preferences(n_queries, seed=seed + 1)

    index = RankedJoinIndex.build(pairs, k_bound, merge_slack=k_bound)
    disk = DiskRankedJoinIndex(index)
    dom = dominating_set(pairs, k_bound)
    tree = RTree.bulk_load(
        zip(dom.s1, dom.s2, dom.tids), max_entries=max_entries_for_page()
    )
    disk_tree = DiskRTree(tree)
    left, right = pairs_as_relations(pairs)
    hrjn = HRJN(
        left.column("key"),
        left.column("rank"),
        right.column("key"),
        right.column("rank"),
    )
    scan = FullScanTopK(pairs)

    engines = [
        ("RJI (memory)", index.query),
        ("RJI (disk)", disk.query),
        ("TopKrtree", lambda p, kk: topk_paper(tree, p, kk)),
        ("best-first rtree", lambda p, kk: topk_best_first(tree, p, kk)),
        ("rtree (disk)", disk_tree.query),
        ("HRJN", hrjn.query),
        ("full scan", scan.query),
    ]
    table = ResultTable(
        "Latency percentiles per engine (microseconds)",
        ("engine", "p50", "p95", "p99", "max"),
        notes=(
            f"{dataset}, join size {join_size}, k={k} (bound {k_bound}), "
            f"{n_queries} random preferences"
        ),
    )
    for name, engine in engines:
        p50, p95, p99, worst = percentiles(_sample(engine, preferences, k))
        table.add(name, round(p50, 1), round(p95, 1), round(p99, 1), round(worst, 1))
    return table
