"""Figure 15 — time to answer top-k queries: RJI vs TopKrtree.

Each point averages 500 queries with uniformly random preference
directions (Section 8.3).  The paper reports RJI answering up to 17x
faster than the TopKrtree on unif and real_web; the gap comes from the
R-tree touching many tuples that turn out to be useless.

Two views are reported:

* in-memory wall-clock per query — RJI region lookup vs the Figure 10
  TopKrtreeAnswer recursion (plus the best-first variant as the R-tree's
  upper bound);
* disk work per query — page reads of the disk-resident RJI vs the
  disk-resident R-tree, both through cold LRU buffer pools.

Following Section 8.3, the RJI is built with regions merged to a 2K
distinct-tuple budget before comparison.
"""

from __future__ import annotations

import time

from ..core.dominance import dominating_set
from ..core.index import RankedJoinIndex
from ..datagen.preferences import random_preferences
from ..rtree.disk import DiskRTree, max_entries_for_page
from ..rtree.rtree import RTree
from ..rtree.topk import topk_best_first, topk_paper
from ..storage.diskindex import DiskRankedJoinIndex
from .datasets import make_pairs
from .harness import ResultTable

__all__ = ["run", "plots", "PAPER_PARAMS", "DEFAULT_PARAMS"]

PAPER_PARAMS = dict(
    join_size=50_000,
    ks=(10, 20, 50, 100, 200, 500),
    datasets=("unif", "real_web"),
    n_queries=500,
)
DEFAULT_PARAMS = dict(
    join_size=10_000,
    ks=(10, 25, 50, 100),
    datasets=("unif", "real_web"),
    n_queries=200,
)


def _mean_micros(func, preferences, k: int) -> float:
    started = time.perf_counter()
    for preference in preferences:
        func(preference, k)
    return (time.perf_counter() - started) / len(preferences) * 1e6


def run(
    *,
    join_size: int = DEFAULT_PARAMS["join_size"],
    ks: tuple[int, ...] = DEFAULT_PARAMS["ks"],
    datasets: tuple[str, ...] = DEFAULT_PARAMS["datasets"],
    n_queries: int = DEFAULT_PARAMS["n_queries"],
    seed: int = 0,
) -> list[ResultTable]:
    """Regenerate Figure 15 for the requested datasets."""
    k_bound = max(ks)
    preferences = random_preferences(n_queries, seed=seed + 1)

    timing = ResultTable(
        "Figure 15: mean time per top-k query (in-memory, microseconds)",
        (
            "dataset",
            "k",
            "RJI (us)",
            "TopKrtree (us)",
            "best-first rtree (us)",
            "speedup vs TopKrtree",
        ),
        notes=f"{n_queries} uniformly random preferences; join size {join_size}",
    )
    disk_io = ResultTable(
        "Figure 15 (disk view): mean page reads per top-k query",
        ("dataset", "k", "RJI pages", "R-tree pages", "R-tree tuples scored"),
        notes="cold LRU buffer pools (capacity 4 pages) on 4 KiB pages",
    )

    for name in datasets:
        pairs = make_pairs(name, join_size, seed=seed)
        index = RankedJoinIndex.build(pairs, k_bound, merge_slack=k_bound)
        dom = dominating_set(pairs, k_bound)
        tree = RTree.bulk_load(
            zip(dom.s1, dom.s2, dom.tids),
            max_entries=max_entries_for_page(),
        )
        disk_index = DiskRankedJoinIndex(index, buffer_capacity=4)
        disk_tree = DiskRTree(tree, buffer_capacity=4)

        for k in ks:
            rji_us = _mean_micros(index.query, preferences, k)
            paper_us = _mean_micros(
                lambda pref, kk: topk_paper(tree, pref, kk), preferences, k
            )
            best_us = _mean_micros(
                lambda pref, kk: topk_best_first(tree, pref, kk), preferences, k
            )
            timing.add(
                name,
                k,
                round(rji_us, 1),
                round(paper_us, 1),
                round(best_us, 1),
                round(paper_us / rji_us, 2) if rji_us else float("inf"),
            )

            rji_pages = 0
            rtree_pages = 0
            rtree_points = 0
            for preference in preferences:
                disk_index.reset_io()
                disk_index.query(preference, k)
                rji_pages += disk_index.last_query.pages_read
                disk_tree.reset_io()
                disk_tree.query(preference, k)
                rtree_pages += disk_tree.last_query.pages_read
                rtree_points += disk_tree.last_query.points_scored
            disk_io.add(
                name,
                k,
                round(rji_pages / n_queries, 2),
                round(rtree_pages / n_queries, 2),
                round(rtree_points / n_queries, 1),
            )
    return [timing, disk_io]


def plots(timing_table) -> str:
    """ASCII shape plot: per-query time vs k for both engines/datasets."""
    from .asciiplot import line_chart

    series: dict[str, list[tuple[float, float]]] = {}
    for dataset, k, rji_us, paper_us, _best, _speedup in timing_table.rows:
        series.setdefault(f"RJI {dataset}", []).append((float(k), float(rji_us)))
        series.setdefault(f"rtree {dataset}", []).append(
            (float(k), float(paper_us))
        )
    return line_chart(
        series, title="Figure 15 shape: query time vs k (RJI below R-tree)"
    )
