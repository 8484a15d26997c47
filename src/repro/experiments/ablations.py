"""Ablations beyond the paper's figures.

* :func:`run_merge` quantifies the §6.2 space/time trade-off directly:
  sweeping the merge slack m trades separating points (space) against
  per-query evaluated tuples (time), including the adaptive-vs-fixed
  strategy comparison the paper describes qualitatively.
* :func:`run_variants` compares the three RJI flavours (standard,
  merged, ordered) on one dataset — the two endpoints of the trade-off
  plus the default.
* :func:`run_baselines` positions the RJI against the no-preprocessing
  competitors (HRJN pipelined rank join, full-scan) across join sizes,
  the regime where Natsev et al. [14]-style operators pay per query what
  the RJI paid once at build time.
* :func:`run_selection` covers the single-relation claim of Section 2:
  the RJI specialization vs the Onion technique of Chang et al. [5]
  (the indexing competitor the paper cites) vs a full scan.
* :func:`run_correlation` quantifies Example 1's worst case: the
  dominating set (and hence index size) as a function of the rank-pair
  correlation, from strongly correlated (best case) to strongly
  anti-correlated (the antichain regime where nothing is pruned).
"""

from __future__ import annotations

import time

from ..baselines.fullscan import FullScanTopK
from ..baselines.hrjn import HRJN
from ..baselines.onion import OnionIndex
from ..core.index import RankedJoinIndex
from ..core.dominance import dominating_set
from ..core.sweep import sweep_regions
from ..datagen.preferences import random_preferences
from ..datagen.synthetic import correlated_pairs, random_keyed_relations
from ..relalg.joins import rank_join_candidates, rank_join_full
from ..storage.diskindex import DiskRankedJoinIndex
from .datasets import make_pairs
from .harness import ResultTable, format_bytes

__all__ = [
    "run_merge",
    "run_variants",
    "run_baselines",
    "run_selection",
    "run_correlation",
]


def _mean_micros(func, preferences, k: int) -> float:
    started = time.perf_counter()
    for preference in preferences:
        func(preference, k)
    return (time.perf_counter() - started) / len(preferences) * 1e6


def run_merge(
    *,
    join_size: int = 10_000,
    k: int = 50,
    slacks: tuple[int, ...] = (0, 1, 2, 5, 10, 25, 50),
    n_queries: int = 200,
    seed: int = 0,
) -> ResultTable:
    """Merge-slack sweep: regions, bytes and query time per strategy."""
    pairs = make_pairs("unif", join_size, seed=seed)
    preferences = random_preferences(n_queries, seed=seed + 1)
    table = ResultTable(
        "Ablation: region merging (Section 6.2 space/time trade-off)",
        (
            "strategy",
            "slack m",
            "regions",
            "max region width",
            "bytes",
            "query (us)",
        ),
        notes=f"unif, join size {join_size}, K={k}",
    )
    for slack in slacks:
        strategies = ("adaptive", "every") if slack else ("none",)
        for strategy in strategies:
            index = RankedJoinIndex.build(
                pairs,
                k,
                merge_slack=slack,
                merge_strategy=strategy if slack else "adaptive",
            )
            disk = DiskRankedJoinIndex(index)
            micros = _mean_micros(index.query, preferences, k)
            table.add(
                strategy,
                slack,
                index.n_regions,
                max(len(r.tids) for r in index.regions),
                format_bytes(disk.total_bytes),
                round(micros, 1),
            )
    return table


def run_variants(
    *,
    join_size: int = 10_000,
    k: int = 50,
    n_queries: int = 200,
    seed: int = 0,
) -> ResultTable:
    """Standard vs merged vs ordered RJI on the same input."""
    pairs = make_pairs("unif", join_size, seed=seed)
    preferences = random_preferences(n_queries, seed=seed + 1)
    table = ResultTable(
        "Ablation: RJI variants",
        ("variant", "regions", "bytes", "query (us)"),
        notes=f"unif, join size {join_size}, K={k}",
    )
    builds = [
        ("standard", dict()),
        ("merged (m=K)", dict(merge_slack=k)),
        ("ordered (fast query)", dict(variant="ordered")),
    ]
    for label, options in builds:
        index = RankedJoinIndex.build(pairs, k, **options)
        disk = DiskRankedJoinIndex(index)
        micros = _mean_micros(index.query, preferences, k)
        table.add(label, index.n_regions, format_bytes(disk.total_bytes), round(micros, 1))
    return table


def run_selection(
    *,
    n: int = 20_000,
    k: int = 50,
    datasets: tuple[str, ...] = ("unif", "gauss", "real_web"),
    n_queries: int = 200,
    seed: int = 0,
) -> ResultTable:
    """Top-k selection over one relation: RJI vs Onion [5] vs full scan.

    Section 2 claims the RJI construction is "the first solution to the
    top-k selection problem with monotone linear functions having
    guaranteed worst case search performance" for two rank attributes;
    Onion answers the same queries but may touch many layers.
    """
    preferences = random_preferences(n_queries, seed=seed + 1)
    table = ResultTable(
        "Ablation: single-relation top-k selection (Section 2)",
        (
            "dataset",
            "RJI query (us)",
            "Onion query (us)",
            "Onion layers/query",
            "full scan (us)",
        ),
        notes=f"n={n}, k={k}; Onion is Chang et al. [5]",
    )
    for name in datasets:
        pairs = make_pairs(name, n, seed=seed)
        index = RankedJoinIndex.build(pairs, k)
        onion = OnionIndex(pairs)
        scan = FullScanTopK(pairs)
        rji_us = _mean_micros(index.query, preferences, k)
        onion_us = _mean_micros(onion.query, preferences, k)
        layers = 0
        for preference in preferences:
            onion.query(preference, k)
            layers += onion.last_query.layers_visited
        scan_us = _mean_micros(scan.query, preferences, k)
        table.add(
            name,
            round(rji_us, 1),
            round(onion_us, 1),
            round(layers / n_queries, 1),
            round(scan_us, 1),
        )
    return table


def run_correlation(
    *,
    join_size: int = 20_000,
    k: int = 50,
    rhos: tuple[float, ...] = (-0.9, -0.5, 0.0, 0.5, 0.9),
    seed: int = 0,
) -> ResultTable:
    """Dominating-set and index size vs rank-pair correlation.

    Example 1 of the paper shows the pruning extremes; anti-correlation
    is the worst case (mutually non-dominating antichains).
    """
    table = ResultTable(
        "Ablation: pruning effectiveness vs rank correlation",
        ("rho", "|Dom|", "Dom %", "|Sep|", "RJI bytes"),
        notes=f"join size {join_size}, K={k}; anti-correlation is worst case",
    )
    for rho in rhos:
        pairs = correlated_pairs(join_size, rho=rho, seed=seed)
        dom = dominating_set(pairs, k)
        _, stats = sweep_regions(dom, k)
        index = RankedJoinIndex.build(pairs, k, merge_slack=k)
        disk = DiskRankedJoinIndex(index)
        table.add(
            rho,
            len(dom),
            round(100.0 * len(dom) / join_size, 3),
            stats.n_separating,
            disk.total_bytes,
        )
    return table


def run_baselines(
    *,
    scales: tuple[int, ...] = (2_000, 5_000, 10_000),
    multiplicity: int = 10,
    k: int = 20,
    n_queries: int = 50,
    seed: int = 0,
) -> ResultTable:
    """RJI vs HRJN vs full scan across join sizes.

    Inputs are two keyed relations of ``n`` rows each with expected join
    multiplicity ``multiplicity`` (join size ~ n * multiplicity).
    """
    preferences = random_preferences(n_queries, seed=seed + 1)
    table = ResultTable(
        "Ablation: RJI vs no-preprocessing baselines",
        (
            "~join size",
            "RJI build (s)",
            "RJI query (us)",
            "HRJN query (us)",
            "HRJN tuples/query",
            "full scan (us)",
        ),
        notes=f"k={k}; HRJN/scan pay per query, RJI pays once at build",
    )
    for n in scales:
        left, right = random_keyed_relations(
            n, n, max(1, n // multiplicity), seed=seed
        )
        started = time.perf_counter()
        candidates = rank_join_candidates(
            left, right, ("key", "key"), ("rank", "rank"), k
        )
        index = RankedJoinIndex.build(candidates, k)
        build_seconds = time.perf_counter() - started

        full = rank_join_full(left, right, ("key", "key"), ("rank", "rank"))
        scan = FullScanTopK(full)
        hrjn = HRJN(
            left.column("key"),
            left.column("rank"),
            right.column("key"),
            right.column("rank"),
        )

        rji_us = _mean_micros(index.query, preferences, k)
        hrjn_us = _mean_micros(hrjn.query, preferences, k)
        consumed = 0
        for preference in preferences:
            hrjn.query(preference, k)
            consumed += hrjn.last_stats.tuples_consumed
        scan_us = _mean_micros(scan.query, preferences, k)
        table.add(
            len(full),
            round(build_seconds, 3),
            round(rji_us, 1),
            round(hrjn_us, 1),
            round(consumed / n_queries, 1),
            round(scan_us, 1),
        )
    return table
