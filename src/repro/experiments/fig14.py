"""Figure 14 — breakdown of RJI construction time (unif dataset).

Three components, as in the paper: ``tDom`` (computing the dominating
set, one pass over the join result), ``tSep`` (computing the separating
points and sweeping them into regions) and ``tBLoad`` (bulk-loading the
B+-tree and region heap onto pages).  Published shape: tDom grows
linearly with join size and dominates at large n (panel a); tSep grows
with K and dominates at large K (panel b).

``tSep`` is reported twice.  ``tSep walk`` is the production build's
(:mod:`repro.core.sweep`, the K-level walk, which is also what
``total`` adds up); ``tSep all-pairs`` times the paper's algorithm on
the same dominating set (:mod:`repro.experiments.construct_rji`), whose
``O(|D_K|^2)`` event pass is the published claim.
"""

from __future__ import annotations

import time

from ..core.dominance import dominating_set
from ..core.index import RankedJoinIndex
from ..storage.diskindex import DiskRankedJoinIndex
from .construct_rji import construct_rji
from .datasets import make_pairs
from .harness import ResultTable

__all__ = [
    "run",
    "build_breakdown",
    "all_pairs_seconds",
    "PAPER_PARAMS",
    "DEFAULT_PARAMS",
]

PAPER_PARAMS = dict(
    sizes=(50_000, 200_000, 400_000, 600_000, 800_000, 1_000_000),
    fixed_k=100,
    ks=(10, 50, 100, 200, 300, 400, 500),
    fixed_size=50_000,
)
DEFAULT_PARAMS = dict(
    sizes=(5_000, 10_000, 20_000, 40_000),
    fixed_k=50,
    ks=(10, 25, 50, 100),
    fixed_size=10_000,
)


def build_breakdown(pairs, k: int) -> tuple[float, float, float]:
    """``(tDom, tSep, tBLoad)`` seconds for one index build."""
    index = RankedJoinIndex.build(pairs, k)
    started = time.perf_counter()
    DiskRankedJoinIndex(index)
    t_bload = time.perf_counter() - started
    return (
        index.stats.time_dominating,
        index.stats.time_separating,
        t_bload,
    )


def all_pairs_seconds(pairs, k: int) -> float:
    """Seconds the paper's all-pairs ConstructRJI takes on ``D_K``."""
    dominating = dominating_set(pairs, k)
    started = time.perf_counter()
    construct_rji(dominating, k)
    return time.perf_counter() - started


_COLUMNS = (
    "tDom (s)",
    "tSep walk (s)",
    "tBLoad (s)",
    "total (s)",
    "tSep all-pairs (s)",
)


def _row(pairs, k: int) -> tuple[float, ...]:
    t_dom, t_sep, t_bload = build_breakdown(pairs, k)
    return (
        round(t_dom, 4),
        round(t_sep, 4),
        round(t_bload, 4),
        round(t_dom + t_sep + t_bload, 4),
        round(all_pairs_seconds(pairs, k), 4),
    )


def run(
    *,
    sizes: tuple[int, ...] = DEFAULT_PARAMS["sizes"],
    fixed_k: int = DEFAULT_PARAMS["fixed_k"],
    ks: tuple[int, ...] = DEFAULT_PARAMS["ks"],
    fixed_size: int = DEFAULT_PARAMS["fixed_size"],
    seed: int = 0,
) -> list[ResultTable]:
    """Regenerate both panels of Figure 14."""
    panel_a = ResultTable(
        f"Figure 14(a): RJI build breakdown vs join size (unif, K={fixed_k})",
        ("join size",) + _COLUMNS,
        notes="paper shape: tDom grows with join size and dominates",
    )
    for size in sizes:
        panel_a.add(size, *_row(make_pairs("unif", size, seed=seed), fixed_k))

    panel_b = ResultTable(
        f"Figure 14(b): RJI build breakdown vs K (unif, join size={fixed_size})",
        ("K",) + _COLUMNS,
        notes="paper shape: tSep (all-pairs) grows with K and dominates at "
        "large K; the walk's tSep grows with the regions it emits",
    )
    pairs = make_pairs("unif", fixed_size, seed=seed)
    for k in ks:
        panel_b.add(k, *_row(pairs, k))
    return [panel_a, panel_b]
