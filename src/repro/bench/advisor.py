"""Choosing K: a small physical-design advisor.

The RJI's one awkward knob is the construction bound K — it must be
fixed before any query arrives (Problem 1), larger K costs space and
per-query evaluation, smaller K cannot serve deep queries at all.  The
advisor takes the observed (or anticipated) distribution of requested
``k`` values plus the candidate join tuples, probes a few candidate
bounds by actually building the index, and reports the measured
trade-off with a recommendation: the smallest candidate covering the
target quantile of the workload, merged to the paper's 2K budget.

The space side of the trade-off is measured byte-exactly by
serializing each candidate through
:class:`~repro.storage.diskindex.DiskRankedJoinIndex`.  It lives in
``bench``, beside the other tools that build and probe indices, so a
serving process never loads it.  (The retired ``repro.core.advisor``
and ``repro.storage.advisor`` paths raise ``ModuleNotFoundError``; see
docs/API.md.)
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..core.index import RankedJoinIndex
from ..core.tuples import RankTupleSet
from ..datagen.preferences import random_preferences
from ..errors import ConstructionError
from ..storage.diskindex import DiskRankedJoinIndex

__all__ = ["CandidateReport", "AdvisorReport", "advise_k"]


@dataclass(frozen=True)
class CandidateReport:
    """Measured characteristics of one candidate bound."""

    k_bound: int
    n_dominating: int
    n_separating: int
    n_regions: int
    disk_bytes: int
    build_seconds: float
    mean_query_us: float


@dataclass(frozen=True)
class AdvisorReport:
    """All probed candidates plus the recommendation."""

    candidates: tuple[CandidateReport, ...]
    recommended_k: int
    covers_quantile: float
    quantile_k: int

    def render(self) -> str:
        lines = [
            f"workload quantile p{int(self.covers_quantile * 100)} of "
            f"requested k = {self.quantile_k}",
            f"recommended K = {self.recommended_k} (merged to the 2K budget)",
            "",
            f"{'K':>6} {'|Dom|':>8} {'|Sep|':>8} {'regions':>8} "
            f"{'bytes':>10} {'build s':>8} {'query us':>9}",
        ]
        for c in self.candidates:
            lines.append(
                f"{c.k_bound:>6} {c.n_dominating:>8} {c.n_separating:>8} "
                f"{c.n_regions:>8} {c.disk_bytes:>10} "
                f"{c.build_seconds:>8.3f} {c.mean_query_us:>9.1f}"
            )
        return "\n".join(lines)


def advise_k(
    tuples: RankTupleSet,
    requested_ks: Sequence[int],
    *,
    coverage_quantile: float = 0.99,
    headroom: Sequence[float] = (1.0, 2.0, 4.0),
    n_probe_queries: int = 50,
    seed: int = 0,
) -> AdvisorReport:
    """Probe candidate bounds for an observed workload of ``k`` requests.

    Candidates are ``ceil(h * quantile_k)`` for each headroom factor
    ``h``; each is built (merged, 2K budget), serialized for byte-exact
    space, and timed on a uniform preference workload at the workload's
    median ``k``.  The recommendation is the smallest candidate that
    covers the quantile.
    """
    if not requested_ks:
        raise ConstructionError("advise_k needs at least one observed k")
    if any(k < 1 for k in requested_ks):
        raise ConstructionError("requested k values must be positive")
    if not 0.0 < coverage_quantile <= 1.0:
        raise ConstructionError("coverage_quantile must be in (0, 1]")

    ks = np.asarray(sorted(requested_ks))
    quantile_k = int(np.quantile(ks, coverage_quantile, method="higher"))
    median_k = int(np.quantile(ks, 0.5, method="higher"))
    candidates_k = sorted(
        {max(quantile_k, int(np.ceil(h * quantile_k))) for h in headroom}
    )
    workload = random_preferences(n_probe_queries, seed=seed)

    reports: list[CandidateReport] = []
    for k_bound in candidates_k:
        started = time.perf_counter()
        index = RankedJoinIndex.build(tuples, k_bound, merge_slack=k_bound)
        disk = DiskRankedJoinIndex(index)
        build_seconds = time.perf_counter() - started
        query_started = time.perf_counter()
        for preference in workload:
            index.query(preference, min(median_k, k_bound))
        mean_query_us = (
            (time.perf_counter() - query_started) / len(workload) * 1e6
        )
        reports.append(
            CandidateReport(
                k_bound=k_bound,
                n_dominating=index.stats.n_dominating,
                n_separating=index.stats.n_separating,
                n_regions=index.n_regions,
                disk_bytes=disk.total_bytes,
                build_seconds=build_seconds,
                mean_query_us=mean_query_us,
            )
        )
    return AdvisorReport(
        candidates=tuple(reports),
        recommended_k=candidates_k[0],
        covers_quantile=coverage_quantile,
        quantile_k=quantile_k,
    )
