"""The reproducible benchmark runner.

One :func:`run_benchmark` call measures a seeded workload end to end:

1. **build** — construct the index under a
   :class:`~repro.obs.MetricsRecorder`, capturing the Figure-14 phase
   breakdown (tDom / tSep / tBLoad) and the paper's cost counters
   (pairs considered, events, regions);
2. **query latency** — run the workload against an *uninstrumented*
   index (``NULL_RECORDER``) and report p50/p99/mean wall-clock;
3. **query counters** — replay the same workload under the metrics
   recorder for B+-tree descent depth, regions touched, and tuples
   evaluated per query;
4. **disk** — serialize through :mod:`repro.storage` and replay again
   for page-I/O counters, B+-tree keys compared and the buffer-pool hit
   rate, then time the same workload on an uninstrumented disk index
   (``disk.query_latency``), asserting its answers are bit-identical to
   the in-memory ones;
5. **cold open** — save the disk image to a scratch file and time
   eager open vs zero-copy (mmap) open through to the *first answer*,
   asserting the answers are bit-identical either way;
6. **overhead** — compare per-query time with and without the recorder,
   asserting results stay bit-identical either way.

Everything is seeded, so two runs of the same config produce the same
counters (timings vary, counters must not).  Results serialize to
``BENCH_<name>.json``; the schema is documented in
``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import json
import tempfile
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from ..core.index import RankedJoinIndex
from ..datagen.preferences import random_preferences
from ..datagen.synthetic import (
    correlated_pairs,
    gaussian_pairs,
    uniform_pairs,
)
from ..errors import ConstructionError
from ..obs import (
    JsonlRecorder,
    MetricsRecorder,
    Recorder,
    TeeRecorder,
    write_chrome_trace,
)
from ..storage.diskindex import DiskRankedJoinIndex

__all__ = [
    "BUILD_HEAVY_CONFIG",
    "BenchConfig",
    "SMOKE_CONFIG",
    "run_benchmark",
    "write_report",
]


@dataclass(frozen=True, slots=True)
class BenchConfig:
    """One fully-seeded benchmark scenario."""

    name: str = "smoke"
    dataset: str = "uniform"
    n_tuples: int = 2000
    k_bound: int = 20
    k_query: int = 10
    n_queries: int = 200
    seed: int = 7
    variant: str = "standard"
    merge_slack: int = 0
    page_size: int = 4096
    buffer_capacity: int = 16
    cache_size: int = 0


#: The CI smoke scenario: small enough for seconds, large enough that
#: every counter in the report is non-trivial.
SMOKE_CONFIG = BenchConfig()

#: The construction-dominated scenario: an anti-correlated population
#: (dominating set near Lemma 1's worst case) with a large K, so the
#: event sweep — not the query loop — is where the time goes.
BUILD_HEAVY_CONFIG = BenchConfig(
    name="build_heavy",
    dataset="anticorrelated",
    n_tuples=20_000,
    k_bound=80,
    k_query=20,
    n_queries=500,
    seed=11,
)


def _make_tuples(config: BenchConfig):
    if config.dataset == "uniform":
        return uniform_pairs(config.n_tuples, seed=config.seed)
    if config.dataset == "gauss":
        return gaussian_pairs(config.n_tuples, seed=config.seed)
    if config.dataset == "correlated":
        return correlated_pairs(config.n_tuples, rho=0.7, seed=config.seed)
    if config.dataset == "anticorrelated":
        return correlated_pairs(config.n_tuples, rho=-0.6, seed=config.seed)
    raise ConstructionError(f"unknown benchmark dataset {config.dataset!r}")


def _percentiles(samples: list[float]) -> dict[str, float]:
    array = np.asarray(samples, dtype=np.float64)
    return {
        "p50_s": float(np.percentile(array, 50)),
        "p99_s": float(np.percentile(array, 99)),
        "mean_s": float(array.mean()),
        "max_s": float(array.max()),
    }


def _warmup(
    index: RankedJoinIndex | DiskRankedJoinIndex, preferences, k: int
) -> None:
    """Untimed full pass so timed passes compare like for like.

    The first visit to each region pays one-off costs (allocator churn
    from the preceding build, cold caches); a partial warmup leaves a
    heavy tail in whichever timed pass runs first.
    """
    for preference in preferences:
        index.query(preference, k)


def _timed_queries(
    index: RankedJoinIndex | DiskRankedJoinIndex, preferences, k: int
):
    """Per-query wall-clock latencies plus the answers themselves."""
    latencies: list[float] = []
    answers = []
    for preference in preferences:
        started = time.perf_counter()
        answers.append(index.query(preference, k))
        latencies.append(time.perf_counter() - started)
    return latencies, answers


def run_benchmark(
    config: BenchConfig = SMOKE_CONFIG,
    *,
    trace_path: str | Path | None = None,
    log_path: str | Path | None = None,
) -> dict:
    """Run one scenario and return the JSON-ready report dictionary.

    ``trace_path`` additionally writes every completed span (build
    phases, SQL-free here, plus the disk replay) as a Chrome trace-event
    file; ``log_path`` tees a :class:`~repro.obs.JsonlRecorder` into the
    instrumented passes, streaming each recorder event as one JSON line.
    Both exporters only *watch*: the gated counters of the report are
    identical with or without them (the overhead section reflects the
    extra logging cost when a log is attached).
    """
    tuples = _make_tuples(config)
    preferences = random_preferences(config.n_queries, seed=config.seed + 1)

    log_recorder = (
        JsonlRecorder(log_path) if log_path is not None else None
    )

    def instrument(metrics: MetricsRecorder) -> Recorder:
        if log_recorder is None:
            return metrics
        return TeeRecorder(metrics, log_recorder)

    # -- build (instrumented) ---------------------------------------------
    build_recorder = MetricsRecorder()
    started = time.perf_counter()
    instrumented = RankedJoinIndex.build(
        tuples,
        config.k_bound,
        variant=config.variant,
        merge_slack=config.merge_slack,
        recorder=instrument(build_recorder),
    )
    build_seconds = time.perf_counter() - started
    stats = instrumented.stats

    # -- query latency (uninstrumented: what a user pays) ------------------
    plain = RankedJoinIndex.build(
        tuples,
        config.k_bound,
        variant=config.variant,
        merge_slack=config.merge_slack,
    )
    _warmup(plain, preferences, config.k_query)
    null_latencies, null_answers = _timed_queries(
        plain, preferences, config.k_query
    )

    # -- query counters (instrumented replay) ------------------------------
    _warmup(instrumented, preferences, config.k_query)
    # Build spans die with the reset below; keep them for the trace file.
    build_spans = list(build_recorder.spans)
    build_recorder.reset()
    metric_latencies, metric_answers = _timed_queries(
        instrumented, preferences, config.k_query
    )
    if metric_answers != null_answers:
        raise ConstructionError(
            "recorder changed query answers; observability must be inert"
        )
    query_counters = build_recorder.snapshot()

    # -- disk replay: page I/O, buffer hit rate, descent depth -------------
    disk_recorder = MetricsRecorder()
    disk = DiskRankedJoinIndex(
        plain,
        page_size=config.page_size,
        buffer_capacity=config.buffer_capacity,
        recorder=instrument(disk_recorder),
    )
    disk.reset_io()
    for preference in preferences:
        disk.query(preference, config.k_query)
    # Latency comes from a second, uninstrumented image with a warm
    # pool, so it is what a caller pays and is comparable with
    # ``query_latency`` above.
    plain_disk = DiskRankedJoinIndex(
        plain,
        page_size=config.page_size,
        buffer_capacity=config.buffer_capacity,
    )
    _warmup(plain_disk, preferences, config.k_query)
    disk_latencies, disk_answers = _timed_queries(
        plain_disk, preferences, config.k_query
    )
    if disk_answers != null_answers:
        raise ConstructionError(
            "the disk tier changed query answers; it must be bit-identical "
            "to the in-memory index"
        )
    disk_summary = {
        "btree_descent_nodes": asdict(disk_recorder.series("disk.btree_nodes")),
        "btree_keys_compared": int(
            disk_recorder.series("disk.btree_keys_compared").total
        ),
        "query_latency": _percentiles(disk_latencies),
        "pages_read_per_query": asdict(disk_recorder.series("disk.pages_read")),
        "tuples_evaluated": asdict(
            disk_recorder.series("disk.tuples_evaluated")
        ),
        "pager_reads": disk.pager.counters.reads,
        "pager_writes": disk.pager.counters.writes,
        "buffer_hits": disk.pool.hits,
        "buffer_misses": disk.pool.misses,
        "buffer_hit_rate": disk.pool.hit_rate,
        "index_pages": disk.stats.total_pages,
        "index_bytes": disk.stats.total_bytes,
    }

    # -- cold open: eager vs zero-copy startup latency ---------------------
    cold_open = _cold_open_metrics(disk, preferences[0], config.k_query)

    # -- recorder overhead --------------------------------------------------
    # Medians, not means: a single GC pause or scheduler hiccup in one
    # pass would otherwise swamp the per-query instrumentation cost.
    null_median = float(np.median(null_latencies))
    metric_median = float(np.median(metric_latencies))
    overhead = {
        "null_median_s": null_median,
        "metrics_median_s": metric_median,
        "metrics_over_null": (
            metric_median / null_median if null_median else 1.0
        ),
    }

    if trace_path is not None:
        write_chrome_trace(
            trace_path,
            build_spans + build_recorder.spans + disk_recorder.spans,
            process_name=f"repro.bench:{config.name}",
        )
    if log_recorder is not None:
        log_recorder.close()

    return {
        "schema_version": 1,
        "config": asdict(config),
        "build": {
            "wall_seconds": build_seconds,
            "time_dominating_s": stats.time_dominating,
            "time_separating_s": stats.time_separating,
            "time_load_s": stats.time_load,
            "n_input": stats.n_input,
            "n_dominating": stats.n_dominating,
            "n_regions": stats.n_regions,
            "n_separating": stats.n_separating,
            "pairs_considered": stats.pairs_considered,
            "n_events": stats.n_events,
        },
        "query_latency": _percentiles(null_latencies),
        "query_counters": query_counters["counters"],
        "query_series": query_counters["series"],
        "disk": disk_summary,
        "cold_open": cold_open,
        "overhead": overhead,
    }


def _cold_open_metrics(
    disk: DiskRankedJoinIndex, preference, k: int
) -> dict:
    """Time eager vs mmap open of the same saved image to first answer.

    Timings live outside the gated sections (``repro.bench.compare``
    flattens only build / query_latency / disk / query_counters), so
    machine-speed variance here never trips the regression gate — but
    the answers themselves must match bit for bit, checked right here.
    """
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "cold_open.rji"
        disk.save(path)
        file_bytes = path.stat().st_size

        started = time.perf_counter()
        eager = DiskRankedJoinIndex.open(path)
        eager_open_s = time.perf_counter() - started
        eager_answer = eager.query(preference, k)
        eager_first_answer_s = time.perf_counter() - started

        started = time.perf_counter()
        mapped = DiskRankedJoinIndex.open(path, mmap=True)
        mmap_open_s = time.perf_counter() - started
        mapped_answer = mapped.query(preference, k)
        mmap_first_answer_s = time.perf_counter() - started

        if mapped_answer != eager_answer:
            raise ConstructionError(
                "zero-copy open changed query answers; mmap must be "
                "bit-identical to the eager path"
            )
        close = getattr(mapped.pager, "close", None)
        if close is not None:
            close()
    return {
        "file_bytes": file_bytes,
        "eager_open_s": eager_open_s,
        "eager_first_answer_s": eager_first_answer_s,
        "mmap_open_s": mmap_open_s,
        "mmap_first_answer_s": mmap_first_answer_s,
        "open_speedup": (
            eager_open_s / mmap_open_s if mmap_open_s > 0 else float("inf")
        ),
    }


def write_report(report: dict, out_dir: str | Path = ".") -> Path:
    """Write ``report`` to ``BENCH_<name>.json`` under ``out_dir``."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"BENCH_{report['config']['name']}.json"
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return path
