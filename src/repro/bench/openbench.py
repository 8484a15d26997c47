"""The zero-copy open scenario: cold-start latency and the hot cache.

``python -m repro.bench --open-zero-copy`` measures the two costs the
PR-8 perf work attacks:

1. **cold open** — a build-heavy-sized index is saved once, then opened
   repeatedly both ways: *eager* (``Pager.load``: read the whole file,
   verify every page CRC up front) and *zero-copy*
   (``MappedPager.map``: mmap the file, verify the header, defer each
   page's CRC to first touch).  Open latency is reported as the median
   of several repetitions — the acceptance criterion is an
   order-of-magnitude ``open_speedup``;
2. **hot-region cache** — a deterministic *skewed* workload (a few
   distinct preference angles, zipf-weighted repetition from one seeded
   draw) runs against the mmap-opened index with ``cache_size > 0``
   under a :class:`~repro.obs.MetricsRecorder`.  The ``rji.cache.*``
   counters land in the gated ``query_counters`` section, so a change
   that silently stops hitting the cache fails the CI compare gate.

Bit-identity is asserted in-loop: every answer from the mmap + cached
path must equal both the eager disk path and the in-memory scalar
index, tuple for tuple.

Timings live in the ungated ``open`` section and in
``disk.query_latency`` (wall-clock, gated only under ``--gate-time``),
so machine noise never trips the gate; the counters do the gating.
"""

from __future__ import annotations

import tempfile
import time
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from ..core.index import RankedJoinIndex
from ..datagen.preferences import random_preferences
from ..obs import MetricsRecorder
from ..storage.diskindex import DiskRankedJoinIndex
from .runner import (
    BUILD_HEAVY_CONFIG,
    BenchConfig,
    _make_tuples,
    _percentiles,
)

__all__ = ["OPEN_CONFIG", "run_open_benchmark"]

#: The zero-copy open scenario: the build-heavy population (a large
#: saved image, so eager open has real work to skip) plus a hot-region
#: cache sized well below the distinct-angle count of the workload.
OPEN_CONFIG = replace(
    BUILD_HEAVY_CONFIG,
    name="open",
    n_queries=400,
    cache_size=64,
)

#: Repetitions per open mode; the median absorbs one-off page-cache
#: or allocator hiccups without hiding a real regression.
_OPEN_REPS = 5

#: Distinct preference angles in the skewed workload.  More than the
#: default cache capacity would make eviction counters trivial; fewer
#: would make hits trivial.  32 distinct over 64 slots exercises hits
#: without evictions at the default config, and evictions as soon as a
#: caller shrinks ``cache_size`` below 32.
_N_DISTINCT = 32


def _skewed_preferences(config: BenchConfig) -> list:
    """A zipf-weighted repetition of a few distinct angles, seeded."""
    distinct = random_preferences(_N_DISTINCT, seed=config.seed + 1)
    weights = 1.0 / np.arange(1, _N_DISTINCT + 1, dtype=np.float64)
    weights /= weights.sum()
    rng = np.random.default_rng(config.seed + 2)
    picks = rng.choice(_N_DISTINCT, size=config.n_queries, p=weights)
    return [distinct[int(i)] for i in picks]


def _median_open_s(path: Path, *, mmap: bool) -> float:
    samples = []
    for _ in range(_OPEN_REPS):
        started = time.perf_counter()
        index = DiskRankedJoinIndex.open(path, mmap=mmap)
        samples.append(time.perf_counter() - started)
        close = getattr(index.pager, "close", None)
        if close is not None:
            close()
    return float(np.median(samples))


def run_open_benchmark(config: BenchConfig = OPEN_CONFIG) -> dict:
    """Run the open scenario and return the JSON-ready report dict."""
    tuples = _make_tuples(config)
    preferences = _skewed_preferences(config)

    started = time.perf_counter()
    index = RankedJoinIndex.build(
        tuples,
        config.k_bound,
        variant=config.variant,
        merge_slack=config.merge_slack,
    )
    build_seconds = time.perf_counter() - started
    stats = index.stats

    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "open.rji"
        DiskRankedJoinIndex(
            index,
            page_size=config.page_size,
            buffer_capacity=config.buffer_capacity,
        ).save(path)
        file_bytes = path.stat().st_size

        eager_open_s = _median_open_s(path, mmap=False)
        mmap_open_s = _median_open_s(path, mmap=True)

        # Time-to-first-answer on fresh opens of each kind.
        started = time.perf_counter()
        eager = DiskRankedJoinIndex.open(path)
        eager.query(preferences[0], config.k_query)
        eager_first_answer_s = time.perf_counter() - started

        recorder = MetricsRecorder()
        started = time.perf_counter()
        mapped = DiskRankedJoinIndex.open(
            path,
            mmap=True,
            cache_size=config.cache_size,
            recorder=recorder,
        )
        mapped.query(preferences[0], config.k_query)
        mmap_first_answer_s = time.perf_counter() - started

        # The skewed workload, counted; every answer triple-checked.
        mapped.reset_io()
        recorder.reset()
        mismatches = 0
        latencies = []
        for preference in preferences:
            started = time.perf_counter()
            answer = mapped.query(preference, config.k_query)
            latencies.append(time.perf_counter() - started)
            if answer != eager.query(preference, config.k_query):
                mismatches += 1
            elif answer != index.query(preference, config.k_query):
                mismatches += 1
        if mismatches:
            raise AssertionError(
                f"{mismatches} answers from the mmap + cached path "
                "differ from the eager/in-memory paths; zero-copy must "
                "be bit-identical"
            )
        query_counters = recorder.snapshot()["counters"]
        cache = mapped.cache
        assert cache is not None  # config.cache_size > 0
        cache_summary = cache.snapshot()
        disk_summary = {
            "pager_reads": mapped.pager.counters.reads,
            # Only hot-cache misses descend the B+-tree.
            "btree_keys_compared": int(
                recorder.series("disk.btree_keys_compared").total
            ),
            # The counted pass itself: mmap + hot cache, recorder attached.
            "query_latency": _percentiles(latencies),
            "index_pages": mapped.stats.total_pages,
            "index_bytes": mapped.stats.total_bytes,
        }
        close = getattr(mapped.pager, "close", None)
        if close is not None:
            close()

    return {
        "schema_version": 1,
        "config": asdict(config),
        "build": {
            "wall_seconds": build_seconds,
            "n_input": stats.n_input,
            "n_dominating": stats.n_dominating,
            "n_regions": stats.n_regions,
            "n_separating": stats.n_separating,
            "pairs_considered": stats.pairs_considered,
            "n_events": stats.n_events,
        },
        "open": {
            "file_bytes": file_bytes,
            "eager_open_s": eager_open_s,
            "mmap_open_s": mmap_open_s,
            "eager_first_answer_s": eager_first_answer_s,
            "mmap_first_answer_s": mmap_first_answer_s,
            "open_speedup": (
                eager_open_s / mmap_open_s
                if mmap_open_s > 0
                else float("inf")
            ),
        },
        "query_counters": query_counters,
        "cache": cache_summary,
        "disk": disk_summary,
        "answers_match_eager_and_memory": True,
    }
