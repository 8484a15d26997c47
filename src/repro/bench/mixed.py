"""The mixed read/write benchmark: ``python -m repro.bench --mixed``.

A closed loop over one :class:`~repro.storage.durable.DurableRankedJoinIndex`:
zipf-skewed top-k reads interleaved with a steady insert/delete stream,
every write riding the WAL-then-delta path (append + fsync commit +
delta apply, a rebuild only when one of the writable index's compaction
triggers (:data:`~repro.core.writepath.TRIGGERS`) fires — which
this stream, mostly inert writes, seldom does; a separate trigger phase
fires each reason once on a small index).  The scenario reports

* **read latency** — p50/p99/mean over the merged (base ∪ delta) query
  path, the number a read replica would see while taking writes;
* **write latency** — p50/p99 of the full durable write (the fsync is
  in the loop), plus the count and duration of compaction pauses;
* **correctness** — after the loop *and again after close + recover*,
  every probe preference's merged top-k is compared bit-for-bit against
  a scalar rebuild from the shadow tuple pool.  Mismatches land in the
  gated ``query_counters`` section with a baseline of zero.

The write-path counters (``wal.appends``/``wal.commits``/``wal.fsyncs``
/``compaction.runs``/...) are a deterministic function of the seeded
config, so they are gated too: an accidental extra fsync per write or a
compaction-threshold regression fails the CI compare, not a dashboard
review three weeks later.  Timing-shaped numbers stay ungated in the
``mixed`` section.
"""

from __future__ import annotations

import tempfile
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from ..core.index import RankedJoinIndex
from ..core.tuples import RankTuple
from ..core.writepath import TRIGGERS
from ..datagen.preferences import random_preferences
from ..obs import MetricsRecorder
from ..storage.durable import DurableRankedJoinIndex
from .runner import BenchConfig, _make_tuples, _percentiles

__all__ = ["MIXED_CONFIG", "MixedBenchConfig", "run_mixed_benchmark"]


@dataclass(frozen=True, slots=True)
class MixedBenchConfig:
    """One fully-seeded mixed read/write scenario."""

    name: str = "mixed"
    dataset: str = "uniform"
    n_tuples: int = 4000
    k_bound: int = 20
    k_query: int = 10
    seed: int = 7
    #: closed-loop shape: one write every ``reads_per_write`` reads.
    n_reads: int = 2000
    reads_per_write: int = 5
    #: distinct probe preferences; reads draw zipf-skewed among them.
    n_preferences: int = 64
    zipf_s: float = 1.2
    #: merged (charged + visible) delta entries that trigger a rebuild.
    compaction_threshold: int = 64
    #: fsync on every commit (the honest number; False only for tests).
    fsync: bool = True


#: The default (and CI smoke) mixed scenario.
MIXED_CONFIG = MixedBenchConfig()


def _zipf_draws(config: MixedBenchConfig, n: int) -> np.ndarray:
    """Seeded zipf-skewed indices into the probe preference list."""
    ranks = np.arange(1, config.n_preferences + 1, dtype=np.float64)
    weights = ranks ** (-config.zipf_s)
    weights /= weights.sum()
    rng = np.random.default_rng(config.seed + 17)
    return rng.choice(config.n_preferences, size=n, p=weights)


def _mismatches(index, pool: dict, preferences, k: int, k_bound: int) -> int:
    """Probe answers vs a scalar rebuild of the same logical tuple set."""
    reference = RankedJoinIndex.build(sorted(pool.values()), k_bound)
    wrong = 0
    for preference in preferences:
        if index.query(preference, k) != reference.query(preference, k):
            wrong += 1
    return wrong


def _as_pool(tuples) -> dict[int, RankTuple]:
    return {
        int(t.tid): RankTuple(int(t.tid), float(t.s1), float(t.s2))
        for t in tuples
    }


def _until_rebuild(index, pool: dict, ops: Iterable[tuple]) -> int:
    """Apply ``ops`` until one triggers a rebuild; how many ran (0: none did)."""
    rebuilds = len(index.compaction_pauses)
    for n, (op, payload) in enumerate(ops, 1):
        if op == "insert":
            index.insert(payload)
            pool[payload.tid] = payload
        else:
            index.delete(payload)
            del pool[payload]
        if len(index.compaction_pauses) > rebuilds:
            return n
    return 0


def _trigger_phase(config: MixedBenchConfig, directory: Path) -> dict:
    """Fire each rebuild trigger in turn on a small durable index.

    Writes that can reach no top-K do not rebuild, so the main loop
    usually rebuilds never; this phase keeps every trigger covered:

    * ``log`` — inserts below every ranked tuple, each deleted again,
      until the log since the base reaches ``n_live`` (the index holds
      ``4 * threshold`` tuples);
    * ``visible`` — inserts above every ranked tuple, until ``threshold``
      of them are buffered;
    * ``charged`` — deletes of the best-ranked live tuples (the last leg's
      inserts, now in the base), until they hide ``K / 2`` indexed rows.
    """
    base = _make_tuples(
        BenchConfig(
            dataset=config.dataset,
            n_tuples=4 * config.compaction_threshold,
            k_bound=config.k_bound,
            seed=config.seed,
        )
    )
    recorder = MetricsRecorder()
    index = DurableRankedJoinIndex.create(
        directory,
        base,
        config.k_bound,
        compaction_threshold=config.compaction_threshold,
        fsync=config.fsync,
        recorder=recorder,
    )
    pool = _as_pool(base)
    threshold, next_tid = config.compaction_threshold, max(pool) + 1
    ranks = [rank for t in pool.values() for rank in (t.s1, t.s2)]
    floor, ceiling = min(ranks), max(ranks)
    rng = np.random.default_rng(config.seed + 53)
    inert = [
        RankTuple(next_tid + i, floor * (1 + i % 7) / 8, floor / 8)
        for i in range(len(pool) + threshold)
    ]
    next_tid += len(inert)
    visible = [
        RankTuple(
            next_tid + i, ceiling * (1 + rng.random()), ceiling * (1 + rng.random())
        )
        for i in range(2 * threshold)
    ]
    writes = {
        "log": _until_rebuild(
            index,
            pool,
            (op for t in inert for op in (("insert", t), ("delete", t.tid))),
        ),
        "visible": _until_rebuild(
            index, pool, (("insert", t) for t in visible)
        ),
    }
    best_first = sorted(pool.values(), key=lambda t: -(t.s1 + t.s2))
    writes["charged"] = _until_rebuild(
        index, pool, (("delete", t.tid) for t in best_first[: config.k_bound])
    )
    preferences = random_preferences(config.n_preferences, seed=config.seed + 5)
    mismatches = _mismatches(
        index, pool, preferences, config.k_query, config.k_bound
    )
    index.close()
    counters = recorder.snapshot()["counters"]
    return {
        "writes_until_rebuild": writes,
        "counters": {
            "triggers.mismatches": mismatches,
            **{
                f"triggers.{reason}": counters.get(name, 0)
                for reason, name in TRIGGERS.items()
            },
        },
    }


def run_mixed_benchmark(config: MixedBenchConfig = MIXED_CONFIG) -> dict:
    """Run the mixed scenario; returns the JSON-ready report."""
    base = _make_tuples(
        BenchConfig(
            dataset=config.dataset,
            n_tuples=config.n_tuples,
            k_bound=config.k_bound,
            seed=config.seed,
        )
    )
    preferences = random_preferences(
        config.n_preferences, seed=config.seed + 3
    )
    reads = _zipf_draws(config, config.n_reads)
    rng = np.random.default_rng(config.seed + 29)
    metrics = MetricsRecorder()

    with tempfile.TemporaryDirectory(prefix="rji-mixed-") as tmp:
        directory = Path(tmp)
        started = time.perf_counter()
        index = DurableRankedJoinIndex.create(
            directory,
            base,
            config.k_bound,
            compaction_threshold=config.compaction_threshold,
            fsync=config.fsync,
            recorder=metrics,
        )
        create_s = time.perf_counter() - started
        pool = _as_pool(base)
        next_tid = max(pool) + 1

        read_latencies: list[float] = []
        write_latencies: list[float] = []
        n_inserts = n_deletes = 0
        loop_started = time.perf_counter()
        for step, choice in enumerate(reads):
            preference = preferences[int(choice)]
            t0 = time.perf_counter()
            index.query(preference, config.k_query)
            read_latencies.append(time.perf_counter() - t0)
            if step % config.reads_per_write:
                continue
            # Alternate a fresh insert with a delete of a random live
            # tuple, so the pool size stays roughly flat; the writes
            # that land in the K-skyband (charged deletes, visible
            # inserts) put the reads after them on the merge path.
            if (step // config.reads_per_write) % 2 == 0:
                tuple_ = RankTuple(
                    next_tid, float(rng.random()), float(rng.random())
                )
                t0 = time.perf_counter()
                index.insert(tuple_)
                write_latencies.append(time.perf_counter() - t0)
                pool[next_tid] = tuple_
                next_tid += 1
                n_inserts += 1
            else:
                victim = int(rng.choice(sorted(pool)))
                t0 = time.perf_counter()
                index.delete(victim)
                write_latencies.append(time.perf_counter() - t0)
                del pool[victim]
                n_deletes += 1
        loop_s = time.perf_counter() - loop_started

        live_mismatches = _mismatches(
            index, pool, preferences, config.k_query, config.k_bound
        )
        pauses = list(index.compaction_pauses)
        index.close()

        # Reopen from disk: the WAL replay must reproduce the identical
        # logical state — same probes, same scalar reference.
        recovered = DurableRankedJoinIndex.recover(
            directory, fsync=config.fsync
        )
        report_obj = recovered.last_recovery
        recovered_mismatches = _mismatches(
            recovered, pool, preferences, config.k_query, config.k_bound
        )
        pool_drift = int(
            recovered.n_live != len(pool)
            or {t.tid for t in recovered.live_tuples()} != set(pool)
        )
        recovered.close()
        triggers = _trigger_phase(config, directory / "triggers")

    counters = metrics.snapshot()["counters"]
    n_ops = config.n_reads + len(write_latencies)
    return {
        "schema_version": 1,
        "config": asdict(config),
        "query_latency": _percentiles(read_latencies),
        "mixed": {
            "create_seconds": create_s,
            "loop_seconds": loop_s,
            "ops_per_second": (n_ops / loop_s) if loop_s > 0 else 0.0,
            "n_reads": config.n_reads,
            "n_inserts": n_inserts,
            "n_deletes": n_deletes,
            "write_latency": _percentiles(write_latencies),
            "compaction_pauses": len(pauses),
            "compaction_pause_max_s": max(pauses) if pauses else 0.0,
            "compaction_pause_total_s": sum(pauses),
            "recovery": {
                "checkpoint_lsn": report_obj.checkpoint_lsn,
                "last_lsn": report_obj.last_lsn,
                "replayed": report_obj.replayed,
                "torn_tails": report_obj.torn_tails,
                "n_live": report_obj.n_live,
            },
        },
        "triggers": {"writes_until_rebuild": triggers["writes_until_rebuild"]},
        "query_counters": {
            # The trigger phase: one rebuild per reason, answers exact.
            **triggers["counters"],
            # Correctness: zero on a healthy write path, gated in CI.
            "mixed.mismatches": live_mismatches,
            "mixed.recovered_mismatches": recovered_mismatches,
            "mixed.recovered_pool_drift": pool_drift,
            "mixed.recovery_torn_tails": report_obj.torn_tails,
            # Write-path shape: deterministic for the seeded config.
            "wal.appends": counters.get("wal.appends", 0),
            "wal.commits": counters.get("wal.commits", 0),
            "wal.fsyncs": counters.get("wal.fsyncs", 0),
            "wal.checkpoints": counters.get("wal.checkpoints", 0),
            "delta.inserts": counters.get("delta.inserts", 0),
            "delta.deletes": counters.get("delta.deletes", 0),
            "delta.merged_queries": counters.get("delta.merged_queries", 0),
            "compaction.runs": counters.get("compaction.runs", 0),
        },
    }
