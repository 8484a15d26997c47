"""The chaos smoke scenario: the smoke workload under a fault plan.

``python -m repro.bench --faults <plan>`` runs the standard smoke
workload against a :class:`~repro.storage.ResilientDiskRankedJoinIndex`
whose underlying disk index is armed with a
:class:`~repro.faults.FaultPlan` (a built-in name such as
``transient-reads`` or a path to a plan JSON).  The report records what
resilience *costs*: latency split into disk-served and degraded-mode
buckets, retry/degradation counters, and the final health snapshot —
all under the registered ``resilience.*`` / ``faults.injected`` names.

The workload counters are deterministic for a given (config, plan)
pair: the injector's probability draws come from the plan's seed, and
queries run sequentially, so two runs inject the same faults at the
same operations.  Latencies vary run to run and are not gated.
"""

from __future__ import annotations

import tempfile
import time
from dataclasses import asdict
from pathlib import Path

from ..core.index import RankedJoinIndex
from ..datagen.preferences import random_preferences
from ..faults import FaultPlan, arm, builtin_plan
from ..obs import MetricsRecorder
from ..storage.diskindex import DiskRankedJoinIndex
from ..storage.resilient import (
    CircuitBreaker,
    ResilientDiskRankedJoinIndex,
    RetryPolicy,
)
from .runner import SMOKE_CONFIG, BenchConfig, _make_tuples, _percentiles

__all__ = ["load_plan", "run_chaos_benchmark"]


def load_plan(spec: str) -> FaultPlan:
    """Resolve a ``--faults`` argument: built-in plan name or JSON path."""
    if spec.endswith(".json"):
        return FaultPlan.load(spec)
    return builtin_plan(spec)


def run_chaos_benchmark(
    plan: FaultPlan, config: BenchConfig = SMOKE_CONFIG, *, mmap: bool = False
) -> dict:
    """Run the smoke workload under ``plan`` and report resilience costs.

    With ``mmap=True`` the disk index is saved to a scratch file and
    reopened zero-copy before the plan is armed, so the chaos contract
    (bit-identical / typed error / degraded-but-correct) is exercised
    against the memory-mapped read path too.
    """
    tuples = _make_tuples(config)
    preferences = random_preferences(config.n_queries, seed=config.seed + 1)

    fallback = RankedJoinIndex.build(
        tuples,
        config.k_bound,
        variant=config.variant,
        merge_slack=config.merge_slack,
    )
    disk = DiskRankedJoinIndex(
        fallback,
        page_size=config.page_size,
        buffer_capacity=config.buffer_capacity,
    )
    scratch: tempfile.TemporaryDirectory | None = None
    if mmap:
        scratch = tempfile.TemporaryDirectory()
        path = Path(scratch.name) / "chaos_mmap.rji"
        disk.save(path)
        disk = DiskRankedJoinIndex.open(
            path, mmap=True, cache_size=config.cache_size
        )

    recorder = MetricsRecorder()
    injector = arm(plan, disk_index=disk, recorder=recorder)
    resilient = ResilientDiskRankedJoinIndex(
        disk,
        fallback,
        retry=RetryPolicy(seed=plan.seed),
        breaker=CircuitBreaker(cooldown_s=0.010),
        recorder=recorder,
    )

    # Bucket each query's latency by whether it degraded: the degraded
    # counter's delta across the call attributes the sample exactly.
    disk_latencies: list[float] = []
    degraded_latencies: list[float] = []
    answers = []
    for preference in preferences:
        degraded_before = resilient.health().degraded_queries
        started = time.perf_counter()
        answers.append(resilient.query(preference, config.k_query))
        elapsed = time.perf_counter() - started
        if resilient.health().degraded_queries > degraded_before:
            degraded_latencies.append(elapsed)
        else:
            disk_latencies.append(elapsed)

    expected = [
        fallback.query(preference, config.k_query)
        for preference in preferences
    ]
    if answers != expected:
        raise AssertionError(
            "resilient serving returned answers that differ from the "
            "scalar path; degradation must never change results"
        )

    health = resilient.health()
    if scratch is not None:
        close = getattr(disk.pager, "close", None)
        if close is not None:
            close()
        scratch.cleanup()
    return {
        "schema_version": 1,
        "config": asdict(config),
        "mmap": mmap,
        "plan": plan.to_dict(),
        "faults_injected": len(injector.log),
        "health": health.to_snapshot()["counters"],
        "last_fault": health.last_fault,
        "disk_latency": (
            _percentiles(disk_latencies) if disk_latencies else None
        ),
        "degraded_latency": (
            _percentiles(degraded_latencies) if degraded_latencies else None
        ),
        "answers_match_scalar_path": True,
    }
