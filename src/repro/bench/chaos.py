"""The chaos smoke scenario: the smoke workload under a fault plan.

``python -m repro.bench --faults <plan>`` runs the standard smoke
workload against the bare :class:`~repro.storage.DiskRankedJoinIndex`,
the index ``repro serve`` serves, armed with a
:class:`~repro.faults.FaultPlan` (a built-in name such as
``transient-reads`` or a path to a plan JSON).  Every query must end
in one of two outcomes: an answer bit-identical to the in-memory index
the image was built from, or a typed :class:`~repro.errors.ReproError`.
A wrong answer or an untyped exception fails the run.  The report
tallies the two outcomes, the typed errors by class, and the latency
of each outcome.

The workload counters are deterministic for a given (config, plan)
pair: the injector's probability draws come from the plan's seed, and
queries run sequentially, so two runs inject the same faults at the
same operations.  Latencies vary run to run and are not gated.
"""

from __future__ import annotations

import tempfile
import time
from collections import Counter
from dataclasses import asdict
from pathlib import Path

from ..core.index import RankedJoinIndex
from ..datagen.preferences import random_preferences
from ..errors import ReproError
from ..faults import FaultPlan, arm, builtin_plan
from ..storage.diskindex import DiskRankedJoinIndex
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
    """Run the smoke workload under ``plan``; every query must answer
    exactly or raise a typed error.

    With ``mmap=True`` the disk index is saved to a scratch file and
    reopened zero-copy before the plan is armed, so the chaos contract
    is exercised against the memory-mapped read path too.  Raises
    ``AssertionError`` on a wrong answer; an untyped exception
    propagates.
    """
    tuples = _make_tuples(config)
    preferences = random_preferences(config.n_queries, seed=config.seed + 1)

    index = RankedJoinIndex.build(
        tuples,
        config.k_bound,
        variant=config.variant,
        merge_slack=config.merge_slack,
    )
    expected = [
        index.query(preference, config.k_query) for preference in preferences
    ]
    disk = DiskRankedJoinIndex(
        index,
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

    injector = arm(plan, disk_index=disk)
    correct_latencies: list[float] = []
    typed_latencies: list[float] = []
    typed_errors: Counter[str] = Counter()
    for preference, want in zip(preferences, expected):
        started = time.perf_counter()
        try:
            got = disk.query(preference, config.k_query)
        except ReproError as exc:
            typed_latencies.append(time.perf_counter() - started)
            typed_errors[type(exc).__name__] += 1
            continue
        correct_latencies.append(time.perf_counter() - started)
        if got != want:
            raise AssertionError(
                f"plan {plan.name!r}: the disk index answered "
                f"{preference!r} wrongly; a fault must end in a typed "
                "error, never a wrong answer"
            )

    if scratch is not None:
        disk.pager.close()
        scratch.cleanup()
    return {
        "schema_version": 2,
        "config": asdict(config),
        "mmap": mmap,
        "plan": plan.to_dict(),
        "faults_injected": len(injector.log),
        "outcomes": {
            "correct": len(correct_latencies),
            "typed_error": len(typed_latencies),
        },
        "typed_errors": dict(sorted(typed_errors.items())),
        "correct_latency": (
            _percentiles(correct_latencies) if correct_latencies else None
        ),
        "typed_error_latency": (
            _percentiles(typed_latencies) if typed_latencies else None
        ),
    }
