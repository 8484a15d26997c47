"""Estimators: nearest-rank percentiles per segment, the best segment across.

Every timed section is cut into many short equal segments; a segment
yields its own p50, p99 and ops/s, and a workload reports, per metric,
its *best* segment.  Interference on this sandbox is additive and comes
in bursts of about a second, so the best of 30-150 segments is the
program's own speed and repeats (3-8% between identical runs), where the
median of the same segments follows the bursts (16-20%).  Keeping only
per-segment summaries also keeps the harness's memory flat however long
``--seconds`` is.
"""

from __future__ import annotations

from dataclasses import dataclass


def nearest_rank(sorted_samples: list[float], q: float) -> float:
    """The ``q``-th percentile (0-100) of pre-sorted samples."""
    n = len(sorted_samples)
    if not n:
        raise ValueError("no samples")
    rank = max(1, min(n, -(-q * n // 100)))  # ceil(q/100 * n), clamped
    return sorted_samples[int(rank) - 1]


@dataclass(frozen=True)
class Segment:
    """One timed segment: latencies in seconds in, microseconds out."""

    n_reads: int
    read_p50_us: float
    read_p99_us: float
    n_writes: int
    write_p50_us: float | None
    write_p99_us: float | None
    ops_per_s: float
    wall_s: float

    @classmethod
    def of(
        cls, reads: list[float], writes: list[float], wall_s: float
    ) -> "Segment":
        reads = sorted(reads)
        writes = sorted(writes)
        return cls(
            n_reads=len(reads),
            read_p50_us=nearest_rank(reads, 50) * 1e6,
            read_p99_us=nearest_rank(reads, 99) * 1e6,
            n_writes=len(writes),
            write_p50_us=nearest_rank(writes, 50) * 1e6 if writes else None,
            write_p99_us=nearest_rank(writes, 99) * 1e6 if writes else None,
            ops_per_s=(len(reads) + len(writes)) / wall_s,
            wall_s=wall_s,
        )


def best(values: list[float], better: str = "lower") -> float:
    """The across-segment estimator."""
    return min(values) if better == "lower" else max(values)


def p50(values: list[float]) -> float:
    return nearest_rank(sorted(values), 50)
