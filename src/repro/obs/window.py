"""Rolling-window telemetry: "p99 over the last ten seconds", lock-safe.

Lifetime counters (:class:`~repro.obs.metrics.MetricsRecorder`, the
server's ``serve.*`` totals) answer *"how much, ever"*; an operator
watching a live server needs *"how fast, lately"*.  :class:`RollingWindow`
is a fixed ring of fixed-width time buckets: each recorded request lands
in the bucket of its arrival second, a bucket is lazily reset the first
time a new period reuses its slot, and a snapshot merges only the
buckets that fall inside the window — so old traffic ages out by
construction, with no background thread and no unbounded state.

Per bucket the window keeps an outcome tally (``ok`` / ``error`` /
``shed`` / ``timeout``) and up to ``max_samples`` latency samples; the
overflow is *counted* in ``dropped``, mirroring the exactness
certificate of :class:`~repro.obs.metrics.MetricsRecorder` — a snapshot
with ``dropped == 0`` has exact percentiles.

``qps`` divides by the time the live buckets actually cover — from the
start of the oldest one to now, at least one bucket and at most the
window — so a server two seconds into a run reports its rate, not a
fifth of it.

The clock is injectable (``clock=``) which makes bucket rotation and
expiry deterministic under test.  One lock guards all state (RJI011);
snapshots are consistent cuts.
"""

from __future__ import annotations

import threading
import time
from typing import Callable

from ..errors import ConstructionError

__all__ = ["OUTCOMES", "RollingWindow"]

#: The outcome classes one request resolves to.
OUTCOMES = ("ok", "error", "shed", "timeout")


class _Bucket:
    """One time-bucket slot of the ring; reset when its period is reused."""

    __slots__ = ("epoch", "count", "outcomes", "samples", "dropped")

    def __init__(self) -> None:
        self.epoch: int | None = None
        self.count = 0
        self.outcomes: dict[str, int] = {}
        self.samples: list[float] = []
        self.dropped = 0

    def reset(self, epoch: int) -> None:
        self.epoch = epoch
        self.count = 0
        self.outcomes = {}
        self.samples = []
        self.dropped = 0


def _nearest_rank(sorted_samples: list[float], q: float) -> float:
    """Nearest-rank percentile of pre-sorted samples (0.0 when empty)."""
    if not sorted_samples:
        return 0.0
    n = len(sorted_samples)
    rank = max(0, min(n - 1, round(q / 100.0 * n) - 1))
    return sorted_samples[rank]


class RollingWindow:
    """A lock-safe ring of time buckets over the last N seconds.

    ``bucket_s`` is the bucket width, ``n_buckets`` the ring length;
    the window spans ``bucket_s * n_buckets`` seconds.  ``record`` is
    O(1); ``snapshot`` sorts the retained samples of the live buckets.
    """

    def __init__(
        self,
        *,
        bucket_s: float = 1.0,
        n_buckets: int = 10,
        max_samples: int = 512,
        clock: Callable[[], float] = time.monotonic,
    ):
        if bucket_s <= 0:
            raise ConstructionError(
                f"bucket_s must be positive, got {bucket_s}"
            )
        if n_buckets < 2:
            raise ConstructionError(
                f"n_buckets must be >= 2, got {n_buckets}"
            )
        if max_samples < 1:
            raise ConstructionError(
                f"max_samples must be >= 1, got {max_samples}"
            )
        self.bucket_s = float(bucket_s)
        self.n_buckets = n_buckets
        self.max_samples = max_samples
        self._clock = clock
        self._lock = threading.Lock()
        self._buckets = [_Bucket() for _ in range(n_buckets)]

    @property
    def window_s(self) -> float:
        """The total span the window covers, in seconds."""
        return self.bucket_s * self.n_buckets

    def _live_bucket(self, epoch: int) -> _Bucket:
        """The (lazily reset) bucket for ``epoch``; caller holds the lock."""
        bucket = self._buckets[epoch % self.n_buckets]
        if bucket.epoch != epoch:
            bucket.reset(epoch)
        return bucket

    def record(self, latency_s: float, outcome: str = "ok") -> None:
        """Record one finished request with its end-to-end latency."""
        if outcome not in OUTCOMES:
            raise ConstructionError(
                f"unknown outcome {outcome!r}; expected one of {OUTCOMES}"
            )
        epoch = int(self._clock() // self.bucket_s)
        with self._lock:
            bucket = self._live_bucket(epoch)
            bucket.count += 1
            bucket.outcomes[outcome] = bucket.outcomes.get(outcome, 0) + 1
            if len(bucket.samples) < self.max_samples:
                bucket.samples.append(latency_s)
            else:
                bucket.dropped += 1

    def snapshot(self) -> dict:
        """A JSON-ready consistent view over the live buckets.

        ``p50_s`` / ``p99_s`` are nearest-rank over the retained
        samples — exact iff ``dropped`` is 0.  ``qps`` is the window
        count over the span from the oldest live bucket's start to now
        (never less than one ``bucket_s``).  Rates are fractions of
        ``count`` (0.0 for an empty window).
        """
        now = self._clock()
        epoch = int(now // self.bucket_s)
        oldest = epoch - self.n_buckets + 1
        samples: list[float] = []
        outcomes = {name: 0 for name in OUTCOMES}
        count = 0
        dropped = 0
        first = epoch
        with self._lock:
            for bucket in self._buckets:
                if bucket.epoch is None or not (
                    oldest <= bucket.epoch <= epoch
                ):
                    continue
                first = min(first, bucket.epoch)
                count += bucket.count
                dropped += bucket.dropped
                samples.extend(bucket.samples)
                for name, n in bucket.outcomes.items():
                    outcomes[name] = outcomes.get(name, 0) + n
        samples.sort()
        return {
            "window_s": self.window_s,
            "bucket_s": self.bucket_s,
            "count": count,
            "qps": count / max(now - first * self.bucket_s, self.bucket_s),
            "p50_s": _nearest_rank(samples, 50.0),
            "p99_s": _nearest_rank(samples, 99.0),
            "max_s": samples[-1] if samples else 0.0,
            "dropped": dropped,
            "outcomes": outcomes,
            "ok_rate": outcomes["ok"] / count if count else 0.0,
            "error_rate": outcomes["error"] / count if count else 0.0,
            "shed_rate": outcomes["shed"] / count if count else 0.0,
            "timeout_rate": outcomes["timeout"] / count if count else 0.0,
        }

    def clear(self) -> None:
        """Forget all buckets (the window restarts empty)."""
        with self._lock:
            for bucket in self._buckets:
                bucket.epoch = None
