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
``shed`` / ``timeout``), the exact maximum latency, and a log-bucketed
latency histogram: 64 slots per octave of latency, so every slot spans
a factor of ``2 ** (1 / 64)`` and its geometric midpoint is within
:data:`REL_ERROR` (0.54 %) of every latency in it.  Nothing is dropped
at any rate — a bucket is a bounded map from slot to count, not a
sample list — so ``p50_s`` / ``p99_s`` are nearest-rank percentiles of
*every* request in the window, each within ``rel_error`` (stated in the
snapshot) of the exact one for latencies between 2**-30 s and 2**12 s,
and never above the exact ``max_s``.  ``dropped`` stays in the snapshot,
always 0.

``qps`` divides by the time the live buckets actually cover — from the
start of the oldest one to now, at least one bucket and at most the
window — so a server two seconds into a run reports its rate, not a
fifth of it.

The clock is injectable (``clock=``) which makes bucket rotation and
expiry deterministic under test.  One lock guards all state (RJI011);
snapshots are consistent cuts.
"""

from __future__ import annotations

import math
import threading
import time
from typing import Callable

from ..errors import ConstructionError

__all__ = ["OUTCOMES", "REL_ERROR", "RollingWindow"]

#: The outcome classes one request resolves to.
OUTCOMES = ("ok", "error", "shed", "timeout")

#: Histogram slots per octave of latency.
_PER_OCTAVE = 64
#: Latencies in ``[2**_LOW_OCTAVE, 2**_HIGH_OCTAVE)`` seconds (~1 ns to
#: ~68 min) get their own slots; the rest share the two edge slots.
_LOW_OCTAVE, _HIGH_OCTAVE = -30, 12
_LAST_SLOT = (_HIGH_OCTAVE - _LOW_OCTAVE) * _PER_OCTAVE - 1
_SMALLEST = 2.0**_LOW_OCTAVE

#: Worst relative error of a reported percentile: a slot's geometric
#: midpoint against any latency in the slot.
REL_ERROR = 2.0 ** (1.0 / (2 * _PER_OCTAVE)) - 1.0


def _midpoint(slot: int) -> float:
    return 2.0 ** (_LOW_OCTAVE + (slot + 0.5) / _PER_OCTAVE)


class _Bucket:
    """One time-bucket slot of the ring; reset when its period is reused."""

    __slots__ = ("epoch", "count", "outcomes", "slots", "max_s")

    def __init__(self) -> None:
        self.epoch: int | None = None
        self.count = 0
        self.outcomes: dict[str, int] = {}
        #: Histogram slot -> requests whose latency fell in it.
        self.slots: dict[int, int] = {}
        self.max_s = 0.0

    def reset(self, epoch: int) -> None:
        self.epoch = epoch
        self.count = 0
        self.outcomes = {}
        self.slots = {}
        self.max_s = 0.0


def _nearest_rank(slots: dict[int, int], n: int, q: float) -> float:
    """Nearest-rank percentile of a histogram of ``n`` (0.0 when empty)."""
    rank = max(0, min(n - 1, round(q / 100.0 * n) - 1))
    seen = 0
    for slot in sorted(slots):
        seen += slots[slot]
        if seen > rank:
            return _midpoint(slot)
    return 0.0


class RollingWindow:
    """A lock-safe ring of time buckets over the last N seconds.

    ``bucket_s`` is the bucket width, ``n_buckets`` the ring length;
    the window spans ``bucket_s * n_buckets`` seconds.  ``record`` is
    O(1); ``snapshot`` merges the live buckets' histograms.
    """

    def __init__(
        self,
        *,
        bucket_s: float = 1.0,
        n_buckets: int = 10,
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
        self.bucket_s = float(bucket_s)
        self.n_buckets = n_buckets
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
        slot = 0  # also for 0.0, negatives and NaN
        if latency_s > _SMALLEST:
            position = (math.log2(latency_s) - _LOW_OCTAVE) * _PER_OCTAVE
            slot = int(min(position, _LAST_SLOT))
        with self._lock:
            bucket = self._live_bucket(epoch)
            bucket.count += 1
            bucket.outcomes[outcome] = bucket.outcomes.get(outcome, 0) + 1
            bucket.slots[slot] = bucket.slots.get(slot, 0) + 1
            if latency_s > bucket.max_s:
                bucket.max_s = latency_s

    def snapshot(self) -> dict:
        """A JSON-ready consistent view over the live buckets.

        ``p50_s`` / ``p99_s`` are nearest-rank over every request in
        the window, each within ``rel_error`` of the exact value and
        never above the exact ``max_s``; ``dropped`` is always 0.
        ``qps`` is the window count over the span from the oldest live
        bucket's start to now (never less than one ``bucket_s``).
        Rates are fractions of ``count`` (0.0 for an empty window).
        """
        now = self._clock()
        epoch = int(now // self.bucket_s)
        oldest = epoch - self.n_buckets + 1
        slots: dict[int, int] = {}
        outcomes = {name: 0 for name in OUTCOMES}
        count = 0
        max_s = 0.0
        first = epoch
        with self._lock:
            for bucket in self._buckets:
                if bucket.epoch is None or not (
                    oldest <= bucket.epoch <= epoch
                ):
                    continue
                first = min(first, bucket.epoch)
                count += bucket.count
                max_s = max(max_s, bucket.max_s)
                for slot, n in bucket.slots.items():
                    slots[slot] = slots.get(slot, 0) + n
                for name, n in bucket.outcomes.items():
                    outcomes[name] = outcomes.get(name, 0) + n
        return {
            "window_s": self.window_s,
            "bucket_s": self.bucket_s,
            "count": count,
            "qps": count / max(now - first * self.bucket_s, self.bucket_s),
            "p50_s": min(_nearest_rank(slots, count, 50.0), max_s),
            "p99_s": min(_nearest_rank(slots, count, 99.0), max_s),
            "max_s": max_s,
            "rel_error": REL_ERROR,
            "dropped": 0,
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
