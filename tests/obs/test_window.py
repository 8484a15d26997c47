"""RollingWindow: bucketed time ring behind the ``stats`` wire op.

Driven with an injectable fake clock, so bucket rotation, expiry, and
lazy reuse are tested deterministically — no sleeps.
"""

import math
import threading

import numpy as np
import pytest

from repro.errors import ConstructionError
from repro.obs import RollingWindow


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now


def make(clock, **kwargs):
    kwargs.setdefault("bucket_s", 1.0)
    kwargs.setdefault("n_buckets", 10)
    return RollingWindow(clock=clock, **kwargs)


class TestConstruction:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"bucket_s": 0.0},
            {"bucket_s": -1.0},
            {"n_buckets": 0},
            {"n_buckets": 1},
        ],
    )
    def test_bad_params_raise_typed(self, kwargs):
        with pytest.raises(ConstructionError):
            make(FakeClock(), **kwargs)

    def test_window_span(self):
        window = make(FakeClock(), bucket_s=2.0, n_buckets=5)
        assert window.window_s == 10.0


class TestRecording:
    def test_empty_snapshot(self):
        snapshot = make(FakeClock()).snapshot()
        assert snapshot["count"] == 0
        assert snapshot["qps"] == 0.0
        assert snapshot["p50_s"] == 0.0
        assert snapshot["outcomes"] == {
            "ok": 0,
            "error": 0,
            "shed": 0,
            "timeout": 0,
        }

    def test_counts_and_outcomes(self):
        clock = FakeClock()
        window = make(clock)
        for _ in range(6):
            window.record(0.001)
        window.record(0.002, "error")
        window.record(0.003, "shed")
        window.record(0.004, "timeout")
        snapshot = window.snapshot()
        assert snapshot["count"] == 9
        assert snapshot["outcomes"] == {
            "ok": 6,
            "error": 1,
            "shed": 1,
            "timeout": 1,
        }
        assert snapshot["ok_rate"] == pytest.approx(6 / 9)
        assert snapshot["shed_rate"] == pytest.approx(1 / 9)

    def test_unknown_outcome_rejected(self):
        with pytest.raises(ConstructionError):
            make(FakeClock()).record(0.001, "exploded")

    def test_qps_divides_by_the_span_covered(self):
        clock = FakeClock(100.25)
        window = make(clock)  # 10 s window, 1 s buckets
        for _ in range(50):
            window.record(0.001)
        # Never less than one bucket: 0 s of coverage is not a rate.
        assert window.snapshot()["qps"] == pytest.approx(50.0)
        # Two seconds in, the rate is over two seconds, not over ten.
        clock.now = 101.5
        for _ in range(50):
            window.record(0.001)
        clock.now = 102.0
        assert window.snapshot()["qps"] == pytest.approx(100 / 2.0)
        # A full window divides by (just under) the whole span ...
        for second in range(103, 110):
            clock.now = float(second)
            window.record(0.001)
        clock.now = 109.75
        snapshot = window.snapshot()
        assert snapshot["count"] == 107
        assert snapshot["qps"] == pytest.approx(107 / 9.75)
        # ... and the span restarts at the oldest bucket still live.
        clock.now = 111.5  # epochs 100 and 101 have aged out
        snapshot = window.snapshot()
        assert snapshot["count"] == 7
        assert snapshot["qps"] == pytest.approx(7 / (111.5 - 103.0))

    def test_percentiles_nearest_rank(self):
        clock = FakeClock()
        window = make(clock)
        for ms in range(1, 101):  # 1..100 ms
            window.record(ms / 1000.0)
        snapshot = window.snapshot()
        # nearest-rank over n=100: p50 -> 50th sample, p99 -> 99th, each
        # within the histogram's stated error; the maximum is exact.
        error = snapshot["rel_error"]
        assert snapshot["p50_s"] == pytest.approx(0.050, rel=error)
        assert snapshot["p99_s"] == pytest.approx(0.099, rel=error)
        assert snapshot["max_s"] == 0.100


class TestRotation:
    def test_old_buckets_expire(self):
        clock = FakeClock()
        window = make(clock)
        window.record(0.001)
        clock.now = 5.0
        window.record(0.002)
        assert window.snapshot()["count"] == 2
        clock.now = 10.5  # first bucket (epoch 0) is now out of range
        assert window.snapshot()["count"] == 1
        clock.now = 15.5  # both gone
        assert window.snapshot()["count"] == 0

    def test_bucket_slot_reuse_resets_stale_state(self):
        clock = FakeClock()
        window = make(clock)
        window.record(0.001, "error")
        # 10 buckets of 1 s: epoch 10 reuses epoch 0's slot
        clock.now = 10.2
        window.record(0.002)
        snapshot = window.snapshot()
        assert snapshot["count"] == 1
        assert snapshot["outcomes"]["error"] == 0

    def test_clear(self):
        clock = FakeClock()
        window = make(clock)
        for _ in range(5):
            window.record(0.001)
        window.clear()
        assert window.snapshot()["count"] == 0
        window.record(0.002)
        assert window.snapshot()["count"] == 1


class TestSampleBound:
    def test_nothing_is_dropped_past_any_rate(self):
        clock = FakeClock()
        window = make(clock)
        for i in range(25_000):
            window.record(1e-4 * (1 + i % 7))
        snapshot = window.snapshot()
        assert snapshot["count"] == 25_000
        assert snapshot["dropped"] == 0

    def test_dropped_zero_under_bound(self):
        clock = FakeClock()
        window = make(clock)
        for _ in range(50):
            window.record(0.001)
        assert window.snapshot()["dropped"] == 0

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_percentiles_within_stated_error_of_exact(self, seed):
        # 10^5 samples over four decades, spread across the ring's
        # buckets: p50 / p99 against exact nearest-rank.
        rng = np.random.default_rng(seed)
        clock = FakeClock(1000.0)
        window = make(clock)
        samples = (10.0 ** rng.uniform(-6, -2, 100_000)).tolist()
        for i, latency in enumerate(samples):
            clock.now = 1000.0 + 9.99 * i / len(samples)
            window.record(latency)
        snapshot = window.snapshot()
        samples.sort()
        assert snapshot["count"] == len(samples)
        for q, key in ((50.0, "p50_s"), (99.0, "p99_s")):
            rank = round(q / 100.0 * len(samples)) - 1
            exact = samples[rank]
            assert abs(snapshot[key] - exact) <= snapshot["rel_error"] * exact
        assert snapshot["max_s"] == samples[-1]

    def test_a_percentile_never_exceeds_the_exact_maximum(self):
        window = make(FakeClock())
        for _ in range(10):
            window.record(3e-5)
        snapshot = window.snapshot()
        assert snapshot["p50_s"] <= snapshot["max_s"] == 3e-5
        assert snapshot["p50_s"] == pytest.approx(3e-5, rel=snapshot["rel_error"])

    @pytest.mark.parametrize("latency", [0.0, -1.0, 1e-12, 1e9, math.inf])
    def test_out_of_range_latencies_are_counted(self, latency):
        window = make(FakeClock())
        window.record(latency)
        assert window.snapshot()["count"] == 1


class TestThreadSafety:
    def test_concurrent_records_never_lost(self):
        clock = FakeClock()
        window = make(clock)
        n_threads, per_thread = 8, 500

        def worker():
            for _ in range(per_thread):
                window.record(0.001)

        threads = [
            threading.Thread(target=worker) for _ in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert window.snapshot()["count"] == n_threads * per_thread


if __name__ == "__main__":
    pytest.main([__file__, "-q"])
