"""FlightRecorder: bounded per-request retention with detail policy.

The recorder must stay strictly bounded under any workload while
keeping EXPLAIN-grade detail for exactly the requests worth keeping:
the slowest ``slow_keep`` and every errored request (up to
``error_keep``).
"""

import threading

import pytest

from repro.obs import FlightRecord, FlightRecorder


def record(trace="c-0001-aa", outcome="ok", latency_s=0.001, **kwargs):
    kwargs.setdefault("op", "query")
    kwargs.setdefault("k", 5)
    return FlightRecord(
        trace=trace, outcome=outcome, latency_s=latency_s, **kwargs
    )


class TestRing:
    def test_keeps_last_capacity_records(self):
        flight = FlightRecorder(capacity=4)
        for i in range(10):
            flight.record(record(trace=f"t-{i:04x}-0"))
        dump = flight.dump()
        assert [r["trace"] for r in dump["records"]] == [
            "t-0006-0",
            "t-0007-0",
            "t-0008-0",
            "t-0009-0",
        ]
        summary = flight.summary()
        assert summary["recorded"] == 10
        assert summary["evicted"] == 6
        assert summary["retained"] == 4

    def test_outcome_tally_survives_eviction(self):
        flight = FlightRecorder(capacity=2)
        for outcome in ("ok", "ok", "error", "shed", "timeout"):
            flight.record(record(outcome=outcome))
        assert flight.summary()["outcomes"] == {
            "ok": 2,
            "error": 1,
            "shed": 1,
            "timeout": 1,
        }

    def test_records_are_json_ready(self):
        import json

        flight = FlightRecorder()
        flight.record(
            record(
                deadline_s=0.5,
                cache_hit=True,
                descent_depth=3,
            )
        )
        json.dumps(flight.dump())  # must not raise


class TestSlowRetention:
    def test_slowest_keep_detail(self):
        flight = FlightRecorder(capacity=64, slow_keep=2)
        for i in range(10):
            flight.record(
                record(trace=f"t-{i:04x}-0", latency_s=i / 1000.0),
                detail=lambda: {"events": [i], "dropped": 0},
            )
        dump = flight.dump()
        slowest = dump["slowest"]
        assert len(slowest) == 2
        # latency-descending, details intact
        assert [r["trace"] for r in slowest] == ["t-0009-0", "t-0008-0"]
        assert all(r["detail"] is not None for r in slowest)

    def test_demoted_record_loses_detail(self):
        flight = FlightRecorder(capacity=64, slow_keep=1)
        flight.record(record(latency_s=0.001), detail=lambda: {"events": [1]})
        flight.record(record(latency_s=0.002), detail=lambda: {"events": [2]})
        # the 1 ms record was demoted out of the slow heap: its detail
        # is stripped so memory cannot grow with traffic
        ring = flight.dump()["records"]
        details = [r.get("detail") for r in ring]
        assert details.count(None) == 1
        assert flight.dump()["slowest"][0]["detail"] == {"events": [2]}


    def test_detail_is_built_only_for_records_that_are_kept(self):
        flight = FlightRecorder(capacity=64, slow_keep=2)
        built = []
        for i, latency_ms in enumerate([5, 9, 1, 2, 7, 3]):
            flight.record(
                record(latency_s=latency_ms / 1000.0),
                detail=lambda i=i: built.append(i) or {"events": [i]},
            )
        # 5 and 9 fill the set, 7 displaces 5; 1, 2, 3 never enter it
        assert built == [0, 1, 4]
        flight.record(record(outcome="shed"), detail=lambda: built.append(6))
        assert built == [0, 1, 4, 6]
        slowest = flight.dump()["slowest"]
        assert [r["detail"] for r in slowest] == [{"events": [1]}, {"events": [4]}]


class TestErrorRetention:
    def test_every_error_keeps_detail(self):
        flight = FlightRecorder(capacity=64, slow_keep=1, error_keep=8)
        for i in range(5):
            flight.record(
                record(
                    trace=f"e-{i:04x}-0",
                    outcome="error",
                    error="InvalidQueryError",
                ),
                detail=lambda: {"events": [i]},
            )
        errors = flight.dump()["errors"]
        assert len(errors) == 5
        assert all(r["detail"] is not None for r in errors)
        assert all(r["error"] == "InvalidQueryError" for r in errors)

    def test_error_deque_eviction_strips_detail(self):
        flight = FlightRecorder(capacity=64, error_keep=2)
        for i in range(4):
            flight.record(
                record(trace=f"e-{i:04x}-0", outcome="error"),
                detail=lambda: {"events": [i]},
            )
        errors = flight.dump()["errors"]
        assert [r["trace"] for r in errors] == ["e-0002-0", "e-0003-0"]
        assert flight.summary()["errors_retained"] == 2


class TestClear:
    def test_clear_resets_everything(self):
        flight = FlightRecorder(capacity=4)
        for outcome in ("ok", "error"):
            flight.record(record(outcome=outcome), detail=lambda: {"events": []})
        flight.clear()
        summary = flight.summary()
        assert summary["recorded"] == 0
        assert summary["retained"] == 0
        dump = flight.dump()
        assert dump["records"] == []
        assert dump["slowest"] == []
        assert dump["errors"] == []
        flight.record(record())
        assert flight.summary()["recorded"] == 1


class TestConcurrency:
    def test_bounded_and_consistent_under_contention(self):
        flight = FlightRecorder(capacity=100, slow_keep=8, error_keep=16)
        n_threads, per_thread = 8, 300

        def worker(slot):
            for i in range(per_thread):
                outcome = "error" if i % 50 == 0 else "ok"
                flight.record(
                    record(
                        trace=f"w{slot}-{i:04x}-0",
                        outcome=outcome,
                        latency_s=(slot * per_thread + i) / 1e6,
                    ),
                    detail=lambda: {"events": [slot, i]},
                )

        threads = [
            threading.Thread(target=worker, args=(slot,))
            for slot in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        summary = flight.summary()
        total = n_threads * per_thread
        assert summary["recorded"] == total
        assert summary["retained"] == 100
        assert summary["evicted"] == total - 100
        assert sum(summary["outcomes"].values()) == total
        dump = flight.dump()
        assert len(dump["records"]) == 100
        assert len(dump["slowest"]) == 8
        assert len(dump["errors"]) == 16


if __name__ == "__main__":
    pytest.main([__file__, "-q"])
