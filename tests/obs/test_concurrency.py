"""Recorder thread safety: concurrent use must not corrupt totals.

Recorders are shared by server threads and background compactions, and
the JSONL log recorder promises whole-line writes under concurrency —
these tests drive them with enough contention to surface lost updates
or torn state, then check the aggregates against the single-threaded
ground truth.
"""

import io
import threading

from repro.obs import (
    JsonlRecorder,
    MetricsRecorder,
    TraceBuffer,
    read_jsonl,
)

N_THREADS = 8
N_EVENTS = 500


def hammer(recorder):
    """One thread's worth of mixed recorder traffic."""
    for i in range(N_EVENTS):
        recorder.count("rji.queries")
        recorder.observe("rji.tuples_evaluated", float(i % 10))
        with recorder.span("build.load"):
            pass


def run_threads(recorder):
    threads = [
        threading.Thread(target=hammer, args=(recorder,))
        for _ in range(N_THREADS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


class TestMetricsRecorderConcurrency:
    def test_totals_match_single_threaded(self):
        concurrent = MetricsRecorder()
        run_threads(concurrent)
        sequential = MetricsRecorder()
        for _ in range(N_THREADS):
            hammer(sequential)

        assert concurrent.counter("rji.queries") == sequential.counter(
            "rji.queries"
        )
        left = concurrent.series("rji.tuples_evaluated")
        right = sequential.series("rji.tuples_evaluated")
        assert (left.count, left.total, left.minimum, left.maximum) == (
            right.count,
            right.total,
            right.minimum,
            right.maximum,
        )
        assert len(concurrent.spans) == N_THREADS * N_EVENTS

    def test_dropped_accounting_under_contention(self):
        recorder = MetricsRecorder(max_samples=100)
        run_threads(recorder)
        series = recorder.series("rji.tuples_evaluated")
        assert series.count == N_THREADS * N_EVENTS
        assert series.dropped == series.count - 100


class TestJsonlRecorderConcurrency:
    def test_lines_never_tear(self):
        sink = io.StringIO()
        recorder = JsonlRecorder(sink)
        run_threads(recorder)
        events = list(read_jsonl(io.StringIO(sink.getvalue())))
        assert len(events) == N_THREADS * N_EVENTS * 3
        assert recorder.lines_written == len(events)


class TestTraceBufferAtCapacity:
    """The bounded span buffer under contention: drop, never corrupt."""

    def test_drop_policy_is_deterministic_under_contention(self):
        """8 threads past capacity: stored + dropped == produced, exactly.

        The policy is keep-first: once ``capacity`` spans are stored,
        every further span is counted in ``dropped`` — no resize, no
        replacement, no lost updates.
        """
        capacity = 100
        buffer = TraceBuffer(capacity=capacity)

        def produce():
            for _ in range(N_EVENTS):
                with buffer.span("build.load"):
                    pass

        threads = [
            threading.Thread(target=produce) for _ in range(N_THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        spans = buffer.spans
        assert len(spans) == capacity
        assert buffer.dropped == N_THREADS * N_EVENTS - capacity
        # Stored spans are real completed records, not torn state.
        assert all(s.name == "build.load" and s.elapsed >= 0 for s in spans)

    def test_clear_racing_span_keeps_invariants(self):
        """``clear()`` hammered against ``span()`` never corrupts state.

        After the dust settles the buffer still satisfies its contract:
        at most ``capacity`` spans stored, non-negative drop count, and
        a final clear leaves it empty and reusable.
        """
        capacity = 32
        buffer = TraceBuffer(capacity=capacity)
        stop = threading.Event()

        def produce():
            while not stop.is_set():
                with buffer.span("build.load"):
                    pass

        def wipe():
            while not stop.is_set():
                buffer.clear()
                assert len(buffer.spans) <= capacity
                assert buffer.dropped >= 0

        producers = [
            threading.Thread(target=produce) for _ in range(N_THREADS - 2)
        ]
        wipers = [threading.Thread(target=wipe) for _ in range(2)]
        for thread in producers + wipers:
            thread.start()
        stop_timer = threading.Timer(0.5, stop.set)
        stop_timer.start()
        for thread in producers + wipers:
            thread.join(timeout=30.0)
        stop_timer.cancel()
        assert not any(t.is_alive() for t in producers + wipers)

        buffer.clear()
        assert buffer.spans == [] and buffer.dropped == 0
        with buffer.span("build.load"):
            pass
        assert len(buffer.spans) == 1
