"""Trace-context propagation: ids, scopes, and the ContextRecorder.

The tracing tentpole's core invariant: any recorder event emitted
while a ``trace_scope`` is active carries the active trace id in
its attrs, with zero plumbing through function signatures — and zero
overhead when nothing is observed.
"""

import threading

import pytest

from repro.obs import (
    NULL_RECORDER,
    ContextRecorder,
    MetricsRecorder,
    RequestCapture,
    TraceIdGenerator,
    current_trace_id,
    trace_scope,
)
from repro.obs.log import JsonlRecorder, read_jsonl


class TestTraceIdGenerator:
    def test_format(self):
        gen = TraceIdGenerator("c", seed=7)
        first = gen.next()
        prefix, seq, token = first.split("-")
        assert prefix == "c"
        assert len(seq) == 4 and int(seq, 16) == 1
        assert len(token) == 16
        int(token, 16)  # must be hex

    def test_seeded_stream_is_deterministic(self):
        a = TraceIdGenerator("c", seed=42)
        b = TraceIdGenerator("c", seed=42)
        assert [a.next() for _ in range(10)] == [b.next() for _ in range(10)]

    def test_different_seeds_diverge(self):
        a = TraceIdGenerator("c", seed=1)
        b = TraceIdGenerator("c", seed=2)
        assert a.next() != b.next()

    def test_unseeded_generators_diverge(self):
        assert TraceIdGenerator("c").next() != TraceIdGenerator("c").next()

    def test_ids_unique_under_threads(self):
        gen = TraceIdGenerator("s", seed=3)
        seen = []
        lock = threading.Lock()

        def pull():
            local = [gen.next() for _ in range(200)]
            with lock:
                seen.extend(local)

        threads = [threading.Thread(target=pull) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(set(seen)) == len(seen) == 1600


class TestTraceScope:
    def test_no_scope_means_no_id(self):
        assert current_trace_id() is None

    def test_scope_sets_and_resets(self):
        with trace_scope("c-0001-aa"):
            assert current_trace_id() == "c-0001-aa"
        assert current_trace_id() is None

    def test_nested_scopes_restore_outer(self):
        with trace_scope("outer"):
            with trace_scope("inner"):
                assert current_trace_id() == "inner"
            assert current_trace_id() == "outer"

    def test_none_ids_filtered(self):
        with trace_scope("outer"):
            with trace_scope(None):
                assert current_trace_id() is None
            with trace_scope(""):
                assert current_trace_id() is None

    def test_scope_is_per_thread(self):
        results = {}

        def worker(name):
            with trace_scope(name):
                results[name] = current_trace_id()

        with trace_scope("main-id"):
            t = threading.Thread(target=worker, args=("thread-id",))
            t.start()
            t.join()
            assert current_trace_id() == "main-id"
        assert results["thread-id"] == "thread-id"


class TestContextRecorder:
    def test_attrs_gain_trace_inside_scope(self):
        inner = MetricsRecorder()
        recorder = ContextRecorder(inner)
        with trace_scope("c-0001-ff"):
            with recorder.span("serve.request", {"k": 5}):
                pass
        span = inner.spans[-1]
        assert span.attributes["trace"] == "c-0001-ff"
        assert span.attributes["k"] == 5

    def test_jsonl_events_carry_traces_attr(self):
        """One ``trace`` per event — counts included — never a list."""
        import io

        sink = io.StringIO()
        log = JsonlRecorder(sink)
        recorder = ContextRecorder(log)
        with trace_scope("a"):
            recorder.count("serve.requests")
        with trace_scope("solo"):
            recorder.observe("serve.queue_depth", 2.0)
        log.flush()
        sink.seek(0)
        events = list(read_jsonl(sink))
        assert [event["attrs"] for event in events] == [
            {"trace": "a"},
            {"trace": "solo"},
        ]

    def test_no_scope_leaves_attrs_untouched(self):
        inner = MetricsRecorder()
        recorder = ContextRecorder(inner)
        with recorder.span("serve.request", {"k": 1}):
            pass
        assert "trace" not in inner.spans[-1].attributes

    def test_disabled_inner_and_no_capture_stays_disabled(self):
        recorder = ContextRecorder(NULL_RECORDER)
        assert not recorder.enabled
        with trace_scope("x"):
            # a scope alone adds no observer; still disabled
            assert not recorder.enabled

    def test_capture_enables_even_over_null_recorder(self):
        recorder = ContextRecorder(NULL_RECORDER)
        capture = RequestCapture()
        with trace_scope("x", capture=capture):
            assert recorder.enabled
            recorder.count("rji.queries")
            recorder.observe("rji.descent_steps", 4.0)
        assert capture.total("rji.queries") == 1
        assert capture.last_value("rji.descent_steps") == 4.0

    def test_double_wrap_is_avoided_by_identity_check(self):
        inner = MetricsRecorder()
        wrapped = ContextRecorder(inner)
        assert isinstance(wrapped, ContextRecorder)
        # the server-side convention: wrap only if not already wrapped
        rewrapped = (
            wrapped
            if isinstance(wrapped, ContextRecorder)
            else ContextRecorder(wrapped)
        )
        assert rewrapped is wrapped


class TestRequestCapture:
    def test_detail_bounded_and_counts_drops(self):
        capture = RequestCapture(max_events=4)
        recorder = ContextRecorder(NULL_RECORDER)
        with trace_scope("t", capture=capture):
            for _ in range(10):
                recorder.count("rji.queries")
        detail = capture.detail()
        assert len(detail["events"]) == 4
        assert detail["dropped"] == 6

    def test_last_value_and_total(self):
        capture = RequestCapture()
        recorder = ContextRecorder(NULL_RECORDER)
        with trace_scope("t", capture=capture):
            recorder.observe("rji.descent_steps", 3.0)
            recorder.observe("rji.descent_steps", 7.0)
            recorder.count("rji.cache.hits")
            recorder.count("rji.cache.hits")
        assert capture.last_value("rji.descent_steps") == 7.0
        assert capture.total("rji.cache.hits") == 2
        assert capture.last_value("absent") is None
        assert capture.total("absent") == 0


class TestZeroOverhead:
    def test_null_path_emits_nothing(self):
        """Tracing machinery must not wake a NullRecorder."""
        recorder = ContextRecorder(NULL_RECORDER)
        with trace_scope("t"):
            recorder.count("rji.queries")
            with recorder.span("serve.request"):
                pass
        # nothing observable anywhere, and no exception: that's the test
        assert not recorder.enabled

    def test_core_counters_identical_with_and_without_scope(self):
        """A scope changes attrs, never values — counters stay 1.000x."""
        from repro.core.index import RankedJoinIndex
        from repro.datagen.synthetic import uniform_pairs

        tuples = uniform_pairs(300, seed=5)
        plain = MetricsRecorder()
        index = RankedJoinIndex.build(tuples, 10, recorder=plain)
        for _ in range(20):
            index.query((0.6, 0.4), 5)
        baseline = plain.snapshot()["counters"]

        traced = MetricsRecorder()
        wrapped = ContextRecorder(traced)
        index2 = RankedJoinIndex.build(tuples, 10, recorder=wrapped)
        with trace_scope("c-0001-abc"):
            for _ in range(20):
                index2.query((0.6, 0.4), 5)
        assert traced.snapshot()["counters"] == baseline


class TestExplainTraceId:
    def test_explain_stamps_active_trace(self):
        from repro.core.index import RankedJoinIndex
        from repro.datagen.synthetic import uniform_pairs
        from repro.obs import render_explain

        index = RankedJoinIndex.build(uniform_pairs(200, seed=2), 8)
        with trace_scope("c-00aa-bb"):
            explain = index.explain((0.5, 0.5), 3)
        assert explain.trace_id == "c-00aa-bb"
        assert explain.to_dict()["trace"] == "c-00aa-bb"
        assert "c-00aa-bb" in render_explain(explain)

    def test_explain_without_scope_has_no_trace(self):
        from repro.core.index import RankedJoinIndex
        from repro.datagen.synthetic import uniform_pairs

        index = RankedJoinIndex.build(uniform_pairs(200, seed=2), 8)
        explain = index.explain((0.5, 0.5), 3)
        assert explain.trace_id is None
        assert explain.to_dict()["trace"] is None


if __name__ == "__main__":
    pytest.main([__file__, "-q"])
