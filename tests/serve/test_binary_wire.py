"""The binary ``query`` frame on a live server, and what a request costs.

Served answers must equal the in-process ``query`` bit for bit — the
binary result frame carries each score's float64 bytes, so the property
compares the ``struct`` bits — hostile binary frames are refused typed
on a connection that keeps serving, a JSON ``query`` is still answered
in JSON, and the server builds a per-request capture only when
something besides itself can emit into it.
"""

import json
import math
import socket
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.index import RankedJoinIndex
from repro.core.tuples import RankTuple, RankTupleSet
from repro.core.workloads import random_preferences
from repro.obs import (
    NULL_RECORDER,
    ContextRecorder,
    FlightRecorder,
    MetricsRecorder,
)
from repro.serve import Client, QueryServer
from repro.serve import server as server_module
from repro.serve.protocol import (
    FrameReader,
    decode_query_result,
    decode_results,
    write_frame,
)
from repro.storage.durable import DurableRankedJoinIndex

K = 12


def _tuples(n=300, seed=3):
    rng = np.random.default_rng(seed)
    return RankTupleSet.from_tuples(zip(range(n), rng.random(n), rng.random(n)))


@pytest.fixture(scope="module")
def index():
    return RankedJoinIndex.build(_tuples(), K)


@pytest.fixture(scope="module")
def server(index):
    with QueryServer(index, port=0) as srv:
        yield srv


def _bits(results):
    return [struct.pack("<qd", r.tid, r.score) for r in results]


#: Ranks that stress a float64 score: exact ties, subnormals, huge.
_RANKS = st.one_of(
    st.sampled_from([0.0, 5e-324, 2.2250738585072014e-308, 0.5, 1.0, 1e300]),
    st.floats(min_value=0.0, max_value=1e300, allow_subnormal=True),
)
_WEIGHTS = st.tuples(
    st.floats(min_value=0.0, max_value=1e3), st.floats(min_value=0.0, max_value=1e3)
).filter(lambda w: w[0] > 0 or w[1] > 0)


class TestBitIdentity:
    # Subnormal rank gaps overflow the build's crossing-angle quotient
    # to inf (arctan(inf) is exactly pi/2); the wire is what is tested.
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        ranks=st.lists(st.tuples(_RANKS, _RANKS), min_size=K, max_size=40),
        weights=st.lists(_WEIGHTS, min_size=1, max_size=6),
        k=st.integers(min_value=1, max_value=K),
    )
    def test_served_answers_equal_in_process_bit_for_bit(
        self, ranks, weights, k
    ):
        index = RankedJoinIndex.build(
            RankTupleSet.from_tuples(
                (tid, s1, s2) for tid, (s1, s2) in enumerate(ranks)
            ),
            K,
        )
        with QueryServer(index, port=0) as srv, Client(*srv.address) as client:
            client._k_bound = K  # no health round trip
            for preference in weights:
                assert _bits(client.query(preference, k)) == _bits(
                    index.query(preference, k)
                )

    def test_merged_delta_on_a_durable_service(self, tmp_path_factory):
        durable = DurableRankedJoinIndex.create(
            tmp_path_factory.mktemp("durable"), _tuples(200), K, fsync=False
        )
        try:
            with QueryServer(durable, port=0) as srv, Client(
                *srv.address
            ) as client:
                for tid, (s1, s2) in enumerate(
                    [(5e-324, 0.99), (0.99, 0.99), (1e300, 0.0), (0.5, 0.5)]
                ):
                    client.insert(RankTuple(1000 + tid, s1, s2))
                client.delete(3)
                assert durable.delta.n_ops == 5  # merged at read time
                for preference in random_preferences(40, seed=9):
                    assert _bits(client.query(preference, K)) == _bits(
                        durable.query(preference, K)
                    )
        finally:
            durable.close()


def _query_body(tag=0x01, rid=7, k=5, p1=2.0, p2=1.0, deadline_ms=0.0,
                trace=b"c-1", n_trace=None):
    n_trace = len(trace) if n_trace is None else n_trace
    return struct.pack(
        "<BqIdddB", tag, rid, k, p1, p2, deadline_ms, n_trace
    ) + trace


def _exchange(sock, reader, body):
    write_frame(sock, body)
    return reader.read_body()


_HOSTILE = [
    _query_body(tag=0x02),
    _query_body(tag=0xFE),
    _query_body() + b"\0",
    _query_body(n_trace=40),
    _query_body(trace=b"c-\xe9"),
    _query_body(p1=math.nan),
    _query_body(p1=math.inf),
    _query_body(p2=-math.inf),
    _query_body(p1=-0.5),
    _query_body(p1=0.0, p2=0.0),
    _query_body(deadline_ms=math.nan),
    _query_body(deadline_ms=math.inf),
    _query_body(deadline_ms=-math.inf),
    _query_body(deadline_ms=-1.0),
]


class TestHostileBinaryFrames:
    def test_every_refusal_is_typed_and_the_reader_lives(self, index, server):
        valid = _query_body(deadline_ms=500.0)
        frames = [valid[:cut] for cut in range(len(valid))] + _HOSTILE
        before = server.stats()
        with socket.create_connection(server.address, timeout=10.0) as sock:
            reader = FrameReader(sock)
            for body in frames:
                response = json.loads(_exchange(sock, reader, body))
                assert response["ok"] is False, body
                assert response["error"]["type"] == "InvalidQueryError"
                # the id is echoed whenever the frame holds one
                assert response["id"] == (7 if len(body) >= 9 else 0)
            # k outside [1, K]: refused with the request's trace echoed
            for k in (0, K + 1):
                response = json.loads(
                    _exchange(sock, reader, _query_body(k=k))
                )
                assert response["error"]["type"] == "InvalidQueryError"
                assert (response["id"], response["trace"]) == (7, "c-1")
            # ... and the same connection still answers, in binary
            rid, trace, results = decode_query_result(
                _exchange(sock, reader, valid)
            )
        assert (rid, trace) == (7, "c-1")
        assert results == index.query((2.0, 1.0), 5)
        after = server.stats()
        assert after["bad_frames"] - before["bad_frames"] == len(frames) + 2
        assert after["requests"] - before["requests"] == 1


class TestJsonQueryStillServed:
    def test_raw_json_query_is_answered_in_json(self, index, server):
        with socket.create_connection(server.address, timeout=10.0) as sock:
            write_frame(
                sock,
                {"op": "query", "id": 41, "preference": [2.0, 1.0], "k": 6,
                 "trace": "c-json"},
            )
            response = json.loads(FrameReader(sock).read_body())
        assert (response["id"], response["ok"], response["trace"]) == (
            41, True, "c-json"
        )
        assert decode_results(response["results"]) == index.query((2.0, 1.0), 6)


class _CountingCapture(server_module.RequestCapture):
    made = 0

    def __init__(self, *args, **kwargs):
        type(self).made += 1
        super().__init__(*args, **kwargs)


class TestCapture:
    @pytest.mark.parametrize(
        "recorder, built",
        [(NULL_RECORDER, 0), (MetricsRecorder(), 20)],
        ids=["default", "enabled-recorder"],
    )
    def test_a_capture_is_built_only_when_something_else_can_emit(
        self, index, monkeypatch, recorder, built
    ):
        monkeypatch.setattr(_CountingCapture, "made", 0)
        monkeypatch.setattr(server_module, "RequestCapture", _CountingCapture)
        flight = FlightRecorder(slow_keep=0)  # no healthy record is kept
        with QueryServer(
            index, port=0, recorder=recorder, flight=flight
        ) as srv, Client(*srv.address) as client:
            client._k_bound = K
            for preference in random_preferences(20, seed=4):
                client.query(preference, 5)
        assert _CountingCapture.made == built
        assert flight.summary()["outcomes"] == {"ok": 20}
        assert srv.window.snapshot()["count"] == 20

    def test_shared_context_recorder_fills_descent_and_cache(self):
        shared = ContextRecorder(NULL_RECORDER)
        index = RankedJoinIndex.build(
            _tuples(), K, cache_size=8, recorder=shared
        )
        with QueryServer(index, port=0, recorder=shared) as srv, Client(
            *srv.address, trace_seed=3
        ) as client:
            client._k_bound = K
            client.query((2.0, 1.0), 5)
            client.query((2.0, 1.0), 5)  # same angle: a cache hit
        first, second = srv.flight.dump()["records"]
        assert first["cache_hit"] is False and first["descent_depth"] >= 1
        assert second["cache_hit"] is True and second["descent_depth"] == 0

    def test_default_server_keeps_detail_for_slowest_and_errors(self, index):
        with QueryServer(index, port=0) as srv, Client(
            *srv.address, trace_seed=5
        ) as client:
            client._k_bound = K
            for preference in random_preferences(30, seed=6):
                client.query(preference, 5)
            with pytest.raises(Exception, match="deadline"):
                client.query(0.5, 5, deadline=1e-9)
            timed_out = client.last_trace_id
        dump = srv.flight.dump()
        assert len(dump["slowest"]) == 16
        for record in dump["slowest"]:
            names = [event["name"] for event in record["detail"]["events"]]
            assert names == ["serve.queue_depth", "serve.request", "serve.latency"]
            latency = record["detail"]["events"][2]
            assert latency["value"] == record["latency_s"]
            assert latency["attrs"] == {"trace": record["trace"]}
        (error,) = dump["errors"]
        assert (error["trace"], error["outcome"]) == (timed_out, "timeout")
        assert [e["name"] for e in error["detail"]["events"]] == [
            "serve.queue_depth",
            "serve.request",
        ]
        assert error["detail"]["events"][1]["attrs"] == {
            "op": "query", "k": 5, "trace": timed_out
        }
