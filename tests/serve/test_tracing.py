"""End-to-end request tracing over a live socket.

The tentpole's acceptance property: every request through the
QueryServer is attributable — the trace id the client generated shows
up in the client-side response, in the server's flight recorder, and
on the recorder spans the request produced — while clients that
predate the trace field stay fully served.
"""

import contextlib
import json
import socket
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.index import RankedJoinIndex
from repro.core.tuples import RankTupleSet
from repro.core.index import QueryResult
from repro.errors import (
    InvalidQueryError,
    QueryTimeoutError,
    ServerConnectionError,
)
from repro.obs import MetricsRecorder
from repro.serve import Client, QueryServer
from repro.serve.protocol import (
    FrameReader,
    decode_query,
    decode_request,
    encode_query_result,
    read_frame,
    write_frame,
)


def _tuples(n=300, seed=2):
    rng = np.random.default_rng(seed)
    return RankTupleSet.from_tuples(
        zip(range(n), rng.random(n), rng.random(n))
    )


@pytest.fixture(scope="module")
def index():
    return RankedJoinIndex.build(_tuples(), 12)


@pytest.fixture(scope="module")
def traced_server(index):
    metrics = MetricsRecorder()
    with QueryServer(
        index, port=0, recorder=metrics, trace_seed=11
    ) as srv:
        srv.test_metrics = metrics
        yield srv


def _raw_roundtrip(address, payload):
    """One frame exchange the way a pre-tracing client would do it."""
    with socket.create_connection(address, timeout=10.0) as sock:
        write_frame(sock, payload)
        return read_frame(sock)


class TestEndToEndAttribution:
    @settings(max_examples=30, deadline=None)
    @given(
        angle=st.floats(min_value=0.01, max_value=1.55),
        k=st.integers(min_value=1, max_value=12),
    )
    def test_every_request_is_attributable(self, traced_server, angle, k):
        """Live-socket property: response echo == client id == flight id."""
        host, port = traced_server.address
        with Client(host, port, trace_seed=101) as client:
            client.query(angle, k)
            trace = client.last_trace_id
        assert trace is not None and trace.startswith("c-")
        # the flight recorder holds the same id
        flight_traces = {
            record["trace"]
            for record in traced_server.flight.dump()["records"]
        }
        assert trace in flight_traces
        # and at least one recorder span is attributed to it
        attributed = [
            span
            for span in traced_server.test_metrics.spans
            if span.attributes.get("trace") == trace
        ]
        assert attributed, f"no span carries {trace}"

    def test_distinct_requests_get_distinct_ids(self, traced_server):
        host, port = traced_server.address
        seen = []
        with Client(host, port, trace_seed=7) as client:
            for _ in range(20):
                client.query(0.5, 3)
                seen.append(client.last_trace_id)
        assert len(set(seen)) == 20

    def test_seeded_client_ids_are_reproducible(self, traced_server):
        host, port = traced_server.address
        runs = []
        for _ in range(2):
            with Client(host, port, trace_seed=99) as client:
                client.query(0.4, 2)
                client.query(0.6, 2)
                runs.append(client.last_trace_id)
        assert runs[0] == runs[1]

    def test_batch_members_all_attributed(self, traced_server):
        host, port = traced_server.address
        with Client(host, port, trace_seed=5) as client:
            client.query_batch([0.3, 0.6, 0.9], 4)
            trace = client.last_trace_id
        (record,) = [
            record
            for record in traced_server.flight.dump()["records"]
            if record["trace"] == trace
        ]
        assert record["op"] == "query_batch"


class TestOneLatencyPerRequest:
    def test_flight_window_and_series_share_one_latency(self, index):
        """``serve.latency`` is the flight record's ``latency_s`` — and is
        emitted while the request's capture can still see it."""
        metrics = MetricsRecorder()
        with QueryServer(index, port=0, recorder=metrics) as srv:
            with Client(*srv.address, trace_seed=21) as client:
                client._k_bound = 12  # skip the health round trip
                client.query(0.5, 3)
                trace = client.last_trace_id
            (record,) = [
                r for r in srv.flight.dump()["records"] if r["trace"] == trace
            ]
            window = srv.window.snapshot()
        assert metrics.samples("serve.latency") == [record["latency_s"]]
        assert window["max_s"] == record["latency_s"]
        observed = [
            event
            for event in record["detail"]["events"]
            if event["name"] == "serve.latency"
        ]
        assert [event["value"] for event in observed] == [record["latency_s"]]
        assert observed[0]["attrs"]["trace"] == trace


class TestOldClientsStayValid:
    def test_no_trace_request_served_with_server_id(self, traced_server):
        host, port = traced_server.address
        before = traced_server.stats()["untraced"]
        response = _raw_roundtrip(
            (host, port),
            {"op": "query", "id": 3, "preference": 0.7, "k": 4},
        )
        assert response["ok"] is True
        assert response["trace"].startswith("s-")
        assert traced_server.stats()["untraced"] == before + 1

    def test_rejected_request_still_attributed(self, traced_server):
        host, port = traced_server.address
        response = _raw_roundtrip(
            (host, port),
            {"op": "query", "id": 4, "preference": 0.7, "k": 10_000},
        )
        assert response["ok"] is False
        assert response["error"]["type"] == "InvalidQueryError"
        trace = response["trace"]
        assert trace.startswith("s-")
        errors = traced_server.flight.dump()["errors"]
        assert any(record["trace"] == trace for record in errors)

    def test_health_over_raw_socket_unchanged(self, traced_server):
        host, port = traced_server.address
        response = _raw_roundtrip((host, port), {"op": "health", "id": 1})
        assert response["ok"] is True
        assert response["health"]["k_bound"] == 12


class TestTraceField:
    def test_decode_accepts_missing_trace(self):
        request = decode_request(
            {"op": "query", "id": 1, "preference": 0.5, "k": 3}
        )
        assert request.trace is None

    def test_decode_accepts_string_trace(self):
        request = decode_request(
            {
                "op": "query",
                "id": 1,
                "preference": 0.5,
                "k": 3,
                "trace": "c-0001-ab",
            }
        )
        assert request.trace == "c-0001-ab"

    @pytest.mark.parametrize("bad", ["", 7, 1.5, True, ["x"], {"id": "x"}])
    def test_decode_rejects_non_string_or_empty_trace(self, bad):
        with pytest.raises(InvalidQueryError):
            decode_request(
                {
                    "op": "query",
                    "id": 1,
                    "preference": 0.5,
                    "k": 3,
                    "trace": bad,
                }
            )

    def test_wire_rejects_bad_trace_with_typed_error(self, traced_server):
        host, port = traced_server.address
        response = _raw_roundtrip(
            (host, port),
            {"op": "query", "id": 5, "preference": 0.5, "k": 3, "trace": ""},
        )
        assert response["ok"] is False
        assert response["error"]["type"] == "InvalidQueryError"


@contextlib.contextmanager
def _one_shot_server(reply):
    """A fake server answering one request frame body with ``reply(body)``."""
    listener = socket.create_server(("127.0.0.1", 0))

    def serve_one():
        conn, _ = listener.accept()
        with conn:
            write_frame(conn, reply(FrameReader(conn).read_body()))

    thread = threading.Thread(target=serve_one, daemon=True)
    thread.start()
    try:
        yield listener.getsockname()
    finally:
        thread.join(timeout=5.0)
        listener.close()


def _one_shot_client(reply):
    @contextlib.contextmanager
    def connected():
        with _one_shot_server(reply) as (host, port):
            with Client(host, port, trace_seed=1) as client:
                client._k_bound = 12  # skip the health round trip
                yield client

    return connected()


class TestEchoVerification:
    def test_client_rejects_mismatched_echo(self, index):
        """A server echoing the wrong id fails the round trip loudly."""

        def lie(body):
            return {"id": json.loads(body)["id"], "ok": True, "batches": [],
                    "trace": "s-9999-wrong"}

        with _one_shot_client(lie) as client:
            with pytest.raises(ServerConnectionError, match="trace"):
                client.query_batch([0.5], 3)

    def test_missing_echo_tolerated_for_old_servers(self, index):
        """A pre-tracing server echoes no trace; the client accepts."""

        def legacy(body):
            return {"id": json.loads(body)["id"], "ok": True,
                    "batches": [[[0, 1.0]]]}

        with _one_shot_client(legacy) as client:
            assert client.query_batch([0.5], 1) == [[QueryResult(0, 1.0)]]

    @pytest.mark.parametrize("field", ["trace", "id"])
    def test_client_rejects_mismatched_binary_echo(self, field):
        def lie(body):
            request = decode_query(body)
            rid, trace = request.rid, request.trace
            if field == "trace":
                trace = "s-9999-wrong"
            else:
                rid += 1
            return encode_query_result(rid, trace, [QueryResult(0, 1.0)])

        with _one_shot_client(lie) as client:
            with pytest.raises(ServerConnectionError, match="trace"):
                client.query(0.5, 1)
            assert client._sock is None  # the stream is not trusted again

    def test_binary_query_accepts_a_json_error(self):
        """Errors stay JSON: one without a trace echo is still raised typed."""

        def refuse(body):
            return {"id": decode_query(body).rid, "ok": False,
                    "error": {"type": "QueryTimeoutError", "message": "late"}}

        with _one_shot_client(refuse) as client:
            with pytest.raises(QueryTimeoutError, match="late"):
                client.query(0.5, 1)

    def test_binary_query_refuses_a_json_answer(self):
        def json_answer(body):
            return {"id": decode_query(body).rid, "ok": True,
                    "results": [[0, 1.0]]}

        with _one_shot_client(json_answer) as client:
            with pytest.raises(ServerConnectionError, match="binary"):
                client.query(0.5, 1)


class TestAdminOps:
    def test_client_stats_shape(self, traced_server):
        host, port = traced_server.address
        with Client(host, port, trace_seed=2) as client:
            client.query(0.5, 3)
            stats = client.stats()
        assert stats["window"]["count"] >= 1
        assert "p99_s" in stats["window"]
        assert stats["queue_bound"] == traced_server.queue_bound
        assert stats["flight"]["recorded"] >= 1
        assert stats["lifetime"]["requests"] >= 1

    def test_client_dump_shape(self, traced_server):
        host, port = traced_server.address
        with Client(host, port, trace_seed=3) as client:
            client.query(0.5, 3)
            trace = client.last_trace_id
            flight = client.dump()
        assert {"records", "slowest", "errors"} <= set(flight)
        assert any(r["trace"] == trace for r in flight["records"])

    def test_admin_ops_echo_trace(self, traced_server):
        host, port = traced_server.address
        with Client(host, port, trace_seed=4) as client:
            client.stats()
            assert client.last_trace_id.startswith("c-")


class TestFlightDumpOnShutdown:
    def test_unclean_shutdown_writes_dump(self, index, tmp_path):
        path = tmp_path / "flight.json"
        server = QueryServer(
            index, port=0, trace_seed=1, flight_path=path
        ).start()
        host, port = server.address
        _raw_roundtrip(
            (host, port),
            {"op": "query", "id": 1, "preference": 0.5, "k": 10_000},
        )
        server.close()
        assert path.exists()
        dump = json.loads(path.read_text())
        assert dump["errors"]
        assert server.stats()["flight_dumps"] == 1

    def test_clean_shutdown_writes_nothing(self, index, tmp_path):
        path = tmp_path / "flight.json"
        server = QueryServer(
            index, port=0, trace_seed=1, flight_path=path
        ).start()
        host, port = server.address
        with Client(host, port, trace_seed=1) as client:
            client.query(0.5, 3)
        server.close()
        assert not path.exists()
        assert server.stats()["flight_dumps"] == 0


if __name__ == "__main__":
    pytest.main([__file__, "-q"])
