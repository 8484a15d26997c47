"""Unit tests for the wire protocol: framing, validation, error transport."""

import json
import math
import socket
import struct
import threading

import pytest

from repro.errors import (
    InvalidQueryError,
    QueryTimeoutError,
    ReproError,
    ServerConnectionError,
    ServerError,
    ServerOverloadedError,
)
from repro.core.index import QueryResult
from repro.core.scoring import Preference
from repro.serve import Client
from repro.serve.protocol import (
    MAX_FRAME_BYTES,
    FrameReader,
    Request,
    decode_error,
    decode_query,
    decode_query_result,
    decode_request,
    decode_results,
    encode_error,
    encode_query,
    encode_query_result,
    encode_results,
    is_json,
    read_frame,
    request_id,
    write_frame,
)


@pytest.fixture()
def pipe():
    """A connected local socket pair."""
    a, b = socket.socketpair()
    a.settimeout(5.0)
    b.settimeout(5.0)
    yield a, b
    a.close()
    b.close()


class TestFraming:
    def test_roundtrip(self, pipe):
        a, b = pipe
        payload = {"op": "query", "id": 3, "k": 5, "preference": [2.0, 1.0]}
        write_frame(a, payload)
        assert read_frame(b) == payload

    def test_multiple_frames_stay_in_sync(self, pipe):
        a, b = pipe
        for i in range(5):
            write_frame(a, {"id": i})
        for i in range(5):
            assert read_frame(b) == {"id": i}

    def test_clean_eof_returns_none(self, pipe):
        a, b = pipe
        a.close()
        assert read_frame(b) is None

    def test_mid_frame_eof_is_connection_error(self, pipe):
        a, b = pipe
        a.sendall((100).to_bytes(4, "big") + b"short")
        a.close()
        with pytest.raises(ServerConnectionError):
            read_frame(b)

    def test_bad_json_is_invalid_query(self, pipe):
        a, b = pipe
        body = b"not json at all"
        a.sendall(len(body).to_bytes(4, "big") + body)
        with pytest.raises(InvalidQueryError):
            read_frame(b)

    def test_non_object_body_is_invalid_query(self, pipe):
        a, b = pipe
        body = json.dumps([1, 2]).encode()
        a.sendall(len(body).to_bytes(4, "big") + body)
        with pytest.raises(InvalidQueryError):
            read_frame(b)

    def test_oversized_declared_length_is_invalid_query(self, pipe):
        a, b = pipe
        a.sendall((MAX_FRAME_BYTES + 1).to_bytes(4, "big"))
        with pytest.raises(InvalidQueryError):
            read_frame(b)

    def test_oversized_outgoing_frame_is_server_error(self, pipe):
        a, _ = pipe
        with pytest.raises(ServerError):
            write_frame(a, {"blob": "x" * (MAX_FRAME_BYTES + 1)})

    def test_write_to_closed_socket_is_connection_error(self, pipe):
        a, b = pipe
        a.close()
        with pytest.raises(ServerConnectionError):
            write_frame(a, {"id": 1})


def _frame(payload) -> bytes:
    body = json.dumps(payload).encode()
    return len(body).to_bytes(4, "big") + body


class _Segments:
    """A socket stand-in: each ``recv`` yields (at most) the next segment,
    then EOF — so where a frame is split is chosen, not left to TCP."""

    def __init__(self, *segments: bytes):
        self._segments = [s for s in segments if s]
        self.recv_calls = 0

    def recv(self, n: int) -> bytes:
        self.recv_calls += 1
        if not self._segments:
            return b""
        head, rest = self._segments[0][:n], self._segments[0][n:]
        self._segments[0:1] = [rest] if rest else []
        return head


def _unbuffered(sock):
    return lambda: read_frame(sock)


def _buffered(sock):
    return FrameReader(sock).read


@pytest.mark.parametrize("entry", [_unbuffered, _buffered])
class TestFramingMatrix:
    """``read_frame(sock)`` and ``FrameReader(sock).read()``: one taxonomy."""

    ONE, TWO = {"id": 1, "op": "health"}, {"id": 2, "k": [1.5, "x"]}

    def test_one_byte_at_a_time(self, entry):
        wire = _frame(self.ONE) + _frame(self.TWO)
        read = entry(_Segments(*(wire[i : i + 1] for i in range(len(wire)))))
        assert [read(), read(), read()] == [self.ONE, self.TWO, None]

    def test_two_frames_in_one_segment(self, entry):
        sock = _Segments(_frame(self.ONE) + _frame(self.TWO))
        read = entry(sock)
        assert [read(), read()] == [self.ONE, self.TWO]
        # header + body (and the pipelined frame) in one recv when
        # buffered; header and body each their own recv when not.
        assert sock.recv_calls == (1 if entry is _buffered else 4)
        assert read() is None

    @pytest.mark.parametrize("cut", [2, 9])  # inside the header / the body
    def test_split_frame_is_reassembled(self, entry, cut):
        wire = _frame(self.ONE) + _frame(self.TWO)
        read = entry(_Segments(wire[:cut], wire[cut:]))
        assert [read(), read(), read()] == [self.ONE, self.TWO, None]

    def test_frame_larger_than_one_recv(self, entry):
        big = {"id": 3, "blob": "x" * 200_000}
        read = entry(_Segments(_frame(big) + _frame(self.ONE)))
        assert [read(), read(), read()] == [big, self.ONE, None]

    def test_clean_eof_at_a_boundary_is_none(self, entry):
        assert entry(_Segments())() is None

    @pytest.mark.parametrize("cut", [2, 9])
    def test_eof_mid_frame_is_connection_error(self, entry, cut):
        read = entry(_Segments(_frame(self.ONE), _frame(self.TWO)[:cut]))
        assert read() == self.ONE
        with pytest.raises(ServerConnectionError):
            read()

    def test_receive_failure_is_connection_error(self, entry, pipe):
        a, b = pipe
        a.sendall(_frame(self.ONE)[:6])
        b.settimeout(0.05)  # the rest never arrives
        with pytest.raises(ServerConnectionError):
            entry(b)()

    def test_oversized_length_prefix_is_invalid_query(self, entry):
        read = entry(_Segments((MAX_FRAME_BYTES + 1).to_bytes(4, "big")))
        with pytest.raises(InvalidQueryError):
            read()

    @pytest.mark.parametrize(
        "body", [b"[1, 2]", b"not json at all", b'{"a": "\xff"}']
    )
    def test_bad_body_is_invalid_query(self, entry, body):
        read = entry(_Segments(len(body).to_bytes(4, "big") + body))
        with pytest.raises(InvalidQueryError):
            read()


def _half_then_whole(ask, reply):
    """Half a response, then silence: the client must not keep the bytes.

    ``reply(body, tid)`` answers one request frame body.  The second
    connection answers properly; had the half-read buffer survived, that
    answer would be parsed as the tail of the first.
    """
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(2)
    release = threading.Event()

    def serve():
        first, _ = listener.accept()
        whole = reply(FrameReader(first).read_body(), 7)
        first.sendall(_raw_frame(whole)[: 4 + len(whole) // 2])
        second, _ = listener.accept()
        write_frame(second, reply(FrameReader(second).read_body(), 8))
        release.wait(timeout=10.0)
        first.close()
        second.close()

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        with Client(*listener.getsockname(), request_timeout_s=0.2) as client:
            client._k_bound = 12  # skip the health round trip
            with pytest.raises(ServerConnectionError):
                ask(client)
            assert client._sock is None and client._reader is None
            return ask(client)
    finally:
        release.set()
        thread.join(timeout=5.0)
        listener.close()


def _raw_frame(body: bytes) -> bytes:
    return len(body).to_bytes(4, "big") + body


def test_timed_out_response_drops_the_connection_and_its_buffer():
    def reply(body, tid):
        request = json.loads(body)
        return json.dumps(
            {"id": request["id"], "ok": True, "batches": [[[tid, 0.25]]]}
        ).encode()

    answer = _half_then_whole(lambda client: client.query_batch([0.5], 1), reply)
    assert answer == [[QueryResult(8, 0.25)]]


def test_timed_out_binary_response_drops_the_connection_and_its_buffer():
    def reply(body, tid):
        request = decode_query(body)
        return encode_query_result(
            request.rid, request.trace, [QueryResult(tid, 0.25)]
        )

    answer = _half_then_whole(lambda client: client.query(0.5, 1), reply)
    assert answer == [QueryResult(8, 0.25)]


class TestDecodeRequest:
    def test_query(self):
        request = decode_request(
            {"op": "query", "id": 9, "k": 4, "preference": [3.0, 1.0]}
        )
        assert isinstance(request, Request)
        assert request.op == "query" and request.rid == 9 and request.k == 4
        assert request.preference.p1 == 3.0

    def test_angle_preference(self):
        request = decode_request(
            {"op": "query", "id": 1, "k": 2, "preference": 0.5}
        )
        assert abs(request.preference.angle - 0.5) < 1e-12

    def test_query_batch(self):
        request = decode_request(
            {
                "op": "query_batch",
                "id": 2,
                "k": 3,
                "preferences": [[1.0, 2.0], 0.3],
            }
        )
        assert len(request.preferences) == 2

    def test_deadline_ms(self):
        request = decode_request(
            {"op": "query", "id": 1, "k": 2, "preference": 0.5,
             "deadline_ms": 250}
        )
        assert request.deadline_s == 0.25

    def test_health_needs_no_k(self):
        assert decode_request({"op": "health", "id": 0}).op == "health"

    @pytest.mark.parametrize(
        "payload",
        [
            {"op": "nope", "id": 1},
            {"op": "query", "id": "one", "k": 2, "preference": 0.5},
            {"op": "query", "id": 1, "k": True, "preference": 0.5},
            {"op": "query", "id": 1, "k": 2},
            {"op": "query", "id": 1, "k": 2, "preference": "bad"},
            {"op": "query", "id": 1, "k": 2, "preference": [1.0]},
            {"op": "query", "id": 1, "k": 2, "preference": [1.0, "x"]},
            {"op": "query_batch", "id": 1, "k": 2},
            {"op": "query_batch", "id": 1, "k": 2, "preferences": "xs"},
            {"op": "query", "id": 1, "k": 2, "preference": 0.5,
             "deadline_ms": 0},
            {"op": "query", "id": 1, "k": 2, "preference": 0.5,
             "deadline_ms": "soon"},
        ],
    )
    def test_malformed_is_typed(self, payload):
        with pytest.raises(InvalidQueryError):
            decode_request(payload)

    QUERY = {"op": "query", "id": 1, "k": 2, "preference": 0.5}

    @pytest.mark.parametrize(
        "payload, field",
        [
            ({"op": [], "id": 1}, "op"),
            ({**QUERY, "preference": 2**1024}, "preference"),
            ({**QUERY, "preference": [2**1024, 1]}, "preference"),
            ({**QUERY, "preference": float("nan")}, "preference"),
            ({**QUERY, "op": "query_batch",
              "preferences": [[1, float("inf")]]}, "preferences"),
            ({**QUERY, "deadline_ms": 2**1024}, "deadline_ms"),
            ({**QUERY, "deadline_ms": float("nan")}, "deadline_ms"),
            ({"op": "insert", "id": 1, "tuple": [1, 10**400, 0.5]}, "tuple"),
            ({"op": "insert", "id": 1, "tuple": [1, 0.5, float("-inf")]}, "tuple"),
            ({"op": "insert", "id": 1, "tuple": [2**63, 0.5, 0.5]}, "tuple"),
            ({"op": "delete", "id": 1, "tid": -(2**63) - 1}, "tid"),
        ],
    )
    def test_values_that_would_fail_later_are_refused_naming_the_field(
        self, payload, field
    ):
        with pytest.raises(InvalidQueryError, match=field):
            decode_request(payload)


class TestResults:
    def test_roundtrip_is_bit_identical(self):
        from repro.core.index import QueryResult

        results = [QueryResult(7, 0.1 + 0.2), QueryResult(3, 1.0 / 3.0)]
        wire = json.loads(json.dumps(encode_results(results)))
        assert decode_results(wire) == results

    def test_junk_results_are_connection_errors(self):
        with pytest.raises(ServerConnectionError):
            decode_results("garbage")
        with pytest.raises(ServerConnectionError):
            decode_results([[1, 2, 3]])

    @pytest.mark.parametrize(
        "rows",
        [
            [[1.5, 2.0]],  # a float tid used to become tid 1
            [[True, "1e5"]],  # a bool tid and a string score
            [["7", "nan"]],  # strings used to become tid 7, score NaN
            [[7, True]],
            [[7, None]],
            [[2**63, 1.0]],
            [[-(2**63) - 1, 1.0]],
            [[7, 10**400]],
            [[7]],
            ["ab"],
            [{"tid": 7, "score": 1.0}],
        ],
    )
    def test_malformed_rows_are_refused_not_coerced(self, rows):
        with pytest.raises(ServerConnectionError, match="malformed results row"):
            decode_results(rows)

    def test_integral_scores_and_int64_edges_are_rows(self):
        rows = decode_results([[-(2**63), 2], [2**63 - 1, -0.5]])
        assert rows == [QueryResult(-(2**63), 2.0), QueryResult(2**63 - 1, -0.5)]
        assert type(rows[0].score) is float


def _query_body(
    tag=0x01, rid=7, k=5, p1=2.0, p2=1.0, deadline_ms=0.0, trace=b"c-1",
    n_trace=None,
):
    """A binary query body spelled out field by field: pins the layout."""
    n_trace = len(trace) if n_trace is None else n_trace
    head = struct.pack("<BqIdddB", tag, rid, k, p1, p2, deadline_ms, n_trace)
    return head + trace


def _result_body(rid=7, trace=b"c-1", rows=((3, 0.5), (4, 0.25))):
    tids = [tid for tid, _ in rows]
    scores = [score for _, score in rows]
    n = len(rows)
    return (
        struct.pack("<BqB", 0x02, rid, len(trace)) + trace
        + struct.pack(f"<I{n}q{n}d", n, *tids, *scores)
    )


class TestBinaryFrames:
    PREF = Preference(2.0, 1.0)

    def test_query_layout_and_roundtrip(self):
        body = encode_query(7, "c-1", self.PREF, 5, 250.0)
        assert body == _query_body(deadline_ms=250.0)
        assert decode_query(body) == Request(
            "query", 7, 5, self.PREF, deadline_s=0.25, trace="c-1"
        )

    def test_zero_deadline_means_none(self):
        assert encode_query(7, "c-1", self.PREF, 5) == _query_body()
        assert decode_query(_query_body()).deadline_s is None

    def test_result_layout_and_roundtrip_is_bit_identical(self):
        results = [
            QueryResult(-(2**63), 5e-324),
            QueryResult(2**63 - 1, 1.7976931348623157e308),
            QueryResult(3, 0.1 + 0.2),
            QueryResult(4, -0.0),
            QueryResult(5, float("nan")),
        ]
        body = encode_query_result(9, "s-1", results)
        assert body == _result_body(9, b"s-1", results)
        rid, trace, back = decode_query_result(body)
        assert (rid, trace) == (9, "s-1")
        assert [struct.pack("<qd", *r) for r in back] == [
            struct.pack("<qd", *r) for r in results
        ]
        assert all(type(r) is QueryResult for r in back)

    def test_empty_result(self):
        assert decode_query_result(encode_query_result(1, "t", [])) == (
            1, "t", []
        )

    def test_first_byte_rule(self):
        assert is_json(b'{"op": "health", "id": 1}')
        assert not is_json(_query_body())
        assert not is_json(b"")

    def test_request_id(self):
        assert request_id(_query_body(rid=-5)) == -5
        assert request_id(_query_body()[:8]) == 0
        assert request_id({"id": 3}) == 3
        assert request_id({"id": "3"}) == 0

    @pytest.mark.parametrize(
        "body",
        [
            pytest.param(_query_body(tag=0x02), id="unknown-tag"),
            pytest.param(_query_body(tag=0xFF), id="unknown-tag-ff"),
            pytest.param(_query_body() + b"x", id="trailing-bytes"),
            pytest.param(_query_body(n_trace=9), id="trace-past-end"),
            pytest.param(_query_body(trace=b""), id="empty-trace"),
            pytest.param(_query_body(trace=b"c-\xff"), id="non-ascii-trace"),
            pytest.param(_query_body(p1=math.nan), id="nan-weight"),
            pytest.param(_query_body(p2=math.inf), id="inf-weight"),
            pytest.param(_query_body(p1=-math.inf), id="minus-inf-weight"),
            pytest.param(_query_body(p1=-1.0), id="negative-weight"),
            pytest.param(_query_body(p1=0.0, p2=0.0), id="zero-weights"),
            pytest.param(_query_body(deadline_ms=math.nan), id="nan-deadline"),
            pytest.param(_query_body(deadline_ms=math.inf), id="inf-deadline"),
            pytest.param(_query_body(deadline_ms=-math.inf), id="minus-inf-deadline"),
            pytest.param(_query_body(deadline_ms=-5.0), id="negative-deadline"),
        ],
    )
    def test_hostile_query_frames_are_refused_typed(self, body):
        with pytest.raises(InvalidQueryError):
            decode_query(body)

    def test_query_truncated_at_every_offset_is_refused_typed(self):
        body = _query_body(deadline_ms=10.0)
        for cut in range(len(body)):
            with pytest.raises(InvalidQueryError):
                decode_query(body[:cut])

    def test_result_truncated_or_padded_is_a_connection_error(self):
        body = _result_body()
        for cut in range(len(body)):
            with pytest.raises(ServerConnectionError):
                decode_query_result(body[:cut])
        for bad in (body + b"\0", b"\x01" + body[1:], _result_body(trace=b"\xff")):
            with pytest.raises(ServerConnectionError):
                decode_query_result(bad)

    @pytest.mark.parametrize(
        "args",
        [
            (1, "c-\u00e9", PREF, 5),
            (1, "x" * 256, PREF, 5),
            (1, "c-1", PREF, -1),
            (1, "c-1", PREF, 2**32),
            (2**63, "c-1", PREF, 5),
        ],
    )
    def test_unencodable_queries_are_refused_typed(self, args):
        with pytest.raises(InvalidQueryError):
            encode_query(*args)


class TestErrorTransport:
    @pytest.mark.parametrize(
        "exc",
        [
            InvalidQueryError("bad k"),
            QueryTimeoutError("too slow"),
            ServerOverloadedError("queue full"),
            ServerConnectionError("gone"),
        ],
    )
    def test_taxonomy_roundtrip(self, exc):
        rebuilt = decode_error(json.loads(json.dumps(encode_error(exc))))
        assert type(rebuilt) is type(exc)
        assert str(rebuilt) == str(exc)
        assert isinstance(rebuilt, ReproError)

    def test_untyped_exception_crosses_as_server_error(self):
        wire = encode_error(ValueError("surprise"))
        assert wire["type"] == "ServerError"
        assert "ValueError" in wire["message"]
        assert isinstance(decode_error(wire), ServerError)

    def test_unknown_type_decodes_as_server_error(self):
        assert isinstance(
            decode_error({"type": "NoSuchError", "message": "?"}),
            ServerError,
        )
        assert isinstance(decode_error("not-a-dict"), ServerError)
