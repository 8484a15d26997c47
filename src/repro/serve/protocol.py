"""The length-prefixed JSON wire protocol of :mod:`repro.serve`.

A *frame* is a 4-byte big-endian unsigned length followed by that many
bytes of UTF-8 JSON.  Requests and responses are JSON objects:

Request::

    {"op": "query",       "id": 7, "preference": [2.0, 1.0], "k": 10,
     "deadline_ms": 50, "trace": "c-0001-..."}   # deadline/trace optional
    {"op": "query_batch", "id": 8, "preferences": [[2,1], 0.46], "k": 10}
    {"op": "explain",     "id": 9, "preference": [2.0, 1.0], "k": 10}
    {"op": "insert",      "id": 3, "tuple": [91, 0.4, 0.7]}
    {"op": "delete",      "id": 4, "tid": 91}
    {"op": "health",      "id": 0}
    {"op": "stats",       "id": 1}      # rolling-window telemetry
    {"op": "dump",        "id": 2}      # flight-recorder dump

A preference is either a ``[p1, p2]`` weight pair or a bare number
interpreted as a sweep angle — the same forms
:func:`~repro.core.scoring.as_preference` accepts in process.

Response (one per request, ``id`` echoed)::

    {"id": 7, "ok": true,  "results": [[tid, score], ...],
     "trace": "c-0001-..."}
    {"id": 8, "ok": true,  "batches": [[[tid, score], ...], ...]}
    {"id": 3, "ok": true,  "applied": true}
    {"id": 4, "ok": true,  "k_effective": 49}
    {"id": 0, "ok": true,  "health": {...}}
    {"id": 1, "ok": true,  "stats": {...}}
    {"id": 2, "ok": true,  "flight": {...}}
    {"id": 7, "ok": false, "error": {"type": "InvalidQueryError",
                                     "message": "..."}}

``trace`` is the optional request/trace-id field of the tracing
contract (:mod:`repro.obs.context`): a client may attach one to any
request; the server echoes it on the response and attributes every
recorder event the request touches to it.  Requests without a ``trace``
stay fully valid — the server assigns a server-side id (``s-...``) so
the request is still attributable in the flight recorder.

``error.type`` is the class name of a :class:`~repro.errors.ReproError`
subclass; :func:`decode_error` maps it back to the typed exception on
the client, so remote failures raise exactly what the in-process call
would have raised.  Scores travel as JSON numbers, which round-trip
Python floats bit-exactly, so remote answers are bit-identical to local
ones.

Malformed wire input — bad JSON, a non-object payload, an unknown
``op``, missing or mistyped fields, an oversized frame — is always
reported as :class:`~repro.errors.InvalidQueryError`, never as a raw
``json`` or ``socket`` error.
"""

from __future__ import annotations

import json
import math
import socket
from dataclasses import dataclass

from .. import errors
from ..core.index import QueryResult
from ..core.scoring import Preference, as_preference
from ..errors import (
    InvalidQueryError,
    ReproError,
    ServerConnectionError,
    ServerError,
)

__all__ = [
    "ADMIN_OPS",
    "FrameReader",
    "MAX_FRAME_BYTES",
    "OPS",
    "WRITE_OPS",
    "Request",
    "decode_error",
    "decode_request",
    "decode_results",
    "encode_error",
    "encode_results",
    "read_frame",
    "write_frame",
]

#: Hard cap on one frame's JSON body; guards both sides against a
#: garbage length prefix committing them to a multi-gigabyte read.
MAX_FRAME_BYTES = 8 * 1024 * 1024

#: The operations the server understands.
OPS = frozenset(
    {
        "query",
        "query_batch",
        "explain",
        "insert",
        "delete",
        "health",
        "stats",
        "dump",
    }
)

#: Admin operations: no ``k``/preference, answered without queueing.
ADMIN_OPS = frozenset({"health", "stats", "dump"})

#: Write operations: no ``k``/preference; admitted like a query (so
#: backpressure and deadlines apply) and executed, like every request,
#: by the reader that read them.  Only served when the backing service
#: has a write path.
WRITE_OPS = frozenset({"insert", "delete"})

_HEADER_BYTES = 4

#: The most one ``recv`` asks for.  A :class:`FrameReader` always asks
#: for this much, so a frame's header and body (and any frame pipelined
#: behind it) arrive in one system call.
_RECV_BYTES = 1 << 16

_ENCODER = json.JSONEncoder(separators=(",", ":"))


def write_frame(sock: socket.socket, payload: dict) -> None:
    """Serialize ``payload`` and send it as one length-prefixed frame."""
    body = _ENCODER.encode(payload).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise ServerError(
            f"frame of {len(body)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte protocol limit"
        )
    try:
        sock.sendall(len(body).to_bytes(_HEADER_BYTES, "big") + body)
    except OSError as exc:
        raise ServerConnectionError(f"send failed: {exc}") from exc


def _fill(
    sock: socket.socket, buffer: bytearray, n: int, readahead: bool
) -> bool:
    """Grow ``buffer`` to ``n`` bytes; ``False`` on EOF at a boundary.

    With ``readahead`` a ``recv`` may return bytes past ``n`` (they stay
    in ``buffer``); without it, never.
    """
    while len(buffer) < n:
        want = _RECV_BYTES if readahead else min(n - len(buffer), _RECV_BYTES)
        try:
            chunk = sock.recv(want)
        except OSError as exc:
            raise ServerConnectionError(f"receive failed: {exc}") from exc
        if not chunk:
            if buffer:
                raise ServerConnectionError(
                    f"connection closed {len(buffer)} bytes into a "
                    f"{n}-byte frame"
                )
            return False
        buffer += chunk
    return True


def _take_frame(
    sock: socket.socket, buffer: bytearray, readahead: bool
) -> dict | None:
    """Consume one frame from ``buffer``, refilling it from ``sock``."""
    if not _fill(sock, buffer, _HEADER_BYTES, readahead):
        return None
    length = int.from_bytes(buffer[:_HEADER_BYTES], "big")
    if length > MAX_FRAME_BYTES:
        raise InvalidQueryError(
            f"declared frame length {length} exceeds the "
            f"{MAX_FRAME_BYTES}-byte protocol limit"
        )
    end = _HEADER_BYTES + length
    _fill(sock, buffer, end, readahead)
    body = buffer[_HEADER_BYTES:end]
    del buffer[:end]
    try:
        payload = json.loads(body)
    except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
        raise InvalidQueryError(f"frame body is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise InvalidQueryError(
            f"frame body must be a JSON object, got {type(payload).__name__}"
        )
    return payload


def read_frame(sock: socket.socket) -> dict | None:
    """Read one frame; returns its JSON object, or ``None`` on clean EOF.

    Raises :class:`~repro.errors.InvalidQueryError` for unparseable or
    non-object bodies and oversized lengths, and
    :class:`~repro.errors.ServerConnectionError` when the peer vanishes
    mid-frame.  Reads exactly one frame's bytes (header, then body), so
    it is safe on a socket someone else keeps reading; a connection's
    owner reads through a :class:`FrameReader` instead.
    """
    return _take_frame(sock, bytearray(), False)


class FrameReader:
    """:func:`read_frame` for the owner of a connection, buffered.

    Each ``recv`` asks for more than the frame needs, so header and
    body — and frames a peer pipelined — cost one system call, and the
    surplus waits in the buffer for the next :meth:`read`.  Same return
    value and error taxonomy as :func:`read_frame`.  After an error the
    stream position is unknown: drop the connection, never reuse the
    reader.
    """

    __slots__ = ("_sock", "_buffer")

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self._buffer = bytearray()

    def read(self) -> dict | None:
        """The next frame's JSON object, or ``None`` on clean EOF."""
        return _take_frame(self._sock, self._buffer, True)


@dataclass(frozen=True, slots=True)
class Request:
    """One validated wire request, preferences already coerced."""

    op: str
    rid: int
    k: int = 0
    preference: Preference | None = None
    preferences: tuple[Preference, ...] | None = None
    deadline_s: float | None = None
    #: Client-supplied trace id; ``None`` until the server assigns one.
    trace: str | None = None
    #: ``insert`` payload as ``(tid, s1, s2)``.
    tuple_: tuple[int, float, float] | None = None
    #: ``delete`` target tuple id.
    tid: int | None = None


_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63) - 1


def _wire_int(value, field: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidQueryError(
            f"request field {field!r} must be an integer, got {value!r}"
        )
    return value


def _wire_tid(value, field: str) -> int:
    """A tuple id: an integer the WAL's signed 64-bit field can hold."""
    tid = _wire_int(value, field)
    if not _INT64_MIN <= tid <= _INT64_MAX:
        raise InvalidQueryError(
            f"request field {field!r} must fit a signed 64-bit integer, "
            f"got a {tid.bit_length()}-bit value"
        )
    return tid


def _wire_float(value, field: str) -> float:
    """One JSON number as a finite float, typed on anything else.

    ``json`` parses ``NaN`` / ``Infinity`` and integers of any size, so
    both non-finite floats and integers past the float range get here.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InvalidQueryError(
            f"request field {field!r} must be a number, got {value!r}"
        )
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise InvalidQueryError(
            f"request field {field!r} must be a finite number, got {number!r}"
        )
    return number


def _wire_preference(raw, field: str = "preference") -> Preference:
    """Coerce one wire-form preference (pair or angle), typed on failure."""
    if isinstance(raw, list):
        if len(raw) != 2:
            raise InvalidQueryError(
                f"a {field} pair must be two numbers, got {raw!r}"
            )
        return as_preference(
            (_wire_float(raw[0], field), _wire_float(raw[1], field))
        )
    return as_preference(_wire_float(raw, field))


def decode_request(payload: dict) -> Request:
    """Validate one request object into a :class:`Request`.

    Every malformed shape raises
    :class:`~repro.errors.InvalidQueryError` naming the offending
    field — the server maps these straight into error responses.
    Nothing else escapes: a value that would only fail later, inside
    the service (a non-finite number, a tid the WAL cannot encode), is
    refused here.
    """
    op = payload.get("op")
    if not isinstance(op, str) or op not in OPS:
        raise InvalidQueryError(
            f"unknown op {op!r}; expected one of {sorted(OPS)}"
        )
    rid = _wire_int(payload.get("id"), "id")
    trace: str | None = None
    if payload.get("trace") is not None:
        raw_trace = payload["trace"]
        if not isinstance(raw_trace, str) or not raw_trace:
            raise InvalidQueryError(
                f"trace must be a non-empty string, got {raw_trace!r}"
            )
        trace = raw_trace
    deadline_s: float | None = None
    if payload.get("deadline_ms") is not None:
        deadline_ms = _wire_float(payload["deadline_ms"], "deadline_ms")
        if deadline_ms <= 0:
            raise InvalidQueryError(
                f"deadline_ms must be positive, got {deadline_ms!r}"
            )
        deadline_s = deadline_ms / 1000.0
    if op in ADMIN_OPS:
        return Request(op=op, rid=rid, trace=trace)
    if op == "insert":
        raw_tuple = payload.get("tuple")
        field = "tuple [tid, s1, s2]"
        if not isinstance(raw_tuple, list) or len(raw_tuple) != 3:
            raise InvalidQueryError(
                f"insert requires a {field} with an integer tid and "
                f"numeric ranks, got {raw_tuple!r}"
            )
        return Request(
            op=op,
            rid=rid,
            deadline_s=deadline_s,
            trace=trace,
            tuple_=(
                _wire_tid(raw_tuple[0], field),
                _wire_float(raw_tuple[1], field),
                _wire_float(raw_tuple[2], field),
            ),
        )
    if op == "delete":
        return Request(
            op=op,
            rid=rid,
            deadline_s=deadline_s,
            trace=trace,
            tid=_wire_tid(payload.get("tid"), "tid"),
        )
    k = _wire_int(payload.get("k"), "k")
    if op == "query_batch":
        raw_preferences = payload.get("preferences")
        if not isinstance(raw_preferences, list):
            raise InvalidQueryError(
                "query_batch requires a 'preferences' list"
            )
        return Request(
            op=op,
            rid=rid,
            k=k,
            preferences=tuple(
                _wire_preference(p, "preferences") for p in raw_preferences
            ),
            deadline_s=deadline_s,
            trace=trace,
        )
    if "preference" not in payload:
        raise InvalidQueryError(f"{op} requires a 'preference' field")
    return Request(
        op=op,
        rid=rid,
        k=k,
        preference=_wire_preference(payload["preference"]),
        deadline_s=deadline_s,
        trace=trace,
    )


def encode_results(results: list[QueryResult]) -> list[list[float]]:
    """One answer list as JSON-ready ``[tid, score]`` pairs."""
    return [[result.tid, result.score] for result in results]


def decode_results(raw) -> list[QueryResult]:
    """Rebuild :class:`QueryResult` rows from wire pairs, typed on junk."""
    if not isinstance(raw, list):
        raise ServerConnectionError(
            f"malformed results payload: expected a list, got {raw!r}"
        )
    try:
        return [
            QueryResult(int(tid), float(score)) for tid, score in raw
        ]
    except (TypeError, ValueError) as exc:
        raise ServerConnectionError(
            f"malformed results payload: {exc}"
        ) from exc


#: Wire error-type name -> exception class, straight from the taxonomy.
_ERROR_TYPES: dict[str, type[ReproError]] = {
    name: obj
    for name in errors.__all__
    if isinstance(obj := getattr(errors, name), type)
    and issubclass(obj, ReproError)
}


def encode_error(exc: BaseException) -> dict:
    """An exception as a wire error object (class name + message)."""
    name = type(exc).__name__
    if name not in _ERROR_TYPES:
        # Anything outside the taxonomy crosses the wire as the generic
        # server failure; the message still names what happened.
        return {
            "type": "ServerError",
            "message": f"{name}: {exc}",
        }
    return {"type": name, "message": str(exc)}


def decode_error(raw) -> ReproError:
    """Rebuild the typed exception a wire error object describes."""
    if not isinstance(raw, dict):
        return ServerError(f"malformed error payload: {raw!r}")
    name = raw.get("type")
    message = raw.get("message", "")
    cls = _ERROR_TYPES.get(name, ServerError)
    return cls(str(message))
