"""The remote :class:`Client`: an IndexService over one TCP connection.

``Client`` speaks the protocol of :mod:`repro.serve.protocol` and
satisfies the same :class:`~repro.serve.service.IndexService` contract
as the in-process front-doors, so swapping a local index for a server
is a one-constructor change::

    with Client("127.0.0.1", 7411) as service:
        results = service.query((2.0, 1.0), k=10, deadline=0.05)

Failure behaviour:

* a server-reported error re-raises the *typed* exception the server
  named (:class:`~repro.errors.InvalidQueryError`,
  :class:`~repro.errors.QueryTimeoutError`,
  :class:`~repro.errors.ServerOverloadedError`, ...), exactly as the
  in-process call would have raised it;
* transport failures — refused connection, reset, a response that never
  arrives — raise :class:`~repro.errors.ServerConnectionError`.  A
  ``deadline`` also bounds the socket wait, so a client under deadline
  can never hang on a stuck server.

One ``Client`` multiplexes nothing: it keeps a single connection with a
single in-flight request, serialized by a lock (threads may share it;
requests queue on the lock).  Run one client per closed-loop worker for
parallel load — that is exactly what ``python -m repro.bench --serve``
does.
"""

from __future__ import annotations

import socket
import threading
from typing import Callable, Sequence

from ..core.deadline import Deadline, DeadlineLike
from ..core.index import QueryResult
from ..core.scoring import PreferenceLike, as_preference
from ..core.tuples import RankTuple
from ..errors import InvalidQueryError, ServerConnectionError
from ..obs import TraceIdGenerator
from .protocol import (
    FrameReader,
    decode_error,
    decode_json,
    decode_query_result,
    decode_results,
    encode_query,
    is_json,
    write_frame,
)

__all__ = ["Client"]

#: Socket-level slack past the request deadline before the transport
#: gives up: covers serialization and scheduling so deadline expiry is
#: (almost always) reported by the *server's* typed QueryTimeoutError.
_DEADLINE_SLACK_S = 1.0


class Client:
    """A remote ``IndexService`` over the length-prefixed wire protocol.

    ``query`` travels as a binary frame, every other call as JSON.

    Connects lazily on first use.  ``request_timeout_s`` bounds how
    long an *undeadlined* request may wait for its response — the
    backstop that keeps even deadline-free callers from hanging.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        connect_timeout_s: float = 5.0,
        request_timeout_s: float = 30.0,
        trace_seed: int | None = None,
    ):
        self.host = host
        self.port = port
        self.connect_timeout_s = connect_timeout_s
        self.request_timeout_s = request_timeout_s
        self._lock = threading.Lock()
        self._sock: socket.socket | None = None
        self._reader: FrameReader | None = None
        self._wait_s = connect_timeout_s  # the socket's current timeout
        self._next_id = 0
        self._k_bound: int | None = None
        self._closed = False
        # Every request carries a fresh trace id (``trace_seed`` makes
        # the stream deterministic under test); the server echoes it and
        # attributes every recorder event of the request to it.
        self._trace_ids = TraceIdGenerator("c", seed=trace_seed)
        #: The trace id of the most recently sent request.
        self.last_trace_id: str | None = None

    # -- connection --------------------------------------------------------

    def _connect(self) -> tuple[socket.socket, FrameReader]:
        if self._closed:
            raise ServerConnectionError("client is closed")
        if self._sock is not None and self._reader is not None:
            return self._sock, self._reader
        try:
            sock = socket.create_connection(
                (self.host, self.port), timeout=self.connect_timeout_s
            )
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError as exc:
            raise ServerConnectionError(
                f"cannot connect to {self.host}:{self.port}: {exc}"
            ) from exc
        self._sock = sock
        self._reader = FrameReader(sock)
        self._wait_s = self.connect_timeout_s
        return sock, self._reader

    def close(self) -> None:
        """Close the connection; further requests raise typed errors."""
        with self._lock:
            self._closed = True
            self._drop()

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- request plumbing --------------------------------------------------

    def _roundtrip(
        self,
        encode: Callable[[int, str], dict | bytes],
        deadline: Deadline | None,
    ) -> dict | list[QueryResult]:
        """One request frame out, one response frame back, id-checked.

        ``encode(id, trace)`` builds the request: a JSON object or a
        binary ``query`` frame.  Returns the JSON response object, or
        the results of a binary result frame; a JSON error response is
        raised as the typed exception it names.
        """
        wait_s = self.request_timeout_s
        if deadline is not None:
            wait_s = max(0.001, deadline.remaining()) + _DEADLINE_SLACK_S
        with self._lock:
            self._next_id += 1
            rid = self._next_id
            trace = self.last_trace_id = self._trace_ids.next()
            sock, reader = self._connect()
            if wait_s != self._wait_s:
                sock.settimeout(wait_s)
                self._wait_s = wait_s
            try:
                write_frame(sock, encode(rid, trace))
                body = reader.read_body()
                if body is None:
                    raise ServerConnectionError(
                        "server closed the connection before responding"
                    )
                if is_json(body):
                    response = decode_json(body)
                    # Older servers do not echo the trace; when one is
                    # present it must be ours.
                    echoed = response.get("trace")
                    echo = (
                        response.get("id"),
                        trace if echoed is None else echoed,
                    )
                else:
                    got_id, got_trace, response = decode_query_result(body)
                    echo = (got_id, got_trace)
            except ServerConnectionError:
                self._drop()
                raise
            except InvalidQueryError as exc:
                # The server broke framing — resynchronizing is not
                # possible, so the transport is what failed here.
                self._drop()
                raise ServerConnectionError(
                    f"malformed response frame: {exc}"
                ) from exc
            if echo != (rid, trace):
                # Not the answer to this request: the stream cannot be
                # trusted.
                self._drop()
                raise ServerConnectionError(
                    f"response id/trace {echo!r} does not match request "
                    f"id/trace {(rid, trace)!r}"
                )
        if isinstance(response, dict) and not response.get("ok"):
            raise decode_error(response.get("error"))
        return response

    def _request(self, request: dict, deadline: Deadline | None) -> dict:
        """One JSON request (plus ``deadline_ms``); its ok response."""
        if deadline is not None:
            request["deadline_ms"] = self._deadline_ms(deadline)
        response = self._roundtrip(
            lambda rid, trace: {**request, "id": rid, "trace": trace},
            deadline,
        )
        if not isinstance(response, dict):
            raise ServerConnectionError(
                f"a binary result frame answered a JSON {request['op']!r}"
            )
        return response

    def _drop(self) -> None:
        """Forget a connection whose stream can no longer be trusted.

        Its reader goes with it: bytes buffered from a half-read or late
        response must never be parsed as the answer to a later request.
        """
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None
            self._reader = None

    @staticmethod
    def _wire(preference: PreferenceLike) -> list[float]:
        p = as_preference(preference)
        return [p.p1, p.p2]

    @staticmethod
    def _deadline_ms(deadline: Deadline | None) -> float | None:
        if deadline is None:
            return None
        return max(0.001, deadline.remaining() * 1000.0)

    def _validate_k(self, k: int) -> None:
        if not 1 <= k <= self.k_bound:
            raise InvalidQueryError(f"k={k} outside [1, K={self.k_bound}]")

    # -- the IndexService surface -----------------------------------------

    @property
    def k_bound(self) -> int:
        """The server index's construction bound ``K`` (cached)."""
        if self._k_bound is None:
            self._k_bound = int(self.health()["k_bound"])
        return self._k_bound

    def query(
        self,
        preference: PreferenceLike,
        k: int,
        *,
        deadline: DeadlineLike = None,
    ) -> list[QueryResult]:
        """Top-k under ``preference`` from the remote index.

        Sent as a binary ``query`` frame and answered by a binary result
        frame carrying each score's float64 bytes, so answers are
        bit-identical to the server's in-process answers.
        """
        self._validate_k(k)
        deadline = Deadline.of(deadline)
        p = as_preference(preference)
        deadline_ms = self._deadline_ms(deadline)
        results = self._roundtrip(
            lambda rid, trace: encode_query(rid, trace, p, k, deadline_ms),
            deadline,
        )
        if not isinstance(results, list):
            raise ServerConnectionError(
                "a JSON object answered a binary query: expected a "
                "binary result frame"
            )
        return results

    def query_batch(
        self,
        preferences: Sequence[PreferenceLike],
        k: int,
        *,
        deadline: DeadlineLike = None,
    ) -> list[list[QueryResult]]:
        """Answer many preferences in one round trip."""
        self._validate_k(k)
        request = {
            "op": "query_batch",
            "preferences": [self._wire(p) for p in preferences],
            "k": k,
        }
        response = self._request(request, Deadline.of(deadline))
        raw = response.get("batches")
        if not isinstance(raw, list):
            raise ServerConnectionError(
                f"malformed batches payload: {raw!r}"
            )
        return [decode_results(results) for results in raw]

    def explain(self, preference: PreferenceLike, k: int) -> dict:
        """The server's query-explain record plus its decoded results."""
        self._validate_k(k)
        response = self._request(
            {"op": "explain", "preference": self._wire(preference), "k": k},
            None,
        )
        explain = response.get("explain")
        if not isinstance(explain, dict):
            raise ServerConnectionError(
                f"malformed explain payload: {explain!r}"
            )
        return {
            **explain,
            "results": decode_results(response.get("results")),
        }

    def insert(
        self,
        tuple_: RankTuple,
        *,
        deadline: DeadlineLike = None,
    ) -> bool:
        """Add one tuple to the remote index.

        Returns once the server's write-ahead log has made the write
        durable; the boolean is whether the answered index changed
        (always ``True`` on the WAL-then-delta path).  A read-only
        server answers with :class:`~repro.errors.InvalidQueryError`.
        """
        request = {
            "op": "insert",
            "tuple": [int(tuple_.tid), float(tuple_.s1), float(tuple_.s2)],
        }
        response = self._request(request, Deadline.of(deadline))
        return bool(response.get("applied"))

    def delete(
        self,
        tid: int,
        *,
        deadline: DeadlineLike = None,
    ) -> int:
        """Remove one tuple remotely; returns the remaining bound.

        The returned integer is the server's post-delete
        ``k_effective`` — the same contract as the in-process
        ``delete`` methods.
        """
        response = self._request(
            {"op": "delete", "tid": int(tid)}, Deadline.of(deadline)
        )
        k_effective = response.get("k_effective")
        if isinstance(k_effective, bool) or not isinstance(k_effective, int):
            raise ServerConnectionError(
                f"malformed k_effective payload: {k_effective!r}"
            )
        return k_effective

    def health(self) -> dict:
        """The server's health snapshot (bound, queue, counters)."""
        response = self._request({"op": "health"}, None)
        health = response.get("health")
        if not isinstance(health, dict):
            raise ServerConnectionError(
                f"malformed health payload: {health!r}"
            )
        return health

    def stats(self) -> dict:
        """Rolling-window telemetry: p50/p99/qps/shed-rate, lately.

        The ``stats`` wire op — window percentiles over the last N
        seconds, the lifetime counters, queue depth, and a flight-
        recorder summary.  Raises the same taxonomy types as the query
        paths (an old server answers with
        :class:`~repro.errors.InvalidQueryError`: unknown op).
        """
        response = self._request({"op": "stats"}, None)
        stats = response.get("stats")
        if not isinstance(stats, dict):
            raise ServerConnectionError(
                f"malformed stats payload: {stats!r}"
            )
        return stats

    def dump(self) -> dict:
        """The server's flight-recorder dump (the ``dump`` admin op)."""
        response = self._request({"op": "dump"}, None)
        flight = response.get("flight")
        if not isinstance(flight, dict):
            raise ServerConnectionError(
                f"malformed flight payload: {flight!r}"
            )
        return flight
