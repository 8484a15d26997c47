"""A threaded socket server with admission control over any IndexService.

:class:`QueryServer` puts the paper's ``O(log n + K)`` query on a
socket.  A region holds ~K rows, so there is nothing for a server to
amortize across requests (the repo's own traces put ``query_batch``
*above* ``query`` per query at that size); what is left to get right is
per-request latency and failure isolation.  Hence one rule: **a request
is one reader's work**, from ``recv`` to ``sendall``.  The moving parts:

* **threads** — one acceptor plus one reader per connection, speaking
  the length-prefixed JSON protocol of :mod:`repro.serve.protocol`
  through a buffered :class:`~repro.serve.protocol.FrameReader`.  The
  reader that read a request admits it, executes it, records it and
  writes the response to its own socket; no thread ever touches another
  connection's request or socket (:meth:`QueryServer.close` only hangs
  up);
* **admission control** — a counter of requests admitted and not yet
  started, capped by ``queue_bound``.  A reader holds at most one (it
  does not read its next frame until the last is answered), so the
  bound counts waiting connections.  Past it the request is *shed
  immediately* with a typed :class:`~repro.errors.ServerOverloadedError`
  response — never a silent drop, never an unbounded backlog;
* **the executor role** — a plain lock that serializes every service
  call.  A reader waits for it on a bounded timed ``acquire`` (the only
  wait in the server that is not on a socket), re-checking for shutdown
  each time it wakes.  Nothing strands: a waiting request's only
  dependency is its own reader, and a reader answers whatever its
  service call raises — typed or not — before it returns to ``recv``;
* **deadlines** — a request's ``deadline_ms`` arms a
  :class:`~repro.core.deadline.Deadline` at admission.  One that expires
  while waiting for the role is answered with
  :class:`~repro.errors.QueryTimeoutError`, not executed; otherwise the
  deadline is passed through to the service call;
* **metrics** — ``serve.*`` counters and series through any
  :class:`~repro.obs.Recorder` (queue depth at every admission,
  per-request latency), Prometheus-exportable via
  :func:`repro.obs.prometheus_text`;
* **tracing** — every request runs inside one
  :class:`~repro.obs.context.trace_scope`, so each recorder event it
  touches carries its trace id; requests without a client id get a
  server-assigned one (``serve.untraced`` counts them) and the id is
  echoed on the response;
* **telemetry** — a :class:`~repro.obs.RollingWindow` answers the
  ``stats`` op (p50/p99/qps/shed-rate over the last N seconds) and the
  always-on :class:`~repro.obs.FlightRecorder` answers ``dump``; an
  unclean :meth:`close` writes the dump to ``flight_path``.

The server fails *loudly and typed*: every request gets exactly one
response, and every error response carries a
:class:`~repro.errors.ReproError` subclass name the client re-raises.
"""

from __future__ import annotations

import json
import socket
import threading
import time
import traceback
from dataclasses import replace
from pathlib import Path

from ..core.deadline import Deadline
from ..errors import (
    InvalidQueryError,
    QueryTimeoutError,
    ReproError,
    ServerError,
    ServerOverloadedError,
)
from ..obs import (
    NULL_RECORDER,
    ContextRecorder,
    FlightRecord,
    FlightRecorder,
    Recorder,
    RequestCapture,
    RollingWindow,
    TraceIdGenerator,
    trace_scope,
)
from ..core.tuples import RankTuple
from .protocol import (
    ADMIN_OPS,
    WRITE_OPS,
    FrameReader,
    Request,
    decode_request,
    encode_error,
    encode_results,
    write_frame,
)
from .service import IndexService

__all__ = ["QueryServer"]

#: How long a reader waiting for the executor role sleeps before it
#: re-checks for shutdown.  Bounds how late a waiting request learns of
#: :meth:`QueryServer.close` while a service call ahead of it is stuck.
_ROLE_WAIT_S = 0.05


def _hang_up(sock: socket.socket) -> None:
    """Shut down, then close: on Linux ``close()`` alone does not wake
    a thread blocked in ``accept()``/``recv()`` on this socket."""
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass  # never connected, or the peer already hung up
    try:
        sock.close()
    except OSError:
        pass


class QueryServer:
    """Serve an :class:`~repro.serve.service.IndexService` over TCP.

    Each connection's reader thread runs its own requests, one at a
    time, start to finish; service calls are serialized by one lock.
    ``queue_bound`` caps how many requests may wait for that lock (the
    backpressure knob).  ``port=0`` binds an ephemeral port — read the
    bound address from :attr:`address` after :meth:`start`.
    """

    def __init__(
        self,
        service: IndexService,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        queue_bound: int = 1024,
        recorder: Recorder = NULL_RECORDER,
        trace_seed: int | None = None,
        window: RollingWindow | None = None,
        flight: FlightRecorder | None = None,
        flight_path: str | Path | None = None,
    ):
        if queue_bound < 1:
            raise ServerError(f"queue_bound must be >= 1, got {queue_bound}")
        self._service = service
        self._host = host
        self._port = port
        self.queue_bound = queue_bound
        # Every recorder event of a request must carry its trace id, so
        # the server always speaks through a ContextRecorder.  Callers
        # that already wrap (to share the recorder with the index, so
        # descent/pager events are attributed too) are not re-wrapped.
        self._recorder = (
            recorder
            if isinstance(recorder, ContextRecorder)
            else ContextRecorder(recorder)
        )
        self._trace_ids = TraceIdGenerator("s", seed=trace_seed)
        #: Rolling-window telemetry behind the ``stats`` wire op.
        self.window = window if window is not None else RollingWindow()
        #: The always-on flight recorder behind the ``dump`` wire op.
        self.flight = flight if flight is not None else FlightRecorder()
        self._flight_path = Path(flight_path) if flight_path else None
        # Requests admitted and not yet started: each is a reader
        # waiting for the executor role.
        self._waiting = 0  # rjilint: guarded-by(_queue_lock)
        self._queue_lock = threading.Lock()
        # The executor role: guards no field, serializes service calls.
        # Taken before _queue_lock (and every other lock here), never
        # while one is held.
        self._role_lock = threading.Lock()
        self._conns: set[socket.socket] = set()
        self._conns_lock = threading.Lock()
        self._stats_lock = threading.Lock()
        self._counts = {
            "connections": 0,
            "requests": 0,
            "responses": 0,
            "errors": 0,
            "shed": 0,
            "bad_frames": 0,
            "untraced": 0,
            "flight_dumps": 0,
        }
        self._stopping = False
        self._listener: socket.socket | None = None
        self._threads: list[threading.Thread] = []

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "QueryServer":
        """Bind, listen, and start the acceptor thread."""
        if self._listener is not None:
            raise ServerError("server already started")
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind((self._host, self._port))
            listener.listen(128)
        except OSError as exc:
            listener.close()
            raise ServerError(
                f"cannot bind {self._host}:{self._port}: {exc}"
            ) from exc
        self._listener = listener
        thread = threading.Thread(
            target=self._accept_loop, name="serve-accept", daemon=True
        )
        thread.start()
        self._threads.append(thread)
        return self

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` — useful with ``port=0``."""
        if self._listener is None:
            raise ServerError("server not started")
        addr = self._listener.getsockname()
        return (addr[0], addr[1])

    def close(self) -> None:
        """Stop serving: waiting requests get typed errors, threads end.

        An *unclean* shutdown — requests still waiting, or any non-ok
        outcome on record — writes the flight-recorder dump to the
        configured ``flight_path`` so the evidence survives the process.
        """
        if self._stopping:
            return
        # Under the queue lock, so the count is exact: a request leaves
        # the waiting state under the same lock and looks at _stopping
        # there, so these — and no others — are refused by their readers.
        with self._queue_lock:
            self._stopping = True
            abandoned = self._waiting
        if self._listener is not None:
            _hang_up(self._listener)
        # Acceptor first (no new connections after it).  Then every
        # reader is woken with SHUT_RD, which leaves it its write half:
        # one parked in recv() sees EOF, one waiting for the role
        # refuses its request typed within _ROLE_WAIT_S, the one inside
        # the service answers when the call returns; each hangs up its
        # own socket on the way out, so every thread this server
        # started is dead on return.
        self._threads[0].join(timeout=5.0)
        with self._conns_lock:
            conns = list(self._conns)
        for sock in conns:
            try:
                sock.shutdown(socket.SHUT_RD)
            except OSError:
                pass  # the peer already hung up
        for thread in self._threads[1:]:
            thread.join(timeout=5.0)
        with self._conns_lock:
            stuck = list(self._conns)
        for sock in stuck:  # a service call that outlived the join
            self._drop_connection(sock)
        self._maybe_dump_flight(abandoned)

    def _maybe_dump_flight(self, abandoned: int) -> None:
        """Write the flight dump at shutdown when something went wrong."""
        if self._flight_path is None:
            return
        dump = self.flight.dump()
        outcomes = dump["outcomes"]
        unclean = abandoned > 0 or any(
            outcomes.get(name, 0) for name in ("error", "shed", "timeout")
        )
        if not unclean:
            return
        dump["abandoned_in_queue"] = abandoned
        try:
            self._flight_path.write_text(json.dumps(dump, indent=2))
        except OSError:
            return  # shutdown path: never raise over a failed post-mortem
        self._count("flight_dumps")

    def __enter__(self) -> "QueryServer":
        return self.start() if self._listener is None else self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- stats -------------------------------------------------------------

    def _count(self, key: str, value: int = 1) -> None:
        with self._stats_lock:
            self._counts[key] += value
        if self._recorder.enabled:
            self._recorder.count(f"serve.{key}", value)

    def stats(self) -> dict[str, int]:
        """A consistent snapshot of the lifetime serving counters."""
        with self._stats_lock:
            return dict(self._counts)

    @property
    def queue_depth(self) -> int:
        """Requests admitted and not yet started."""
        with self._queue_lock:
            return self._waiting

    # -- connection handling ----------------------------------------------

    def _accept_loop(self) -> None:
        assert self._listener is not None
        while not self._stopping:
            try:
                sock, _peer = self._listener.accept()
            except OSError:
                break  # listener closed by close()
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            with self._conns_lock:
                self._conns.add(sock)
            self._count("connections")
            thread = threading.Thread(
                target=self._serve_connection,
                args=(sock,),
                name="serve-conn",
                daemon=True,
            )
            thread.start()
            # close() joins these; readers that already hung up are
            # forgotten here so a long-lived server's list stays small.
            self._threads[1:] = [
                t for t in self._threads[1:] if t.is_alive()
            ] + [thread]

    def _drop_connection(self, sock: socket.socket) -> None:
        _hang_up(sock)
        with self._conns_lock:
            self._conns.discard(sock)

    def _send(self, sock: socket.socket, response: dict) -> None:
        """Write one response frame; a vanished client just drops out."""
        try:
            write_frame(sock, response)
        except ReproError:
            self._drop_connection(sock)
            return
        self._count("responses")

    def _error_response(
        self, rid: int, exc: BaseException, trace: str | None = None
    ) -> dict:
        self._count("errors")
        response = {"id": rid, "ok": False, "error": encode_error(exc)}
        if trace is not None:
            response["trace"] = trace
        return response

    def _serve_connection(self, sock: socket.socket) -> None:
        reader = FrameReader(sock)
        try:
            while not self._stopping:
                try:
                    payload = reader.read()
                except InvalidQueryError as exc:
                    # The stream may be out of sync after a framing
                    # violation: answer typed, then hang up.
                    self._count("bad_frames")
                    self._send(sock, self._error_response(0, exc))
                    return
                except ReproError:
                    return  # peer vanished mid-frame
                if payload is None:
                    return  # clean EOF
                rid = payload.get("id")
                rid = rid if isinstance(rid, int) else 0
                try:
                    request = decode_request(payload)
                except ReproError as exc:
                    self._count("bad_frames")
                    self._send(sock, self._error_response(rid, exc))
                    continue
                if request.trace is None:
                    # Old clients stay valid: the server assigns an id
                    # so the request is still attributable everywhere.
                    self._count("untraced")
                    request = replace(request, trace=self._trace_ids.next())
                try:
                    self._validate(request)
                except ReproError as exc:
                    # A rejected request is still a request someone
                    # sent: it gets a flight record (and its trace in
                    # the error response) so the dump explains the
                    # rejection.
                    self._count("bad_frames")
                    self._finish(request, time.perf_counter(), exc=exc)
                    self._send(
                        sock, self._error_response(rid, exc, request.trace)
                    )
                    continue
                self._count("requests")
                self._send(sock, self._answer(request))
        finally:
            self._drop_connection(sock)

    def _validate(self, request: Request) -> None:
        """Reject bad ``k`` before admission.

        Write ops carry no ``k``; they are rejected here instead when
        the backing service has no write path, so a read-only deployment
        sheds write traffic before it ever consumes a queue slot."""
        if request.op in ADMIN_OPS:
            return
        if request.op in WRITE_OPS:
            if not hasattr(self._service, request.op):
                raise InvalidQueryError(
                    f"{type(self._service).__name__} is read-only: "
                    f"it does not support {request.op}"
                )
            return
        k = request.k
        if not 1 <= k <= self._service.k_bound:
            raise InvalidQueryError(
                f"k={k} outside [1, K={self._service.k_bound}]"
            )

    # -- one request, on the reader that read it ---------------------------

    def _answer(self, request: Request) -> dict:
        """The response to one valid request, telemetry recorded.

        Admin ops are answered at once, never queued: they must work
        while the executor role is stuck.  Everything else is admitted
        and executed inside one trace scope with one capture.  Whatever
        the service raises is answered and recorded — a
        :class:`~repro.errors.ReproError` under its own name, anything
        else as a :class:`~repro.errors.ServerError` naming the class —
        so one request's failure costs nobody else a response, and the
        connection keeps serving.
        """
        body: dict
        if request.op in ADMIN_OPS:
            body = self.handle_request(request)
        else:
            enqueued_at = time.perf_counter()
            capture = RequestCapture()
            with trace_scope(request.trace, capture=capture):
                try:
                    body = self._execute(request)
                except Exception as exc:
                    self._finish(request, enqueued_at, capture, exc)
                    return self._error_response(
                        request.rid, exc, request.trace
                    )
                self._finish(request, enqueued_at, capture)
        return {"id": request.rid, "ok": True, "trace": request.trace, **body}

    def _admit(self) -> None:
        """Count this request in within the bound, or shed it typed."""
        with self._queue_lock:
            if self._stopping:
                raise ServerError("server is shutting down")
            depth = self._waiting + 1
            if depth <= self.queue_bound:
                self._waiting = depth
        if depth > self.queue_bound:
            self._count("shed")
            raise ServerOverloadedError(
                f"admission queue is full ({self.queue_bound} pending); "
                "retry with backoff"
            )
        if self._recorder.enabled:
            self._recorder.observe("serve.queue_depth", depth)

    def _execute(self, request: Request) -> dict:
        """Admit, wait for the executor role, run: the response body.

        Raises what the request's outcome is: shed, expired while
        waiting, refused at shutdown, or whatever the service raised.
        """
        deadline = Deadline.of(request.deadline_s)
        self._admit()
        with self._recorder.span(
            "serve.request", {"op": request.op, "k": request.k}
        ):
            held = False
            while not (held or self._stopping):
                held = self._role_lock.acquire(timeout=_ROLE_WAIT_S)
            try:
                with self._queue_lock:
                    self._waiting -= 1
                    stopping = self._stopping
                if stopping:
                    raise ServerError("server is shutting down")
                if deadline is not None and deadline.expired():
                    raise QueryTimeoutError(
                        f"request deadline of {deadline.timeout_s:.6g}s "
                        "expired in the admission queue"
                    )
                return self.handle_request(request, deadline)
            finally:
                if held:
                    self._role_lock.release()

    def _finish(
        self,
        request: Request,
        enqueued_at: float,
        capture: RequestCapture | None = None,
        exc: BaseException | None = None,
    ) -> None:
        """Record one resolved request: its one latency, everywhere.

        The same number goes to the window, the flight record and (for
        answered requests) the ``serve.latency`` series, which is
        emitted first so the request's own capture still sees it.
        """
        latency = time.perf_counter() - enqueued_at
        outcome, error = "ok", None
        if exc is None:
            if self._recorder.enabled:
                self._recorder.observe("serve.latency", latency)
        else:
            if isinstance(exc, ServerOverloadedError):
                outcome = "shed"
            elif isinstance(exc, QueryTimeoutError):
                outcome = "timeout"
            else:
                outcome = "error"
            error = f"{type(exc).__name__}: {exc}"
            if not isinstance(exc, ReproError):
                # A bug, not an outcome: keep where it came from.
                error += "\n" + "".join(traceback.format_tb(exc.__traceback__))
        self.window.record(latency, outcome)
        cache_hit: bool | None = None
        descent_depth: int | None = None
        if capture is not None:
            hits = capture.total("rji.cache.hits")
            if hits or capture.total("rji.cache.misses"):
                cache_hit = hits > 0
            depth = capture.last_value("rji.descent_steps")
            if depth is not None:
                descent_depth = int(depth)
        self.flight.record(
            FlightRecord(
                trace=request.trace or "",
                op=request.op,
                k=request.k,
                outcome=outcome,
                latency_s=latency,
                deadline_s=request.deadline_s,
                cache_hit=cache_hit,
                descent_depth=descent_depth,
                error=error,
            ),
            detail=capture.detail if capture is not None else None,
        )

    # -- dispatch ----------------------------------------------------------

    def handle_request(
        self, request: Request, deadline: Deadline | None = None
    ) -> dict:
        """Execute one request against the service; the response body.

        The single dispatch point of every operation, admin ops
        included.  Raises only :class:`~repro.errors.ReproError`
        subclasses — the error contract rjilint rule RJI013 checks
        statically.
        """
        service = self._service
        if request.op == "query":
            results = service.query(
                request.preference, request.k, deadline=deadline
            )
            return {"results": encode_results(results)}
        if request.op == "query_batch":
            batches = service.query_batch(
                request.preferences or (), request.k, deadline=deadline
            )
            return {
                "batches": [encode_results(results) for results in batches]
            }
        if request.op == "insert":
            insert_method = getattr(service, "insert", None)
            if insert_method is None:
                raise InvalidQueryError(
                    f"{type(service).__name__} is read-only: "
                    "it does not support insert"
                )
            assert request.tuple_ is not None
            tid, s1, s2 = request.tuple_
            applied = insert_method(RankTuple(tid, s1, s2))
            return {"applied": bool(applied)}
        if request.op == "delete":
            delete_method = getattr(service, "delete", None)
            if delete_method is None:
                raise InvalidQueryError(
                    f"{type(service).__name__} is read-only: "
                    "it does not support delete"
                )
            assert request.tid is not None
            return {"k_effective": int(delete_method(request.tid))}
        if request.op == "explain":
            explain_method = getattr(service, "explain", None)
            if explain_method is None:
                raise InvalidQueryError(
                    f"{type(service).__name__} does not support explain"
                )
            explain = explain_method(request.preference, request.k)
            return {
                "explain": {
                    "trace": explain.trace_id,
                    "angle": explain.angle,
                    "k": explain.k,
                    "k_bound": explain.k_bound,
                    "variant": explain.variant,
                    "n_regions": explain.n_regions,
                    "region_id": explain.region_id,
                    "region_size": explain.region_size,
                    "descent_depth": explain.descent_depth,
                    "tuples_evaluated": explain.tuples_evaluated,
                },
                "results": encode_results(list(explain.results)),
            }
        if request.op == "health":
            return {
                "health": {
                    "k_bound": service.k_bound,
                    "queue_depth": self.queue_depth,
                    "queue_bound": self.queue_bound,
                    **{f"serve.{key}": n for key, n in self.stats().items()},
                }
            }
        if request.op == "stats":
            return {"stats": self.stats_snapshot()}
        if request.op == "dump":
            return {"flight": self.flight.dump()}
        raise InvalidQueryError(f"unknown op {request.op!r}")

    def stats_snapshot(self) -> dict:
        """The ``stats`` op body: rolling window + lifetime + flight.

        When the served index exposes a hot-region cache (a ``cache``
        attribute with a ``snapshot()``), its counters ride along so a
        live ``top`` view can show the hit rate next to the percentiles.
        A service with a write buffer (a ``delta`` attribute) adds a
        ``writes`` block: buffered ops, how many hide an indexed tuple
        (charged) or are scored by reads (visible), and ``k_effective``.
        """
        snapshot = {
            "window": self.window.snapshot(),
            "lifetime": self.stats(),
            "queue_depth": self.queue_depth,
            "queue_bound": self.queue_bound,
            "flight": self.flight.summary(),
        }
        cache = getattr(self._service, "cache", None)
        if cache is not None and hasattr(cache, "snapshot"):
            snapshot["cache"] = cache.snapshot()
        delta = getattr(self._service, "delta", None)
        if delta is not None:
            snapshot["writes"] = {
                "delta_ops": delta.n_ops,
                "charged": delta.n_charged,
                "visible": delta.n_visible,
                "k_effective": getattr(self._service, "k_effective", None),
            }
        return snapshot
