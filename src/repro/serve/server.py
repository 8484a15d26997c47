"""A threaded socket server with admission control over any IndexService.

:class:`QueryServer` puts the paper's ``O(log n + K)`` query on a
socket.  A region holds ~K rows, so there is nothing for a server to
amortize across requests (``query_batch`` itself is a loop over
``query``); what is left to get right is per-request latency and
failure isolation.  Hence one rule: **a request
is one reader's work**, from ``recv`` to ``sendall``.  The moving parts:

* **threads** — one acceptor plus one reader per connection, speaking
  the length-prefixed protocol of :mod:`repro.serve.protocol` through a
  buffered :class:`~repro.serve.protocol.FrameReader`.  A frame's first
  byte picks its codec: a binary ``query`` is answered with a binary
  result frame, a JSON object in JSON (a JSON ``query`` included).  The
  reader that read a request admits it, executes it, records it and
  writes the response to its own socket; no thread ever touches another
  connection's request or socket (:meth:`QueryServer.close` only hangs
  up);
* **admission control** — a counter of service calls in flight,
  capped by ``queue_bound``.  A reader holds at most one (it does not
  read its next frame until the last is answered), so the bound counts
  busy connections.  Past it the request is *shed immediately* with a
  typed :class:`~repro.errors.ServerOverloadedError` response — never a
  silent drop, never an unbounded backlog;
* **no server-side lock around the service** — service calls run
  concurrently, each on its own reader.  The front doors are
  thread-safe on their own terms: reads answer from a published read
  view and take no lock, writes serialize on their write path's one
  writer lock, so only a writer ever waits, and only for another
  writer.  Nothing strands: a reader answers whatever its service call
  raises — typed or not — before it returns to ``recv``;
* **deadlines** — a request's ``deadline_ms`` arms a
  :class:`~repro.core.deadline.Deadline` at admission that is passed
  through to the service call;
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
  unclean :meth:`close` writes the dump to ``flight_path``.  A request
  gets a :class:`~repro.obs.RequestCapture` only when something besides
  the server can emit into it — an enabled recorder, or a caller's
  :class:`~repro.obs.ContextRecorder` shared with the index.  Otherwise
  (the default) a healthy request costs one window record and one
  flight ring slot, and a record the flight recorder keeps (slowest or
  failed) gets its detail built from what the server holds.

The server fails *loudly and typed*: every request gets exactly one
response, and every error response carries a
:class:`~repro.errors.ReproError` subclass name the client re-raises.
"""

from __future__ import annotations

import contextlib
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
    decode_json,
    decode_query,
    decode_request,
    encode_error,
    encode_query_result,
    encode_results,
    is_json,
    request_id,
    write_frame,
)
from .service import IndexService

__all__ = ["QueryServer"]

_NO_SPAN = contextlib.nullcontext()


def _held_detail(request: Request, depth: int, latency: float, ok: bool):
    """A kept record's detail, rebuilt from what the server held.

    The events are the ones the server's own recorder calls would have
    put in a capture — the queue depth at admission, the request span,
    and for an answered request its latency — for a server that builds
    no capture because nothing else could have emitted into it.
    """
    capture = RequestCapture()
    trace = {"trace": request.trace}
    if depth:
        capture.add("observe", "serve.queue_depth", depth, trace)
        capture.add(
            "span",
            "serve.request",
            None,
            {"op": request.op, "k": request.k, **trace},
        )
    if ok:
        capture.add("observe", "serve.latency", latency, trace)
    return capture.detail()


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
    time, start to finish; readers call the service concurrently.
    ``queue_bound`` caps how many calls may be in flight at once (the
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
        # A per-request capture only pays when something besides this
        # server can emit into it: an enabled recorder, or a caller's
        # ContextRecorder (which the index may share).  When true, the
        # recorder is also enabled inside every request scope.
        self._capturing = recorder.enabled or recorder is self._recorder
        self._trace_ids = TraceIdGenerator("s", seed=trace_seed)
        #: Rolling-window telemetry behind the ``stats`` wire op.
        self.window = window if window is not None else RollingWindow()
        #: The always-on flight recorder behind the ``dump`` wire op.
        self.flight = flight if flight is not None else FlightRecorder()
        self._flight_path = Path(flight_path) if flight_path else None
        # Service calls admitted and not yet answered, one per busy reader.
        self._in_flight = 0  # rjilint: guarded-by(_queue_lock)
        self._queue_lock = threading.Lock()
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
        """Stop serving: calls in flight are answered, threads end.

        An *unclean* shutdown — any non-ok outcome on record — writes the
        flight-recorder dump to the configured ``flight_path`` so the
        evidence survives the process.
        """
        if self._stopping:
            return
        # Under the queue lock, where admission reads it: a request
        # admitted before this point is in flight and gets its answer,
        # every later one is refused typed.
        with self._queue_lock:
            self._stopping = True
        if self._listener is not None:
            _hang_up(self._listener)
        # Acceptor first (no new connections after it).  Then every
        # reader is woken with SHUT_RD, which leaves it its write half:
        # one parked in recv() sees EOF, one inside the service answers
        # when the call returns; each hangs up its own socket on the way
        # out, so every thread this server started is dead on return.
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
        self._maybe_dump_flight()

    def _maybe_dump_flight(self) -> None:
        """Write the flight dump at shutdown when something went wrong."""
        if self._flight_path is None:
            return
        dump = self.flight.dump()
        outcomes = dump["outcomes"]
        if not any(
            outcomes.get(name, 0) for name in ("error", "shed", "timeout")
        ):
            return
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
        """Service calls in flight: admitted and not yet answered."""
        with self._queue_lock:
            return self._in_flight

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

    def _send(self, sock: socket.socket, response: dict | bytes) -> None:
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
                    frame = reader.read_body()
                    if frame is not None and is_json(frame):
                        frame = decode_json(frame)
                except InvalidQueryError as exc:
                    # The stream may be out of sync after a framing
                    # violation: answer typed, then hang up.
                    self._count("bad_frames")
                    self._send(sock, self._error_response(0, exc))
                    return
                except ReproError:
                    return  # peer vanished mid-frame
                if frame is None:
                    return  # clean EOF
                self._send(sock, self._respond(frame))
        finally:
            self._drop_connection(sock)

    def _respond(self, frame: dict | bytearray) -> dict | bytes:
        """The response to one frame: a JSON object or a binary query."""
        binary = not isinstance(frame, dict)
        try:
            request = decode_query(frame) if binary else decode_request(frame)
        except ReproError as exc:
            self._count("bad_frames")
            return self._error_response(request_id(frame), exc)
        if request.trace is None:
            # Old clients stay valid: the server assigns an id so the
            # request is still attributable everywhere.
            self._count("untraced")
            request = replace(request, trace=self._trace_ids.next())
        try:
            self._validate(request)
        except ReproError as exc:
            # A rejected request is still a request someone sent: it
            # gets a flight record (and its trace in the error response)
            # so the dump explains the rejection.
            self._count("bad_frames")
            self._finish(request, time.perf_counter(), exc=exc)
            return self._error_response(request.rid, exc, request.trace)
        self._count("requests")
        return self._answer(request, binary)

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

    def _answer(self, request: Request, binary: bool = False) -> dict | bytes:
        """The response to one valid request, telemetry recorded.

        Admin ops are answered at once, never admitted: they must work
        while every admission slot is busy.  Everything else is admitted
        and executed inside one trace scope (with one capture when the
        server builds captures).  Whatever the service raises is
        answered and recorded — a :class:`~repro.errors.ReproError`
        under its own name, anything else as a
        :class:`~repro.errors.ServerError` naming the class — so one
        request's failure costs nobody else a response, and the
        connection keeps serving.  A ``binary`` query is answered with
        a binary result frame, everything else (errors included) in
        JSON.
        """
        if request.op in ADMIN_OPS:
            body = self.handle_request(request)
        else:
            enqueued_at = time.perf_counter()
            capture = RequestCapture() if self._capturing else None
            deadline = Deadline.of(request.deadline_s)
            depth = 0
            with trace_scope(request.trace, capture=capture):
                try:
                    depth = self._admit()
                    body = self._execute(request, deadline, binary)
                except Exception as exc:
                    self._finish(request, enqueued_at, depth, capture, exc)
                    return self._error_response(
                        request.rid, exc, request.trace
                    )
                self._finish(request, enqueued_at, depth, capture)
            if binary:
                return encode_query_result(request.rid, request.trace, body)
        return {"id": request.rid, "ok": True, "trace": request.trace, **body}

    def _admit(self) -> int:
        """Count this request in within the bound, or shed it typed.

        Returns the number in flight it was admitted at.
        """
        with self._queue_lock:
            if self._stopping:
                raise ServerError("server is shutting down")
            depth = self._in_flight + 1
            if depth <= self.queue_bound:
                self._in_flight = depth
        if depth > self.queue_bound:
            self._count("shed")
            raise ServerOverloadedError(
                f"admission queue is full ({self.queue_bound} in flight); "
                "retry with backoff"
            )
        if self._capturing:
            self._recorder.observe("serve.queue_depth", depth)
        return depth

    def _execute(
        self, request: Request, deadline: Deadline | None, binary: bool
    ):
        """Run an admitted request, then give its admission slot back.

        Returns the response body, or for a ``binary`` query the
        service's results; raises whatever the service raised.
        """
        span = (
            self._recorder.span(
                "serve.request", {"op": request.op, "k": request.k}
            )
            if self._capturing
            else _NO_SPAN
        )
        with span:
            try:
                if binary:
                    return self._service.query(
                        request.preference, request.k, deadline=deadline
                    )
                return self.handle_request(request, deadline)
            finally:
                with self._queue_lock:
                    self._in_flight -= 1

    def _finish(
        self,
        request: Request,
        enqueued_at: float,
        depth: int = 0,
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
            if self._capturing:
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
            steps = capture.last_value("rji.descent_steps")
            if steps is not None:
                descent_depth = int(steps)
            detail = capture.detail
        else:

            def detail() -> dict:
                return _held_detail(request, depth, latency, exc is None)

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
            detail=detail,
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
        (charged) or are scored by reads (visible), and ``k_effective``
        — all four from one frozen view of the buffer, so they agree
        even while another connection writes.
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
            view = delta.view()
            snapshot["writes"] = {
                "delta_ops": view.n_ops,
                "charged": view.n_charged,
                "visible": view.n_visible,
                "k_effective": max(0, self._service.k_bound - view.n_charged),
            }
        return snapshot
