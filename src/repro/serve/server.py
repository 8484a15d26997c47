"""A threaded socket server with admission control over any IndexService.

:class:`QueryServer` is the serving-side counterpart of the paper's
``O(log n + K)`` query bound: it amortizes the vectorized
``query_batch`` path across concurrent clients, and answers a lone
query on the thread that read it.  The moving parts:

* **threads** — one acceptor plus one reader per connection, speaking
  the length-prefixed JSON protocol of :mod:`repro.serve.protocol`
  through a buffered :class:`~repro.serve.protocol.FrameReader`.  There
  is no executor thread: a request is answered by a reader;
* **admission control** — a bounded queue of admitted, unanswered
  requests.  A reader holds at most one (it does not read its next
  frame until the last is answered), so ``queue_bound`` counts waiting
  connections.  When the queue is full the request is *shed
  immediately* with a typed :class:`~repro.errors.ServerOverloadedError`
  response — never a silent drop, never an unbounded backlog;
* **the executor role** — a plain lock.  The reader that admitted a
  request takes it and runs *rounds* — whatever is queued, up to
  ``batch_max``, oldest first — until its own request is answered, then
  goes back to its socket.  A reader that finds the role taken waits on
  the same lock and usually wakes to find its request answered inside
  the holder's round.  Nothing strands: every queued request has a
  reader that will not leave before it is answered, and a request is
  popped — under the queue lock, once — by exactly one round or by
  :meth:`QueryServer.close`;
* **request batching** — within a round, concurrent single ``query``
  requests with the same ``k`` are coalesced into one
  :meth:`~repro.core.index.RankedJoinIndex.query_batch` call and
  answered individually; a ``k`` with one query takes the scalar
  ``query`` path.  Batch answers are bit-identical to per-query answers
  by the core's construction;
* **deadlines** — a request's ``deadline_ms`` arms a
  :class:`~repro.core.deadline.Deadline` at admission.  It bounds the
  queue wait of coalesced singles (an expired request is answered with
  :class:`~repro.errors.QueryTimeoutError`, not executed) and is passed
  through to the service call for directly-executed operations;
* **metrics** — ``serve.*`` counters and series through any
  :class:`~repro.obs.Recorder` (queue depth at every admission, size
  of every coalesced batch, per-request latency), Prometheus-exportable
  via :func:`repro.obs.prometheus_text`;
* **tracing** — every request executes inside a
  :class:`~repro.obs.context.trace_scope`, so each recorder event it
  touches carries its trace id (a coalesced batch carries the whole
  ``traces`` list); requests without a client id get a server-assigned
  one (``serve.untraced`` counts them) and the id is echoed on the
  response;
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
from collections import deque
from dataclasses import dataclass, field, replace
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


@dataclass(slots=True, eq=False)
class _Connection:
    """One accepted client socket plus its response-write lock."""

    sock: socket.socket
    send_lock: threading.Lock = field(default_factory=threading.Lock)
    alive: bool = True


@dataclass(slots=True)
class _Pending:
    """One admitted request waiting for a round."""

    conn: _Connection
    request: Request
    deadline: Deadline | None
    enqueued_at: float
    #: Popped from the queue: a round (or ``close``) owns the answer.
    taken: bool = False


class QueryServer:
    """Serve an :class:`~repro.serve.service.IndexService` over TCP.

    ``queue_bound`` caps the admission queue (the backpressure knob);
    ``batch_max`` caps how many queued requests one round drains.
    ``port=0`` binds an ephemeral port — read the bound address from
    :attr:`address` after :meth:`start`.
    """

    def __init__(
        self,
        service: IndexService,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        queue_bound: int = 1024,
        batch_max: int = 64,
        recorder: Recorder = NULL_RECORDER,
        trace_seed: int | None = None,
        window: RollingWindow | None = None,
        flight: FlightRecorder | None = None,
        flight_path: str | Path | None = None,
    ):
        if queue_bound < 1:
            raise ServerError(f"queue_bound must be >= 1, got {queue_bound}")
        if batch_max < 1:
            raise ServerError(f"batch_max must be >= 1, got {batch_max}")
        self._service = service
        self._host = host
        self._port = port
        self.queue_bound = queue_bound
        self.batch_max = batch_max
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
        # Admitted, unanswered requests, oldest first.
        self._queue: deque[_Pending] = deque()  # rjilint: guarded-by(_queue_lock)
        self._queue_lock = threading.Lock()
        # The executor role: guards no field, serializes rounds.  Held
        # for a whole round, service call included; taken before
        # _queue_lock (and every other lock here), never while one is
        # held.
        self._role_lock = threading.Lock()
        self._conns: set[_Connection] = set()
        self._conns_lock = threading.Lock()
        self._stats_lock = threading.Lock()
        self._counts = {
            "connections": 0,
            "requests": 0,
            "responses": 0,
            "errors": 0,
            "shed": 0,
            "batches": 0,
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
        """Stop serving: drain the queue with typed errors, join threads.

        An *unclean* shutdown — requests still queued, or any non-ok
        outcome on record — writes the flight-recorder dump to the
        configured ``flight_path`` so the evidence survives the process.
        """
        if self._stopping:
            return
        self._stopping = True
        # Drain, never silently drop.  _admit refuses under the same
        # lock once _stopping is set, so nothing is queued after this;
        # a round already running finishes and answers what it popped.
        with self._queue_lock:
            abandoned = self._take_round(len(self._queue))
        for pending in abandoned:
            self._respond_error(pending, ServerError("server is shutting down"))
        if self._listener is not None:
            _hang_up(self._listener)
        # Acceptor first (no new connections after it); then the round
        # in flight, if any, gets to answer over sockets that are still
        # open, as the typed errors above did; only then are the readers
        # woken, so every thread this server started is dead on return.
        self._threads[0].join(timeout=5.0)
        if self._role_lock.acquire(timeout=5.0):
            self._role_lock.release()
        with self._conns_lock:
            conns = list(self._conns)
        for conn in conns:
            self._drop_connection(conn)
        for thread in self._threads[1:]:
            thread.join(timeout=5.0)
        self._maybe_dump_flight(len(abandoned))

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
        with self._queue_lock:
            return len(self._queue)

    # -- connection handling ----------------------------------------------

    def _accept_loop(self) -> None:
        assert self._listener is not None
        while not self._stopping:
            try:
                sock, _peer = self._listener.accept()
            except OSError:
                break  # listener closed by close()
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn = _Connection(sock=sock)
            with self._conns_lock:
                self._conns.add(conn)
            self._count("connections")
            thread = threading.Thread(
                target=self._serve_connection,
                args=(conn,),
                name="serve-conn",
                daemon=True,
            )
            thread.start()
            # close() joins these; readers that already hung up are
            # forgotten here so a long-lived server's list stays small.
            self._threads[1:] = [
                t for t in self._threads[1:] if t.is_alive()
            ] + [thread]

    def _drop_connection(self, conn: _Connection) -> None:
        conn.alive = False
        _hang_up(conn.sock)
        with self._conns_lock:
            self._conns.discard(conn)

    def _send(self, conn: _Connection, response: dict) -> None:
        """Write one response frame; a vanished client just drops out."""
        if not conn.alive:
            return
        try:
            with conn.send_lock:
                write_frame(conn.sock, response)
        except ReproError:
            self._drop_connection(conn)
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

    def _serve_connection(self, conn: _Connection) -> None:
        reader = FrameReader(conn.sock)
        try:
            while not self._stopping:
                try:
                    payload = reader.read()
                except InvalidQueryError as exc:
                    # The stream may be out of sync after a framing
                    # violation: answer typed, then hang up.
                    self._count("bad_frames")
                    self._send(conn, self._error_response(0, exc))
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
                    self._send(conn, self._error_response(rid, exc))
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
                    self.window.record(0.0, "error")
                    self.flight.record(
                        FlightRecord(
                            trace=request.trace,
                            op=request.op,
                            k=request.k,
                            outcome="error",
                            latency_s=0.0,
                            deadline_s=request.deadline_s,
                            error=type(exc).__name__,
                        )
                    )
                    self._send(
                        conn,
                        self._error_response(rid, exc, request.trace),
                    )
                    continue
                self._count("requests")
                if request.op in ADMIN_OPS:
                    self._send(conn, self._admin_response(request))
                    continue
                pending = _Pending(
                    conn=conn,
                    request=request,
                    deadline=Deadline.of(request.deadline_s),
                    enqueued_at=time.perf_counter(),
                )
                with trace_scope(request.trace):
                    admitted = self._admit(pending)
                    if not admitted:
                        self._count("shed")
                        self._finish(pending, "shed")
                        self._respond_error(
                            pending,
                            ServerOverloadedError(
                                "admission queue is full "
                                f"({self.queue_bound} pending); retry "
                                "with backoff"
                            ),
                        )
                if admitted:
                    self._run_rounds_until_taken(pending)
        finally:
            self._drop_connection(conn)

    def _admin_response(self, request: Request) -> dict:
        """Answer an admin op inline (reader thread, never queued)."""
        if request.op == "health":
            return self._health_response(request)
        body: dict = {"id": request.rid, "ok": True, "trace": request.trace}
        if request.op == "stats":
            body["stats"] = self.stats_snapshot()
        else:
            body["flight"] = self.flight.dump()
        return body

    def _validate(self, request: Request) -> None:
        """Reject bad ``k`` at admission so batches never mix-fail.

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

    # -- admission ---------------------------------------------------------

    def _admit(self, pending: _Pending) -> bool:
        """Enqueue within the bound; ``False`` sheds the request."""
        with self._queue_lock:
            if self._stopping or len(self._queue) >= self.queue_bound:
                return False
            self._queue.append(pending)
            depth = len(self._queue)
        if self._recorder.enabled:
            self._recorder.observe("serve.queue_depth", depth)
        return True

    # -- execution ---------------------------------------------------------

    def _take_round(self, limit: int) -> list[_Pending]:
        """Pop up to ``limit`` requests, oldest first (queue lock held)."""
        round_ = [
            self._queue.popleft() for _ in range(min(limit, len(self._queue)))
        ]
        for pending in round_:
            pending.taken = True
        return round_

    def _run_rounds_until_taken(self, pending: _Pending) -> None:
        """Hold the executor role until ``pending`` has been answered.

        With the role held no round is running, so ``taken`` means
        answered — by an earlier holder's round, or by :meth:`close` —
        and not taken means still queued: this reader's rounds reach it
        after at most ``queue_bound / batch_max`` of them.
        """
        with self._role_lock:
            while not pending.taken:
                with self._queue_lock:
                    round_ = self._take_round(self.batch_max)
                self._execute_round(round_)

    def _execute_round(self, round_: list[_Pending]) -> None:
        """Answer one drained round: coalesce singles, dispatch the rest."""
        singles: dict[int, list[_Pending]] = {}
        direct: list[_Pending] = []
        for pending in round_:
            if pending.deadline is not None and pending.deadline.expired():
                self._finish(pending, "timeout")
                self._respond_error(
                    pending,
                    QueryTimeoutError(
                        "request deadline of "
                        f"{pending.deadline.timeout_s:.6g}s expired in "
                        "the admission queue"
                    ),
                )
                continue
            if pending.request.op == "query":
                singles.setdefault(pending.request.k, []).append(pending)
            else:
                direct.append(pending)
        for k, group in singles.items():
            if len(group) == 1:
                # Nothing to amortize: a batch of one pays query_batch's
                # NumPy set-up for one query's work; the scalar path
                # answers bit-identically without it.
                self._execute_direct(group[0])
            else:
                self._execute_singles(k, group)
        for pending in direct:
            self._execute_direct(pending)

    def _execute_singles(self, k: int, group: list[_Pending]) -> None:
        """One vectorized ``query_batch`` call for coalesced singles.

        The whole call executes under *all* member trace ids at once, so
        every event it emits (``serve.batches``, the core's
        ``rji.batch.*``) carries a ``traces`` list naming exactly which
        requests the batch amortized.
        """
        capture = RequestCapture()
        traces = [p.request.trace for p in group]
        with trace_scope(*traces, capture=capture):
            self._count("batches")
            if self._recorder.enabled:
                self._recorder.observe("serve.batch_size", len(group))
            preferences = [p.request.preference for p in group]
            try:
                with self._recorder.span(
                    "serve.batch", {"k": k, "size": len(group)}
                ):
                    batches = self._service.query_batch(preferences, k)
            except ReproError:
                # One failing backend call must not fail the whole
                # batch: retry per request so each gets its own typed
                # outcome (and its own single-id trace scope).
                for pending in group:
                    self._execute_direct(pending)
                return
            for pending, results in zip(group, batches):
                self._finish(pending, "ok", capture=capture, batched=True)
                self._respond_ok(
                    pending, {"results": encode_results(results)}
                )

    def _execute_direct(self, pending: _Pending) -> None:
        request = pending.request
        capture = RequestCapture()
        with trace_scope(request.trace, capture=capture):
            try:
                with self._recorder.span(
                    "serve.request", {"op": request.op, "k": request.k}
                ):
                    response = self.handle_request(request, pending.deadline)
            except ReproError as exc:
                self._finish(pending, "error", exc=exc, capture=capture)
                self._respond_error(pending, exc)
                return
            self._finish(pending, "ok", capture=capture)
            self._respond_ok(pending, response)

    def _finish(
        self,
        pending: _Pending,
        outcome: str,
        *,
        exc: BaseException | None = None,
        capture: RequestCapture | None = None,
        batched: bool = False,
    ) -> None:
        """Record one resolved request: its one latency, everywhere.

        The same number goes to the window, the flight record and (for
        answered requests) the ``serve.latency`` series, which is
        emitted first so the request's own capture still sees it.
        """
        if outcome == "error" and isinstance(exc, QueryTimeoutError):
            outcome = "timeout"
        latency = time.perf_counter() - pending.enqueued_at
        request = pending.request
        if outcome == "ok" and self._recorder.enabled:
            self._recorder.observe("serve.latency", latency)
        self.window.record(latency, outcome)
        cache_hit: bool | None = None
        descent_depth: int | None = None
        detail: dict | None = None
        if capture is not None:
            detail = capture.detail()
            if not batched:
                # Per-request facts are only exact outside coalescing:
                # a group capture mixes every member's events together.
                if capture.total("rji.cache.hits") or capture.total(
                    "rji.cache.misses"
                ):
                    cache_hit = capture.total("rji.cache.hits") > 0
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
                batched=batched,
                error=f"{type(exc).__name__}: {exc}" if exc else None,
            ),
            detail=detail,
        )

    def _respond_error(self, pending: _Pending, exc: BaseException) -> None:
        request = pending.request
        self._send(
            pending.conn,
            self._error_response(request.rid, exc, request.trace),
        )

    def _respond_ok(self, pending: _Pending, body: dict) -> None:
        self._send(
            pending.conn,
            {
                "id": pending.request.rid,
                "ok": True,
                "trace": pending.request.trace,
                **body,
            },
        )

    # -- dispatch ----------------------------------------------------------

    def handle_request(
        self, request: Request, deadline: Deadline | None = None
    ) -> dict:
        """Execute one request against the service; the response body.

        The single dispatch point of every directly-executed operation
        (coalesced singles take the ``query_batch`` shortcut above but
        fall back here per request on failure).  Raises only
        :class:`~repro.errors.ReproError` subclasses — the error
        contract rjilint rule RJI013 checks statically.
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
            return dict(self._health_response(request))
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

    def _health_response(self, request: Request) -> dict:
        counts = self.stats()
        return {
            "id": request.rid,
            "ok": True,
            "trace": request.trace,
            "health": {
                "k_bound": self._service.k_bound,
                "queue_depth": self.queue_depth,
                "queue_bound": self.queue_bound,
                "batch_max": self.batch_max,
                **{f"serve.{key}": value for key, value in counts.items()},
            },
        }
