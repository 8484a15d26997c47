"""End-to-end server tests: thread confinement, admission control, deadlines."""

import json
import socket
import struct
import sys
import threading
import time

import numpy as np
import pytest

from repro.core.index import RankedJoinIndex
from repro.core.tuples import RankTuple, RankTupleSet
from repro.datagen.preferences import random_preferences
from repro.errors import (
    InvalidQueryError,
    QueryTimeoutError,
    ServerConnectionError,
    ServerError,
    ServerOverloadedError,
)
from repro.obs import FlightRecorder, current_trace_id
from repro.serve import Client, QueryServer
from repro.serve import server as server_module
from repro.serve.protocol import (
    decode_query,
    decode_query_result,
    read_frame,
    write_frame,
)


def _tuples(n=400, seed=1):
    rng = np.random.default_rng(seed)
    return RankTupleSet.from_tuples(
        zip(range(n), rng.random(n), rng.random(n))
    )


@pytest.fixture(scope="module")
def index():
    return RankedJoinIndex.build(_tuples(), 12)


@pytest.fixture()
def server(index):
    with QueryServer(index, port=0, queue_bound=64) as srv:
        yield srv


#: Fails a test in which any thread ends on an uncaught exception.
no_thread_deaths = pytest.mark.filterwarnings(
    "error::pytest.PytestUnhandledThreadExceptionWarning"
)


@pytest.fixture()
def client(server):
    host, port = server.address
    with Client(host, port) as c:
        yield c


def _in_threads(target, n):
    """``target(slot)`` on ``n`` threads at once; ``repr`` of what they raised."""
    raised = []

    def run(slot):
        try:
            target(slot)
        except Exception as exc:  # noqa: BLE001 - returned for the assert
            raised.append(repr(exc))

    threads = [threading.Thread(target=run, args=(slot,)) for slot in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60.0)
    assert not any(t.is_alive() for t in threads)
    return raised


def _serve_threads(before):
    return [
        t.name
        for t in set(threading.enumerate()) - set(before)
        if t.name.startswith("serve-")
    ]


class TestQueries:
    def test_query_matches_local(self, index, client):
        for preference in random_preferences(25, seed=5):
            assert client.query(preference, 6) == index.query(preference, 6)

    def test_query_batch_matches_local(self, index, client):
        preferences = random_preferences(40, seed=6)
        assert client.query_batch(preferences, 6) == index.query_batch(
            preferences, 6
        )

    def test_explain(self, index, client):
        explain = client.explain(0.7, 4)
        local = index.explain(0.7, 4)
        assert explain["k"] == 4
        assert explain["region_id"] == local.region_id
        assert explain["results"] == list(local.results)

    def test_health(self, index, client):
        health = client.health()
        assert health["k_bound"] == index.k_bound
        assert health["queue_bound"] == 64
        assert health["serve.requests"] >= 0

    def test_invalid_k_is_typed(self, client):
        with pytest.raises(InvalidQueryError):
            client.query(0.5, 0)
        with pytest.raises(InvalidQueryError):
            client.query(0.5, 13)

    def test_expired_deadline_is_typed(self, client):
        with pytest.raises(QueryTimeoutError):
            client.query(0.5, 5, deadline=1e-9)

    def test_sequential_requests_reuse_the_connection(self, server, client):
        for _ in range(10):
            client.query(0.5, 3)
        assert server.stats()["connections"] == 1


class TestConcurrency:
    def test_concurrent_clients_get_bit_identical_answers(
        self, index, server
    ):
        def worker(seed):
            with Client(*server.address) as c:
                for preference in random_preferences(30, seed=seed):
                    assert c.query(preference, 6) == index.query(preference, 6)

        assert _in_threads(worker, 6) == []

    def test_one_client_is_thread_safe(self, index, server, client):
        def worker(seed):
            for preference in random_preferences(20, seed=seed):
                assert client.query(preference, 6) == index.query(preference, 6)

        assert _in_threads(worker, 4) == []


class _StallingIndex:
    """An IndexService whose queries block until released.

    ``calls`` counts the ``query`` calls that have arrived (stalled ones
    included), so a request executed twice (or never) shows.
    """

    def __init__(self, index, gate):
        self._index = index
        self._gate = gate
        self.k_bound = index.k_bound
        self.query_batch = index.query_batch
        self.calls = 0
        self._lock = threading.Lock()

    def query(self, preference, k, *, deadline=None):
        with self._lock:
            self.calls += 1
        self._gate.wait(timeout=30.0)
        return self._index.query(preference, k, deadline=deadline)


def _wait_until(condition, timeout_s=10.0):
    deadline = time.monotonic() + timeout_s
    while not condition() and time.monotonic() < deadline:
        time.sleep(0.002)
    assert condition()


class _StalledClients:
    """``1 + n_others`` clients, each with one call stalled in the service.

    Each client sends one ``query`` (angle ``0.1 * (slot + 1)``, ``k=5``)
    from its own thread and records its answer or its exception.
    Nothing serializes service calls, so all of them are in flight at
    once.
    """

    def __init__(self, srv, stalling, n_others):
        host, port = srv.address
        self.angles = [0.1 * (slot + 1) for slot in range(n_others + 1)]
        self.outcomes = [None] * len(self.angles)
        self.clients = [Client(host, port) for _ in self.angles]
        for client in self.clients:
            client.k_bound  # the health round trip happens before the stall
        self.threads = [
            threading.Thread(target=self._ask, args=(slot,))
            for slot in range(len(self.angles))
        ]
        calls = stalling.calls
        for thread in self.threads:
            thread.start()
        _wait_until(lambda: stalling.calls == calls + len(self.angles))
        assert srv.queue_depth == len(self.angles)

    def _ask(self, slot):
        try:
            self.outcomes[slot] = self.clients[slot].query(self.angles[slot], 5)
        except Exception as exc:  # noqa: BLE001 - recorded for assert
            self.outcomes[slot] = exc

    def join(self):
        for thread in self.threads:
            thread.join(timeout=30.0)
        assert not any(t.is_alive() for t in self.threads)
        for client in self.clients:
            client.close()


class TestExecutorRole:
    """The reader that admits a request executes it; nobody else has to,
    and no lock in the server makes one request wait for another."""

    def test_no_request_strands_when_the_role_holder_leaves(self, index):
        # Seven calls stalled in the service at once (no executor role
        # serializes them): releasing the stall answers every one, each
        # on its own reader, and the admission count drains to zero.
        gate = threading.Event()
        stalling = _StallingIndex(index, gate)
        with QueryServer(stalling, port=0) as srv:
            stalled = _StalledClients(srv, stalling, n_others=6)
            gate.set()
            stalled.join()
            assert srv.queue_depth == 0
        assert stalled.outcomes == [
            index.query(angle, 5) for angle in stalled.angles
        ]
        assert stalling.calls == 7
        stats = srv.stats()
        assert stats["responses"] == stats["requests"]
        assert stats["errors"] == 0

    def test_every_request_runs_on_the_reader_that_read_it(
        self, index, monkeypatch
    ):
        # Decode, service call, flight record and response write of one
        # request are keyed by its trace id; each must have happened on
        # one and the same ``serve-conn`` thread, once.
        seen = {"decode": [], "service": [], "flight": [], "write": []}
        lock = threading.Lock()

        def spy(stage, fn, trace_of, label=None):
            def spied(*args, **kwargs):
                thread = threading.current_thread()
                with lock:
                    seen[stage].append(
                        (trace_of(*args), thread.ident, thread.name, label)
                    )
                return fn(*args, **kwargs)

            return spied

        class RecordingIndex:
            k_bound = index.k_bound

            def __getattr__(self, op):  # query / query_batch / explain
                return spy(
                    "service", getattr(index, op), lambda *_: current_trace_id(), op
                )

        flight = FlightRecorder()
        flight.record = spy(
            "flight", flight.record, lambda record, detail=None: record.trace
        )
        # query travels binary, explain and query_batch as JSON: both
        # decoders and both kinds of response are watched.
        for decoder, trace_of in (
            ("decode_request", lambda p: p.get("trace")),
            ("decode_query", lambda body: decode_query(body).trace),
        ):
            monkeypatch.setattr(
                server_module,
                decoder,
                spy("decode", getattr(server_module, decoder), trace_of),
            )
        monkeypatch.setattr(
            server_module,
            "write_frame",
            spy(
                "write",
                write_frame,
                lambda sock, r: (
                    r.get("trace")
                    if isinstance(r, dict)
                    else decode_query_result(r)[1]
                ),
            ),
        )
        n_clients = 6
        wire_ops = {}  # trace -> (client slot, the op it sent)
        connected = threading.Barrier(n_clients)

        def worker(slot):
            with Client(*srv.address, trace_seed=slot) as c:
                c._k_bound = index.k_bound  # no health round trip
                prefs = random_preferences(30, seed=slot)
                for i, p in enumerate(prefs):
                    if i == 1:  # six readers alive at once: no ident reuse
                        connected.wait(timeout=30.0)
                    op = ("query", "explain", "query_batch")[i % 3]
                    if op == "query":
                        assert c.query(p, 5) == index.query(p, 5)
                    elif op == "explain":
                        assert c.explain(p, 5)["results"] == index.query(p, 5)
                    else:
                        assert c.query_batch([p, prefs[0]], 5) == (
                            index.query_batch([p, prefs[0]], 5)
                        )
                    with lock:
                        wire_ops[c.last_trace_id] = (slot, op)

        with QueryServer(RecordingIndex(), port=0, flight=flight) as srv:
            assert _in_threads(worker, n_clients) == []
        assert len(wire_ops) == n_clients * 30
        # every stage saw every request exactly once ...
        for stage, notes in seen.items():
            assert sorted(n[0] for n in notes) == sorted(wire_ops), stage
        # ... on a serve-conn thread, the same one at every stage ...
        home = {n[0]: n[1] for n in seen["decode"]}
        for notes in seen.values():
            assert {n[2] for n in notes} == {"serve-conn"}
            assert all(home[n[0]] == n[1] for n in notes)
        # ... one reader per connection ...
        readers = {(slot, home[trace]) for trace, (slot, _) in wire_ops.items()}
        assert len(readers) == len(set(home.values())) == n_clients
        # ... and query_batch ran for the query_batch wire op only.
        assert {n[0]: n[3] for n in seen["service"]} == {
            trace: op for trace, (_, op) in wire_ops.items()
        }

    @no_thread_deaths
    def test_untyped_failure_strands_no_other_request(self, index):
        # c's query is stalled in the service; a's insert (raises
        # struct.error, as the WAL encoder does on an unencodable tid)
        # and b's explain are answered meanwhile — c's stall delays
        # nobody.  a's failure is a's alone: typed, recorded, and a's
        # connection keeps serving.
        gate = threading.Event()

        class Poisoned(_StallingIndex):
            def insert(self, tuple_):
                raise struct.error("'q' format requires an int64")

            explain = index.explain

        before = threading.enumerate()
        service = Poisoned(index, gate)
        asks = [
            lambda client: client.query(0.3, 5),  # c
            lambda client: client.insert(RankTuple(7001, 0.5, 0.5)),  # a
            lambda client: client.explain(0.7, 4)["results"],  # b
        ]
        outcomes = [None] * 3
        a_again = []

        def ask(slot):
            if slot:  # a and b: once c is stalled in the service
                _wait_until(lambda: service.calls == 1)
            with Client(*srv.address, request_timeout_s=5.0) as client:
                client._k_bound = index.k_bound  # no health round trip
                try:
                    outcomes[slot] = asks[slot](client)
                except ServerError as exc:
                    outcomes[slot] = exc
                    a_again.append(asks[2](client))

        with QueryServer(service, port=0) as srv:
            opener = threading.Thread(
                target=lambda: (
                    _wait_until(
                        lambda: outcomes[2] is not None and a_again != []
                    ),
                    gate.set(),
                )
            )
            opener.start()
            assert _in_threads(ask, 3) == []
            opener.join(timeout=10.0)
        stats = srv.stats()  # closed: every reader has finished counting
        assert outcomes[0] == index.query(0.3, 5)
        assert outcomes[2] == index.query(0.7, 4)
        assert type(outcomes[1]) is ServerError
        assert str(outcomes[1]).startswith("error:")  # struct.error
        assert a_again == [index.query(0.7, 4)]
        (record,) = srv.flight.dump()["errors"]
        assert record["outcome"] == "error" and record["op"] == "insert"
        assert record["error"].startswith("error:") and "insert" in record["error"]
        assert srv.window.snapshot()["outcomes"]["error"] == 1
        assert stats["responses"] == stats["requests"] == 4
        assert stats["errors"] == 1
        assert _serve_threads(before) == []

    def test_role_handoff_under_thread_switch_pressure(self, index):
        # More readers than cores, all calling the service at once, and
        # a 10 us switch interval: every request is still executed
        # exactly once and answered correctly.
        gate = threading.Event()
        gate.set()
        stalling = _StallingIndex(index, gate)

        def worker(seed):
            with Client(*srv.address) as c:
                for i, p in enumerate(random_preferences(60, seed=seed)):
                    k = 3 + (i + seed) % 3
                    assert c.query(p, k) == index.query(p, k)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with QueryServer(stalling, port=0) as srv:
                assert _in_threads(worker, 8) == []
                assert srv.queue_depth == 0
        finally:
            sys.setswitchinterval(interval)
        assert stalling.calls == 8 * 60
        stats = srv.stats()
        assert stats["responses"] == stats["requests"] == 8 * 60 + 8

    def test_pipelined_frames_are_answered_in_order(self, index, server):
        frames = b""
        for rid, (op, k) in enumerate(
            [("query", 3), ("explain", 4), ("query", 3), ("query", 5)]
        ):
            body = json.dumps(
                {"op": op, "id": rid, "preference": 0.7, "k": k}
            ).encode()
            frames += len(body).to_bytes(4, "big") + body
        with socket.create_connection(server.address, timeout=10.0) as sock:
            sock.sendall(frames)  # one segment: the reader buffers all four
            responses = [read_frame(sock) for _ in range(4)]
        assert [r["id"] for r in responses] == [0, 1, 2, 3]
        assert all(r["ok"] for r in responses)
        assert [len(r["results"]) for r in responses] == [3, 4, 3, 5]


class TestAdmissionControl:
    def test_overload_sheds_with_typed_error(self, index):
        gate = threading.Event()
        stalling = _StallingIndex(index, gate)
        shed = []

        def worker(seed):
            with Client(*srv.address) as c:
                try:
                    c.query(0.5, 5)
                except ServerOverloadedError as exc:
                    shed.append(exc)  # list.append is atomic

        def opener():
            # Let the requests pile against the closed gate until the
            # queue is full *and* one has been refused (a full queue
            # alone races the workers that have not connected yet).
            _wait_until(
                lambda: srv.queue_depth == 2 and srv.stats()["shed"] >= 1
            )
            gate.set()

        with QueryServer(stalling, port=0, queue_bound=2) as srv:
            threading.Thread(target=opener).start()
            assert _in_threads(worker, 8) == []
        stats = srv.stats()
        assert 1 <= len(shed) <= 7  # some shed, some answered, all resolved
        assert stats["shed"] == len(shed)

    def test_deadline_expired_while_waiting_is_not_executed(self, index):
        # The deadline travels with the call: a request that waits in a
        # stalled service past it is refused at the index's first phase
        # check (locate), before any tuple is scored.
        gate = threading.Event()
        stalling = _StallingIndex(index, gate)
        with QueryServer(stalling, port=0) as srv:
            stalled = _StalledClients(srv, stalling, n_others=0)
            with Client(*srv.address) as waiter:
                waiter._k_bound = index.k_bound  # no health round trip
                threading.Timer(0.2, gate.set).start()
                # the client waits a grace period past the deadline, so
                # the server's typed answer is what arrives
                with pytest.raises(QueryTimeoutError, match="locate"):
                    waiter.query(0.5, 5, deadline=0.05)
            stalled.join()
        assert stalling.calls == 2
        assert srv.flight.summary()["outcomes"] == {"ok": 1, "timeout": 1}

    def test_queue_bound_must_be_positive(self, index):
        with pytest.raises(ServerError):
            QueryServer(index, queue_bound=0)


def _exchange(sock, payload):
    write_frame(sock, payload)
    return read_frame(sock)


class TestHostileInput:
    @no_thread_deaths
    def test_hostile_frames_are_answered_typed_and_the_reader_lives(
        self, server
    ):
        # One per way a reader used to die untyped (TypeError,
        # OverflowError, a NaN deadline that never expires, struct.error
        # in the WAL); test_protocol checks every field by name.
        query = {"op": "query", "k": 3, "preference": 0.5}
        hostile = [
            {"op": []},
            {**query, "preference": [1, 10**400]},
            {**query, "deadline_ms": float("nan")},
            {"op": "delete", "tid": 2**63},
        ]
        with socket.create_connection(server.address, timeout=5.0) as sock:
            for rid, payload in enumerate(hostile):
                response = _exchange(sock, {**payload, "id": rid})
                assert (response["ok"], response["id"]) == (False, rid)
                assert response["error"]["type"] == "InvalidQueryError"
            # the same connection keeps serving
            after = _exchange(sock, {**query, "id": 9})
            assert after["ok"] is True and len(after["results"]) == 3
        # a response is counted just after it is written
        _wait_until(lambda: server.stats()["responses"] == 5)
        stats = server.stats()
        assert (stats["bad_frames"], stats["requests"]) == (4, 1)


class TestLifecycle:
    def test_close_is_idempotent(self, index):
        server = QueryServer(index, port=0).start()
        server.close()
        server.close()

    def test_close_is_prompt_and_leaves_no_thread(self, index):
        # One server idle, one with a connection parked in recv(): both
        # used to stall close() for the 5 s join timeout and leak the
        # blocked thread.
        before = set(threading.enumerate())
        idle = QueryServer(index, port=0).start()
        busy = QueryServer(index, port=0).start()
        client = Client(*busy.address)
        assert client.query(0.5, 3)
        started = time.perf_counter()
        idle.close()
        busy.close()
        assert time.perf_counter() - started < 0.5
        assert _serve_threads(before) == []
        client.close()

    def test_close_during_a_stalled_round_answers_the_queue_typed(
        self, index, tmp_path
    ):
        before = set(threading.enumerate())
        gate = threading.Event()
        stalling = _StallingIndex(index, gate)
        flight_path = tmp_path / "flight.json"
        srv = QueryServer(stalling, port=0, flight_path=flight_path).start()
        stalled = _StalledClients(srv, stalling, n_others=3)
        closer = threading.Thread(target=srv.close)
        closer.start()
        # Nothing is queued, so nothing is refused: close() hangs up on
        # new work while all four calls are still stuck in the service.
        _wait_until(lambda: srv._stopping)
        time.sleep(0.1)
        assert closer.is_alive() and stalled.outcomes == [None] * 4
        # close() cannot interrupt a service call: it lets every call in
        # flight answer, returns as soon as they have, and no reader
        # outlives it.
        released = time.perf_counter()
        gate.set()
        closer.join(timeout=10.0)
        assert not closer.is_alive()
        assert time.perf_counter() - released < 0.5
        stalled.join()
        assert stalled.outcomes == [index.query(a, 5) for a in stalled.angles]
        assert _serve_threads(before) == [] and srv.queue_depth == 0
        assert stalling.calls == 4
        stats = srv.stats()
        assert stats["responses"] == stats["requests"]
        # every outcome was ok: a clean shutdown leaves no post-mortem
        assert not flight_path.exists()

    def test_address_requires_start(self, index):
        with pytest.raises(ServerError):
            QueryServer(index).address

    def test_client_connect_refused_is_typed(self):
        client = Client("127.0.0.1", 1)  # nothing listens on port 1
        with pytest.raises(ServerConnectionError):
            client.query(0.5, 3)

    def test_closed_client_raises_typed(self, server):
        host, port = server.address
        client = Client(host, port)
        client.query(0.5, 3)
        client.close()
        with pytest.raises(ServerConnectionError):
            client.query(0.5, 3)

    def test_server_close_leaves_no_hung_client(self, index):
        server = QueryServer(index, port=0).start()
        host, port = server.address
        client = Client(host, port)
        assert client.query(0.5, 3)
        server.close()
        with pytest.raises(ServerConnectionError):
            for _ in range(3):  # first call may still see buffered data
                client.query(0.5, 3)
        client.close()


@pytest.mark.parametrize(
    "call,response",
    [
        (lambda c: c.query_batch([(1.0, 1.0)], 1), {"batches": {"a": 1}}),
        (lambda c: c.explain((1.0, 1.0), 1), {"explain": []}),
        (lambda c: c.delete(3), {"k_effective": "5"}),
        (lambda c: c.delete(3), {"k_effective": True}),  # a bool is no int
        (lambda c: c.health(), {"health": None}),
        (lambda c: c.stats(), {"stats": [1]}),
        (lambda c: c.dump(), {}),
    ],
    ids=[
        "query_batch", "explain", "delete", "delete-bool", "health",
        "stats", "dump",
    ],
)
def test_malformed_payload_is_a_transport_failure(monkeypatch, call, response):
    client = Client("127.0.0.1", 9)  # connects lazily: never here
    client._k_bound = 5
    monkeypatch.setattr(
        client, "_request", lambda request, deadline: {"ok": True, **response}
    )
    with pytest.raises(ServerConnectionError, match="malformed .* payload"):
        call(client)
