"""End-to-end server tests: batching, admission control, deadlines."""

import json
import socket
import sys
import threading
import time

import numpy as np
import pytest

from repro.core.index import RankedJoinIndex
from repro.core.tuples import RankTupleSet
from repro.core.workloads import random_preferences
from repro.errors import (
    InvalidQueryError,
    QueryTimeoutError,
    ServerConnectionError,
    ServerError,
    ServerOverloadedError,
)
from repro.obs import MetricsRecorder
from repro.serve import Client, QueryServer
from repro.serve.protocol import read_frame


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


@pytest.fixture()
def client(server):
    host, port = server.address
    with Client(host, port) as c:
        yield c


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
        host, port = server.address
        failures = []

        def worker(seed):
            try:
                with Client(host, port) as c:
                    for preference in random_preferences(30, seed=seed):
                        if c.query(preference, 6) != index.query(
                            preference, 6
                        ):
                            failures.append(f"mismatch (seed {seed})")
            except Exception as exc:  # noqa: BLE001 - recorded for assert
                failures.append(repr(exc))

        threads = [
            threading.Thread(target=worker, args=(seed,))
            for seed in range(6)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
        assert failures == []
        assert not any(t.is_alive() for t in threads)

    def test_concurrent_singles_coalesce_into_batches(self, index):
        metrics = MetricsRecorder()
        with QueryServer(index, port=0, recorder=metrics) as srv:
            host, port = srv.address
            barrier = threading.Barrier(8)

            def worker(seed):
                with Client(host, port) as c:
                    barrier.wait(timeout=30.0)
                    for preference in random_preferences(50, seed=seed):
                        c.query(preference, 6)

            threads = [
                threading.Thread(target=worker, args=(seed,))
                for seed in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
            stats = srv.stats()
        # Coalescing happened: fewer backend rounds than requests.
        assert stats["batches"] < stats["requests"]
        assert metrics.series("serve.batch_size").maximum >= 2

    def test_one_client_is_thread_safe(self, index, server, client):
        failures = []

        def worker(seed):
            try:
                for preference in random_preferences(20, seed=seed):
                    if client.query(preference, 6) != index.query(
                        preference, 6
                    ):
                        failures.append("mismatch")
            except Exception as exc:  # noqa: BLE001 - recorded for assert
                failures.append(repr(exc))

        threads = [
            threading.Thread(target=worker, args=(seed,))
            for seed in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
        assert failures == []


class _StallingIndex:
    """An IndexService whose queries block until released.

    ``calls`` counts the service calls that have arrived (stalled ones
    included) and ``executed`` the preferences they were asked to
    answer, so a request executed twice (or never) shows.
    """

    def __init__(self, index, gate):
        self._index = index
        self._gate = gate
        self.k_bound = index.k_bound
        self.calls = 0
        self.executed = 0
        self._lock = threading.Lock()

    def _arrive(self, n_preferences):
        with self._lock:
            self.calls += 1
            self.executed += n_preferences
        self._gate.wait(timeout=30.0)

    def query(self, preference, k, *, deadline=None):
        self._arrive(1)
        return self._index.query(preference, k, deadline=deadline)

    def query_batch(self, preferences, k, *, deadline=None):
        self._arrive(len(preferences))
        return self._index.query_batch(preferences, k, deadline=deadline)


def _wait_until(condition, timeout_s=10.0):
    deadline = time.monotonic() + timeout_s
    while not condition() and time.monotonic() < deadline:
        time.sleep(0.002)
    assert condition()


class _StalledClients:
    """One client stalled inside the service, ``n_queued`` queued behind it.

    Each client sends one ``query`` (angle ``0.1 * (slot + 1)``, ``k=5``)
    from its own thread and records its answer or its exception.
    """

    def __init__(self, srv, stalling, n_queued):
        host, port = srv.address
        self.angles = [0.1 * (slot + 1) for slot in range(n_queued + 1)]
        self.outcomes = [None] * len(self.angles)
        self.clients = [Client(host, port) for _ in self.angles]
        for client in self.clients:
            client.k_bound  # the health round trip happens before the stall
        self.threads = [
            threading.Thread(target=self._ask, args=(slot,))
            for slot in range(len(self.angles))
        ]
        calls = stalling.calls
        self.threads[0].start()
        # The first request's own reader takes the role and stalls in
        # the service; only then do the rest pile up behind it.
        _wait_until(lambda: stalling.calls == calls + 1)
        for thread in self.threads[1:]:
            thread.start()
        _wait_until(lambda: srv.queue_depth == n_queued)

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
    """The reader that admits a request executes it; nobody else has to."""

    def test_no_request_strands_when_the_role_holder_leaves(self, index):
        # batch_max=2 and six queued: the reader that gets the role next
        # answers at most its own round(s) and leaves with requests
        # still queued, so later readers must pick the role up.
        gate = threading.Event()
        stalling = _StallingIndex(index, gate)
        with QueryServer(stalling, port=0, batch_max=2) as srv:
            stalled = _StalledClients(srv, stalling, n_queued=6)
            gate.set()
            stalled.join()
            assert srv.queue_depth == 0
        assert stalled.outcomes == [
            index.query(angle, 5) for angle in stalled.angles
        ]
        stats = srv.stats()
        assert stats["responses"] == stats["requests"]
        assert stats["errors"] == 0

    def test_request_answered_in_another_readers_round_runs_once(self, index):
        # Four queued behind the stall coalesce into the next holder's
        # round; the three readers that wake afterwards must find their
        # request answered and execute nothing.
        gate = threading.Event()
        stalling = _StallingIndex(index, gate)
        with QueryServer(stalling, port=0) as srv:
            stalled = _StalledClients(srv, stalling, n_queued=4)
            gate.set()
            stalled.join()
        assert stalled.outcomes == [
            index.query(angle, 5) for angle in stalled.angles
        ]
        assert stalling.executed == 5
        stats = srv.stats()
        assert stats["responses"] == stats["requests"] == 5 + 5  # + health
        assert stats["batches"] == 1

    def test_role_handoff_under_thread_switch_pressure(self, index):
        # More readers than cores and a 10 us switch interval: every
        # request is still executed exactly once and answered correctly.
        gate = threading.Event()
        gate.set()
        stalling = _StallingIndex(index, gate)
        failures = []

        def worker(srv, seed):
            try:
                with Client(*srv.address) as c:
                    for i, p in enumerate(random_preferences(60, seed=seed)):
                        k = 3 + (i + seed) % 3
                        if c.query(p, k) != index.query(p, k):
                            failures.append(f"mismatch (seed {seed})")
            except Exception as exc:  # noqa: BLE001 - recorded for assert
                failures.append(repr(exc))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with QueryServer(stalling, port=0, batch_max=3) as srv:
                threads = [
                    threading.Thread(target=worker, args=(srv, seed))
                    for seed in range(8)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60.0)
                assert not any(t.is_alive() for t in threads)
                assert srv.queue_depth == 0
        finally:
            sys.setswitchinterval(interval)
        assert failures == []
        assert stalling.executed == 8 * 60
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

    def test_lone_query_is_scalar_and_a_pair_coalesces(self, index):
        metrics = MetricsRecorder()
        gate = threading.Event()
        gate.set()
        stalling = _StallingIndex(index, gate)
        with QueryServer(stalling, port=0, recorder=metrics) as srv:
            with Client(*srv.address) as client:
                for preference in random_preferences(10, seed=9):
                    assert client.query(preference, 5) == index.query(
                        preference, 5
                    )
            assert srv.stats()["batches"] == 0
            assert metrics.series("serve.batch_size").count == 0
            # One stalled, two queued behind it: the stalled one is a
            # lone query again, the two behind it are a pair.
            gate.clear()
            stalled = _StalledClients(srv, stalling, n_queued=2)
            gate.set()
            stalled.join()
            assert stalled.outcomes == [
                index.query(angle, 5) for angle in stalled.angles
            ]
            assert srv.stats()["batches"] == 1
        batch_sizes = metrics.series("serve.batch_size")
        assert (batch_sizes.count, batch_sizes.minimum) == (1, 2)



class TestAdmissionControl:
    def test_overload_sheds_with_typed_error(self, index):
        gate = threading.Event()
        stalling = _StallingIndex(index, gate)
        with QueryServer(stalling, port=0, queue_bound=2) as srv:
            host, port = srv.address
            outcomes = {"ok": 0, "shed": 0}
            lock = threading.Lock()

            def worker(seed):
                with Client(host, port) as c:
                    try:
                        c.query(0.5, 5)
                    except ServerOverloadedError:
                        with lock:
                            outcomes["shed"] += 1
                    else:
                        with lock:
                            outcomes["ok"] += 1

            threads = [
                threading.Thread(target=worker, args=(seed,))
                for seed in range(8)
            ]
            for t in threads:
                t.start()
            # Let the requests pile against the closed gate until the
            # queue is full *and* one has been refused (a full queue
            # alone races the workers that have not connected yet),
            # then open.
            import time

            deadline = time.time() + 10.0
            while (
                srv.queue_depth < 2 or srv.stats()["shed"] < 1
            ) and time.time() < deadline:
                time.sleep(0.005)
            gate.set()
            for t in threads:
                t.join(timeout=60.0)
            assert not any(t.is_alive() for t in threads)
            stats = srv.stats()
        assert outcomes["shed"] >= 1
        assert outcomes["ok"] >= 1
        assert outcomes["ok"] + outcomes["shed"] == 8
        assert stats["shed"] == outcomes["shed"]

    def test_queue_bound_must_be_positive(self, index):
        with pytest.raises(ServerError):
            QueryServer(index, queue_bound=0)
        with pytest.raises(ServerError):
            QueryServer(index, batch_max=0)


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
        assert not [
            t.name
            for t in set(threading.enumerate()) - before
            if t.name.startswith("serve-")
        ]
        client.close()

    def test_close_during_a_stalled_round_answers_the_queue_typed(
        self, index
    ):
        before = set(threading.enumerate())
        gate = threading.Event()
        stalling = _StallingIndex(index, gate)
        srv = QueryServer(stalling, port=0).start()
        stalled = _StalledClients(srv, stalling, n_queued=3)
        closer = threading.Thread(target=srv.close)
        closer.start()
        # The queued requests are answered by close() itself, while the
        # round ahead of them is still stuck in the service.
        for thread in stalled.threads[1:]:
            thread.join(timeout=10.0)
        assert not gate.is_set()
        assert [type(o) for o in stalled.outcomes[1:]] == [ServerError] * 3
        assert "shutting down" in str(stalled.outcomes[1])
        assert srv.queue_depth == 0
        # close() cannot interrupt the service call: it lets the round
        # in flight answer, returns as soon as it has, and no reader
        # outlives it.
        released = time.perf_counter()
        gate.set()
        closer.join(timeout=10.0)
        assert not closer.is_alive()
        assert time.perf_counter() - released < 0.5
        stalled.join()
        assert stalled.outcomes[0] == index.query(stalled.angles[0], 5)
        assert not [
            t.name
            for t in set(threading.enumerate()) - before
            if t.name.startswith("serve-")
        ]

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
