"""End-to-end server tests: batching, admission control, deadlines."""

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
    """An IndexService whose queries block until released."""

    def __init__(self, index, gate):
        self._index = index
        self._gate = gate
        self.k_bound = index.k_bound

    def query(self, preference, k, *, deadline=None):
        self._gate.wait(timeout=30.0)
        return self._index.query(preference, k, deadline=deadline)

    def query_batch(self, preferences, k, *, deadline=None):
        self._gate.wait(timeout=30.0)
        return self._index.query_batch(preferences, k, deadline=deadline)


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
