"""Served reads take no lock: only writers wait, and only for writers.

Every front door answers a read from the read view its writable index
last published; writes, and a compaction's snapshot, persist and swap,
hold the one writer lock.  So a write stalled after its fsync, a
compaction stalled mid-way, or a test thread sitting on the writer lock
must not delay a read on another connection, and that read sees the
view from before the stalled write.
"""

import sys
import threading
import time

import numpy as np
import pytest

from repro.core.tuples import RankTuple, RankTupleSet
from repro.core.writepath import WritableRankedJoinIndex
from repro.datagen.preferences import random_preferences
from repro.serve import Client, QueryServer
from repro.storage.durable import DurableRankedJoinIndex

K = 12
#: A read this slow waited for something; a lock-free one takes ~1 ms.
PROMPT_S = 1.0


def _tuples(n=200, seed=2):
    rng = np.random.default_rng(seed)
    return RankTupleSet.from_tuples(zip(range(n), rng.random(n), rng.random(n)))


def _make(tier, directory, threshold=1000):
    if tier == "durable":
        return DurableRankedJoinIndex.create(
            directory,
            _tuples(),
            K,
            compaction_threshold=threshold,
            fsync=False,
        )
    return WritableRankedJoinIndex.build(
        _tuples(), K, compaction_threshold=threshold
    )


class _Stall:
    """A chaos hook that parks the writer at one boundary until released."""

    def __init__(self, boundary):
        self.boundary = boundary
        self.reached = threading.Event()
        self.release = threading.Event()

    def _park(self, boundary):
        if boundary == self.boundary:
            self.reached.set()
            assert self.release.wait(timeout=30.0)

    def on_durable_apply(self):
        self._park("apply")

    def on_compaction(self):
        self._park("compaction")


def _timed(call, *args):
    started = time.perf_counter()
    answer = call(*args)
    return answer, time.perf_counter() - started


@pytest.fixture()
def durable(tmp_path):
    index = DurableRankedJoinIndex.create(
        tmp_path, _tuples(), K, compaction_threshold=1, fsync=False
    )
    yield index
    index.close()


@pytest.mark.parametrize("boundary", ["apply", "compaction"])
def test_a_stalled_write_delays_no_read(durable, boundary):
    # ``apply``: the insert is durable (committed) but not yet applied.
    # ``compaction``: the insert is applied and published, and the
    # compaction it triggered (threshold 1) is parked before its build.
    stall = _Stall(boundary)
    durable.faults = stall
    with QueryServer(durable, port=0) as srv:
        with (
            Client(*srv.address, request_timeout_s=10.0) as writer,
            Client(*srv.address, request_timeout_s=10.0) as reader,
        ):
            before = reader.query((0.5, 0.5), 3)
            write = threading.Thread(
                target=writer.insert, args=(RankTuple(999, 2.0, 2.0),)
            )
            write.start()
            assert stall.reached.wait(timeout=10.0)
            answer, took = _timed(reader.query, (0.5, 0.5), 3)
            assert took < PROMPT_S
            if boundary == "apply":
                assert answer == before  # the pre-write view
            else:
                assert answer[0].tid == 999  # published before compacting
            assert len(durable.compaction_pauses) == 0
            stall.release.set()
            write.join(timeout=10.0)
            assert not write.is_alive()
            assert reader.query((0.5, 0.5), 1)[0].tid == 999
    assert len(durable.compaction_pauses) == 1


def test_a_held_writer_lock_delays_no_served_read(durable):
    preferences = random_preferences(5, seed=3)
    expected = [durable.query(p, 4) for p in preferences]
    with QueryServer(durable, port=0) as srv:
        with Client(*srv.address, request_timeout_s=10.0) as client:
            client.k_bound  # the health round trip, before the lock
            started = time.perf_counter()
            with durable.lock:
                assert [client.query(p, 4) for p in preferences] == expected
                assert client.query_batch(preferences, 4) == expected
                assert client.explain(preferences[0], 4)["results"] == (
                    expected[0]
                )
                assert client.stats()["writes"]["k_effective"] == K
                assert client.health()["k_bound"] == K
            assert time.perf_counter() - started < 5 * PROMPT_S


@pytest.mark.parametrize("tier", ["concurrent", "durable"])
def test_stats_writes_block_is_one_view(tmp_path, tier):
    # The four numbers come from one frozen view, so they agree with
    # each other whatever another connection is writing meanwhile.
    service = _make(tier, tmp_path, threshold=8)
    stop = threading.Event()
    failures = []

    def write():
        rng = np.random.default_rng(4)
        # Best first: these deletes hide indexed tuples, so each one
        # moves charged and k_effective together (and, every few, a
        # compaction resets both).
        victims = sorted(_tuples(), key=lambda t: -(t.s1 + t.s2))[:150]
        try:
            with Client(*srv.address, request_timeout_s=10.0) as client:
                for step in range(100_000):
                    if stop.is_set():
                        return
                    client.insert(RankTuple(10_000 + step, *rng.random(2)))
                    if step < len(victims):
                        client.delete(victims[step].tid)
        except Exception as exc:  # noqa: BLE001 - recorded for the assert
            failures.append(repr(exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads inside a write, often
    try:
        with QueryServer(service, port=0) as srv:
            writer = threading.Thread(target=write)
            writer.start()
            blocks = []
            try:
                with Client(*srv.address, request_timeout_s=10.0) as client:
                    while len(blocks) < 1000:
                        blocks.append(client.stats()["writes"])
            finally:
                stop.set()
                writer.join(timeout=30.0)
    finally:
        sys.setswitchinterval(interval)
        getattr(service, "close", lambda: None)()
    assert failures == []
    assert len({b["delta_ops"] for b in blocks}) > 10  # writes overlapped
    for block in blocks:
        # A compaction in flight can lag the deletes past K: the bound
        # then reads 0, never negative.
        assert block["k_effective"] == max(0, K - block["charged"]), block
        assert block["charged"] + block["visible"] <= block["delta_ops"], block


def test_stats_between_apply_and_publish_shows_the_old_view(
    tmp_path, monkeypatch
):
    # Park a delete after it changed the write buffer and before it
    # published: the live buffer and the published view disagree now,
    # and a stats answer must take all four numbers from the view.
    service = _make("durable", tmp_path)
    parked, release = threading.Event(), threading.Event()
    publish = WritableRankedJoinIndex._publish

    def parking_publish(self):
        if not release.is_set():
            parked.set()
            assert release.wait(timeout=30.0)
        publish(self)

    victim = service.query((1.0, 1.0), 1)[0].tid  # indexed: charged
    monkeypatch.setattr(WritableRankedJoinIndex, "_publish", parking_publish)
    try:
        with QueryServer(service, port=0) as srv:
            with (
                Client(*srv.address, request_timeout_s=10.0) as writer,
                Client(*srv.address, request_timeout_s=10.0) as reader,
            ):
                delete = threading.Thread(target=writer.delete, args=(victim,))
                delete.start()
                assert parked.wait(timeout=10.0)
                assert reader.stats()["writes"] == {
                    "delta_ops": 0, "charged": 0, "visible": 0, "k_effective": K
                }
                release.set()
                delete.join(timeout=10.0)
                assert not delete.is_alive()
                assert reader.stats()["writes"] == {
                    "delta_ops": 1, "charged": 1, "visible": 0,
                    "k_effective": K - 1,
                }
    finally:
        release.set()
        service.close()
