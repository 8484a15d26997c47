"""Per-query deadlines and the timeout plumbing through the wrappers."""

import threading

import numpy as np
import pytest

from repro.core.deadline import Deadline
from repro.core.index import RankedJoinIndex
from repro.core.tuples import RankTupleSet
from repro.core.writepath import WritableRankedJoinIndex, as_pool
from repro.errors import QueryError, QueryTimeoutError


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def _tuples(n=120, seed=2):
    rng = np.random.default_rng(seed)
    return RankTupleSet.from_pairs(
        rng.uniform(0, 100, n), rng.uniform(0, 100, n)
    )


def _build(n=120, k=6, seed=2):
    return RankedJoinIndex.build(_tuples(n, seed), k)


def _adopted():
    """A built index, and the writable index adopting it and its pool."""
    tuples = _tuples()
    index = RankedJoinIndex.build(tuples, 6)
    return index, WritableRankedJoinIndex(index, as_pool(tuples))


class TestDeadline:
    def test_remaining_and_expired_track_the_clock(self):
        clock = FakeClock()
        deadline = Deadline(2.0, clock=clock)
        assert deadline.remaining() == pytest.approx(2.0)
        assert not deadline.expired()
        clock.advance(1.5)
        assert deadline.remaining() == pytest.approx(0.5)
        clock.advance(0.5)
        assert deadline.expired()

    def test_check_names_the_phase(self):
        clock = FakeClock()
        deadline = Deadline(1.0, clock=clock)
        deadline.check("locate")  # not expired: no-op
        clock.advance(5.0)
        with pytest.raises(QueryTimeoutError, match="locate"):
            deadline.check("locate")

    def test_non_positive_timeout_rejected(self):
        with pytest.raises(QueryTimeoutError, match="positive"):
            Deadline(0.0)
        with pytest.raises(QueryTimeoutError, match="positive"):
            Deadline(-1.0)

    def test_of_propagates_none(self):
        assert Deadline.of(None) is None
        assert isinstance(Deadline.of(1.0), Deadline)

    def test_timeout_error_is_a_query_error(self):
        assert issubclass(QueryTimeoutError, QueryError)


class TestIndexDeadlines:
    def test_query_with_live_deadline_is_unchanged(self):
        index = _build()
        with_deadline = index.query(0.7, 4, deadline=Deadline.of(30.0))
        assert with_deadline == index.query(0.7, 4)

    def test_expired_deadline_raises_before_serving(self):
        clock = FakeClock()
        index = _build()
        deadline = Deadline(0.5, clock=clock)
        clock.advance(1.0)
        with pytest.raises(QueryTimeoutError):
            index.query(0.7, 4, deadline=deadline)

    def test_batch_checks_between_regions(self):
        # A batch is a loop over query: an expired budget raises in the
        # first query's locate phase.
        clock = FakeClock()
        index = _build()
        deadline = Deadline(0.5, clock=clock)
        clock.advance(1.0)
        with pytest.raises(QueryTimeoutError, match="locate"):
            index.query_batch([0.2, 0.7, 1.2], 4, deadline=deadline)


class TestConcurrentTimeout:
    def test_timeout_none_blocks_and_serves(self):
        index, shared = _adopted()
        assert shared.query(0.7, 4) == index.query(0.7, 4)
        assert shared.query(0.7, 4, deadline=10.0) == index.query(0.7, 4)

    def test_timeout_while_a_writer_holds_the_lock(self):
        # A read waits for no lock, so a writer holding the writer lock
        # costs its deadline nothing: the answer arrives within budget.
        index, shared = _adopted()
        writer_in = threading.Event()
        release = threading.Event()

        def writer():
            with shared.lock:
                writer_in.set()
                release.wait(timeout=30.0)

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            assert writer_in.wait(timeout=10.0)
            assert shared.query(0.7, 4, deadline=0.05) == index.query(0.7, 4)
        finally:
            release.set()
            thread.join(timeout=10.0)
        assert not thread.is_alive()
        assert shared.query(0.7, 4, deadline=5.0) == index.query(0.7, 4)

    def test_query_batch_accepts_a_timeout(self):
        index, shared = _adopted()
        angles = [0.2, 0.7, 1.2]
        assert shared.query_batch(angles, 4, deadline=10.0) == [
            index.query(a, 4) for a in angles
        ]


class TestManagedTimeout:
    def test_timeout_plumbs_through(self):
        tuples = _tuples()
        index = RankedJoinIndex.build(tuples, 6)
        managed = WritableRankedJoinIndex.build(tuples, 6)
        assert managed.query(0.7, 4, deadline=10.0) == index.query(0.7, 4)
        assert managed.query_batch([0.2, 0.9], 4, deadline=10.0) == [
            index.query(0.2, 4),
            index.query(0.9, 4),
        ]
