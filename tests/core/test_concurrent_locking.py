"""Lock accounting of the writable index under timeouts and exceptions.

Reads take no lock, so no exit path of a read — normal return, query
exception, deadline expiry — can leave one behind; writes take the
one writer lock and must release it on every path.  Each
test checks that the writer lock is free afterwards and still usable.
"""

import threading

import numpy as np
import pytest

from repro.core.scoring import Preference
from repro.core.tuples import RankTuple, RankTupleSet
from repro.core.writepath import WritableRankedJoinIndex
from repro.errors import InvalidQueryError, MaintenanceError, QueryTimeoutError


def _build(n=200, k=5, seed=7):
    rng = np.random.default_rng(seed)
    s1 = rng.uniform(0, 100, n + 300)
    s2 = rng.uniform(0, 100, n + 300)
    index = WritableRankedJoinIndex.build(
        RankTupleSet(np.arange(n), s1[:n], s2[:n]), k
    )
    return index, s1, s2, n


def _lock_is_quiescent(index: WritableRankedJoinIndex) -> bool:
    return not index.lock.locked()


class TestExceptionPaths:
    def test_query_exception_releases_exactly_once(self):
        index, s1, s2, n = _build()
        with pytest.raises(InvalidQueryError):
            index.query(Preference(1.0, 1.0), 10_000)  # k above the bound
        with pytest.raises(MaintenanceError):
            index.insert(RankTuple(0, 1.0, 1.0))  # tid 0 is live
        assert _lock_is_quiescent(index)
        # The lock is still usable for writers afterwards.
        index.insert(RankTuple(n, float(s1[n]), float(s2[n])))
        assert _lock_is_quiescent(index)

    def test_lock_wait_timeout_takes_nothing(self):
        index, _, _, _ = _build()
        expected = index.query(Preference(1.0, 1.0), 3)
        answers = []

        def read():
            answers.append(index.query(Preference(1.0, 1.0), 3, deadline=0.05))

        with index.lock:  # a rebuild-like writer is in
            # There is no read lock to wait for: the deadline only
            # covers the query, which answers from the published view.
            reader = threading.Thread(target=read)
            reader.start()
            reader.join(timeout=5.0)
            waited = reader.is_alive()
        reader.join(timeout=10.0)
        assert not waited and answers == [expected]
        assert _lock_is_quiescent(index)

    def test_expired_deadline_before_wait(self):
        index, _, _, _ = _build()
        with pytest.raises(QueryTimeoutError):
            index.query(Preference(1.0, 1.0), 3, deadline=0.0)
        assert _lock_is_quiescent(index)

    def test_k_bound_served_without_lock(self):
        index, s1, s2, n = _build()
        with index.lock:  # even mid-write...
            assert index.k_bound == 5  # ...the bound stays readable
        index.rebuild(
            RankTupleSet(np.arange(n), s1[:n], s2[:n])
        )
        assert index.k_bound == 5


class TestTimeoutExceptionInterleavings:
    def test_hammer_mixed_outcomes_leaves_lock_quiescent(self):
        """Many threads mixing timeouts, bad-k errors, and successes."""
        index, s1, s2, n = _build()
        stop = threading.Event()
        failures: list[str] = []

        def chaos(worker: int):
            rng = np.random.default_rng(worker)
            try:
                while not stop.is_set():
                    roll = rng.integers(0, 3)
                    pref = Preference.from_angle(
                        float(rng.uniform(0.01, np.pi / 2 - 0.01))
                    )
                    try:
                        if roll == 0:
                            index.query(pref, 3)
                        elif roll == 1:
                            index.query(pref, 3, deadline=0.001)
                        else:
                            index.query(pref, 10_000)  # always invalid
                    except (QueryTimeoutError, InvalidQueryError):
                        pass
            except Exception as exc:  # noqa: BLE001 - recorded for assert
                failures.append(repr(exc))

        def writer():
            try:
                for i in range(n, n + 120):
                    if stop.is_set():
                        return
                    index.insert(
                        RankTuple(i, float(s1[i]), float(s2[i]))
                    )
            except Exception as exc:  # noqa: BLE001 - recorded for assert
                failures.append(repr(exc))

        workers = [
            threading.Thread(target=chaos, args=(w,)) for w in range(6)
        ]
        writer_thread = threading.Thread(target=writer)
        for t in workers:
            t.start()
        writer_thread.start()
        writer_thread.join(timeout=20)
        stop.set()
        for t in workers:
            t.join(timeout=20)
        assert failures == []
        assert _lock_is_quiescent(index)
        # A full write cycle still goes through: nothing leaked the lock.
        index.delete(n + 119)
        assert _lock_is_quiescent(index)
        assert index.query(Preference(1.0, 1.0), 3)
