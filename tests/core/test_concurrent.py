"""Thread safety of the writable index: lock-free reads, serialized writes."""

import threading
import time

import numpy as np
import pytest

from repro.core.index import RankedJoinIndex
from repro.core.scoring import Preference
from repro.core.tuples import RankTuple, RankTupleSet
from repro.core.writepath import WritableRankedJoinIndex
from repro.datagen.synthetic import uniform_pairs
from repro.obs import Recorder


class _Rendezvous(Recorder):
    """Holds each armed query at ``rji.queries`` until ``parties`` are in."""

    enabled = True

    def __init__(self, parties):
        self.barrier = threading.Barrier(parties)
        self.armed = False

    def count(self, name, value=1, attrs=None):
        if self.armed and name == "rji.queries":
            self.barrier.wait(timeout=5)


class TestReadWriteLock:
    """What replaced the readers-writer lock: readers take no lock at
    all, writers serialize on the write path's one writer lock."""

    def test_readers_share(self):
        recorder = _Rendezvous(3)
        index = WritableRankedJoinIndex.build(
            uniform_pairs(200, seed=1), 6, recorder=recorder
        )
        recorder.armed = True
        answers = []

        def reader():
            answers.append(index.query(Preference(1.0, 1.0), 4))

        threads = [threading.Thread(target=reader) for _ in range(3)]
        # All three readers must be inside query at once (the barrier
        # breaks otherwise), and none waits for the held writer lock.
        with index.lock:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
        recorder.armed = False
        assert not recorder.barrier.broken
        assert answers == [index.query(Preference(1.0, 1.0), 4)] * 3

    def test_writer_not_starved(self):
        index = WritableRankedJoinIndex.build(uniform_pairs(300, seed=2), 6)
        done = threading.Event()

        def reader_loop():
            while not done.is_set():
                index.query(Preference(0.3, 0.7), 4)

        readers = [threading.Thread(target=reader_loop) for _ in range(4)]
        for t in readers:
            t.start()
        try:
            start = time.perf_counter()
            index.insert(RankTuple(10_000, 0.5, 0.5))
            waited = time.perf_counter() - start
            assert waited < 2.0  # readers never hold anything a writer needs
        finally:
            done.set()
            for t in readers:
                t.join(timeout=5)
        assert index.n_live == 301


class TestConcurrentIndex:
    def _build(self, n=300, k=6, seed=0):
        rng = np.random.default_rng(seed)
        self.s1 = rng.uniform(0, 100, n + 200)
        self.s2 = rng.uniform(0, 100, n + 200)
        tuples = RankTupleSet(
            np.arange(n), self.s1[:n], self.s2[:n]
        )
        return WritableRankedJoinIndex.build(tuples, k), n

    def test_single_threaded_parity(self):
        index, _ = self._build()
        pref = Preference(0.8, 0.6)
        assert index.query(pref, 4) == index.query_batch([pref], 4)[0]
        assert index.k_bound == 6

    def test_concurrent_queries_during_inserts(self):
        index, n = self._build()
        errors = []
        stop = threading.Event()

        def querier():
            rng = np.random.default_rng(threading.get_ident() % 2**32)
            try:
                while not stop.is_set():
                    pref = Preference.from_angle(
                        float(rng.uniform(0, np.pi / 2))
                    )
                    results = index.query(pref, 4)
                    scores = [r.score for r in results]
                    if scores != sorted(scores, reverse=True):
                        errors.append("unsorted answer")
            except Exception as exc:  # noqa: BLE001 - recorded for assert
                errors.append(repr(exc))

        queriers = [threading.Thread(target=querier) for _ in range(4)]
        for t in queriers:
            t.start()
        try:
            for i in range(n, n + 150):
                index.insert(RankTuple(i, float(self.s1[i]), float(self.s2[i])))
        finally:
            stop.set()
            for t in queriers:
                t.join(timeout=10)
        assert errors == []

        # Final state must equal a clean rebuild.
        total = n + 150
        pref = Preference(1.0, 1.3)
        expected = np.sort(
            pref.p1 * self.s1[:total] + pref.p2 * self.s2[:total]
        )[::-1][:6]
        got = [r.score for r in index.query(pref, 6)]
        np.testing.assert_allclose(got, expected, atol=1e-9)

    def test_delete_and_rebuild(self):
        index, n = self._build()
        victim = None
        # pick a tuple that is certainly materialized
        from repro.core.scoring import Preference as P

        victim = index.query(P(1.0, 1.0), 1)[0].tid
        effective = index.delete(victim)
        assert effective == index.k_effective == 5
        mask = np.ones(n, dtype=bool)
        mask[victim] = False
        remaining = RankTupleSet(
            np.arange(n)[mask], self.s1[:n][mask], self.s2[:n][mask]
        )
        index.rebuild(remaining)
        assert index.k_effective == 6
        pref = P(0.5, 1.5)
        got = [r.score for r in index.query(pref, 6)]
        expected = np.sort(remaining.scores(pref.p1, pref.p2))[::-1][:6]
        np.testing.assert_allclose(got, expected, atol=1e-9)

    @pytest.mark.parametrize(
        "options", [{"variant": "ordered"}, {"merge_slack": 3}]
    )
    def test_rebuild_keeps_build_options(self, options):
        """rebuild() builds like every compaction: with the index's
        options, not RankedJoinIndex.build's defaults."""
        index = WritableRankedJoinIndex.build(
            uniform_pairs(400, seed=3), 10, **options
        )
        fresh = uniform_pairs(500, seed=4)
        index.rebuild(fresh)
        expected = RankedJoinIndex.build(fresh, 10, **options)
        assert index.n_regions == expected.n_regions
        for angle in np.linspace(0.0, np.pi / 2, 17):
            pref = Preference.from_angle(float(angle))
            assert index.query(pref, 7) == expected.query(pref, 7)

    def test_rebuild_takes_no_build_options(self):
        index, n = self._build()
        with pytest.raises(TypeError):
            index.rebuild(
                RankTupleSet(np.arange(n), self.s1[:n], self.s2[:n]),
                variant="ordered",
            )
