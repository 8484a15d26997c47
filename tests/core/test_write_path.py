"""The writable-index contract, stated once and run through every constructor.

:class:`repro.core.writepath.WritableRankedJoinIndex` made by ``build``
and by adopting a built index (both over the in-memory ``MemoryLog``),
and ``DurableRankedJoinIndex`` (real WAL in ``tmp_path``): one class,
one compaction schedule; the oracles are region-free —
``RankedJoinIndex.build(sorted(live))`` and the full scan.
"""

import sys
import threading
import time

import numpy as np
import pytest

from repro.baselines.fullscan import FullScanTopK
from repro.core.delta import SupportsWal
from repro.core.index import RankedJoinIndex
from repro.core.scoring import as_preference
from repro.core.tuples import RankTuple, RankTupleSet
from repro.core.writepath import (
    TRIGGERS,
    MemoryLog,
    WritableRankedJoinIndex,
    as_pool,
)
from repro.datagen.preferences import random_preferences
from repro.errors import ConstructionError, MaintenanceError
from repro.obs import MetricsRecorder
from repro.obs.names import COUNTERS
from repro.storage.durable import DurableRankedJoinIndex

from ..conftest import assert_matches_rebuild as _assert_matches_rebuild


def _spy(wal):
    """Log every append/commit reaching ``wal`` (a double or the real log)."""
    calls = []
    for name in ("append_insert", "append_delete", "commit"):

        def logged(*args, _inner=getattr(wal, name), _name=name):
            calls.append(_name)
            return _inner(*args)

        setattr(wal, name, logged)
    return calls


def _tuples(n=120, seed=3):
    rng = np.random.default_rng(seed)
    return [
        RankTuple(i, float(a), float(b))
        for i, (a, b) in enumerate(zip(rng.random(n), rng.random(n)))
    ]


def _assert_matches_full_scan(index, pool, k):
    scan = FullScanTopK(RankTupleSet.from_tuples(sorted(pool.values())))
    for preference in random_preferences(8, seed=11):
        assert index.query(preference, k) == scan.query(as_preference(preference), k)


class WritePathContract:
    """What every tier must do; subclasses only say how to make one."""

    def make(self, directory, wal, tuples, k, threshold, **options):
        raise NotImplementedError

    @pytest.fixture()
    def tier(self, tmp_path):
        made = []

        def factory(tuples=None, k=12, threshold=1000, **options):
            wal = MemoryLog()  # the durable tier brings its own real log
            index = self.make(
                tmp_path / str(len(made)),
                wal,
                tuples or _tuples(),
                k,
                threshold,
                **options,
            )
            made.append(index)
            return index, getattr(index, "wal", wal)

        yield factory
        for index in made:
            getattr(index, "close", lambda: None)()

    def test_commit_precedes_state_change(self, tier):
        index, wal = tier()
        assert isinstance(wal, SupportsWal)
        calls = _spy(wal)
        index.insert(RankTuple(999, 0.5, 0.5))
        index.delete(999)
        assert calls == ["append_insert", "commit", "append_delete", "commit"]

        # A commit that never returns acknowledged nothing, so nothing
        # may have been applied: the apply comes strictly after it.
        def crash():
            raise OSError("disk gone")

        wal.commit = crash
        with pytest.raises(OSError):
            index.insert(RankTuple(1000, 2.0, 2.0))
        assert index.n_live == 120 and index.delta.n_ops == 1
        assert index.query((0.5, 0.5), 1)[0].tid != 1000

    def test_duplicate_insert_and_absent_delete_are_typed(self, tier):
        # Every rejection: one wording on every tier, raised before any
        # WAL record exists, leaving pool and delta as they were.
        index, wal = tier()
        lone, lone_wal = tier([RankTuple(0, 0.5, 0.5)], k=1)
        calls = _spy(wal) + _spy(lone_wal)
        nan, inf = float("nan"), float("inf")
        for write, arg, message in [
            (index.insert, RankTuple(0, 0.9, 0.9), "already live"),
            (index.delete, 10_000, "is not live"),
            (index.insert, RankTuple(700, nan, 0.5), "rank values must be finite"),
            (index.insert, RankTuple(700, 0.5, inf), "rank values must be finite"),
            (lone.delete, 0, "the last live tuple; an index cannot be empty"),
        ]:
            with pytest.raises(MaintenanceError, match=message):
                write(arg)
        assert calls == [] and wal.last_lsn == lone_wal.last_lsn == 0
        assert index.n_live == 120 and index.delta.is_empty
        assert lone.n_live == 1 and lone.delta.is_empty

    def test_compaction_resets_delta_and_keeps_answers(self, tier):
        # The merged-entry trigger: exactly at ``threshold`` visible
        # inserts (none of these has a dominator in the base).
        index, _ = tier(threshold=4)
        pool = {t.tid: t for t in _tuples()}
        for i in range(9):
            pool[2000 + i] = RankTuple(2000 + i, 0.9 + 0.01 * i, 0.95)
            index.insert(pool[2000 + i])
            assert index.delta.n_ops == index.delta.n_visible == (i + 1) % 4
        _assert_matches_rebuild(index, pool, 12, 6)

    def test_charged_and_visible_entries_share_the_threshold(self, tier):
        # A read merges both kinds, so both count: three visible inserts
        # and one charged delete are four; the fifth entry rebuilds.
        index, _ = tier(threshold=5)
        pool = {t.tid: t for t in _tuples()}
        top = max(pool.values(), key=lambda t: t.s1 + t.s2)
        for i in range(3):
            pool[2100 + i] = RankTuple(2100 + i, 0.9 + 0.01 * i, 0.95)
            index.insert(pool[2100 + i])
        index.delete(top.tid)
        del pool[top.tid]
        delta = index.delta
        assert (delta.n_ops, delta.n_charged, delta.n_visible) == (4, 1, 3)
        pool[2103] = RankTuple(2103, 0.95, 0.9)
        index.insert(pool[2103])
        assert index.delta.is_empty and index.k_effective == 12
        _assert_matches_rebuild(index, pool, 12, 12)

    def test_inert_writes_wait_for_the_log_bound(self, tier):
        # Inserts 12+ base tuples strictly dominate and deletes of tids
        # outside the dominating set change no region: they never count
        # toward the read triggers.  Only the log bound, max(threshold,
        # n_live) = 120 records since the base, rebuilds — exactly once.
        index, _ = tier(threshold=8)
        pool = {t.tid: t for t in _tuples()}
        indexed = set(RankedJoinIndex.build(_tuples(), 12).dominating.tids.tolist())
        outside = iter([tid for tid in sorted(pool) if tid not in indexed])
        for step in range(1, 122):
            if step % 2:
                pool[3000 + step] = RankTuple(3000 + step, 0.001, 0.002)
                index.insert(pool[3000 + step])
            else:
                victim = next(outside)
                index.delete(victim)
                del pool[victim]
            delta = index.delta
            assert delta.is_transparent and index.k_effective == 12
            assert delta.n_ops == (step if step < 120 else step - 120)
        _assert_matches_rebuild(index, pool, 12, 12)

    def test_every_write_answers_every_exact_k(self, tier):
        # After each write of a stream cycling inert, visible and charged
        # writes, every k the tier admits is answered like a rebuild.
        index, _ = tier(threshold=6)
        pool = {t.tid: t for t in _tuples()}
        preferences = random_preferences(6, seed=13)
        rng = np.random.default_rng(17)
        for step in range(32):
            kind = step % 4
            if kind == 0:  # inert insert
                pool[6000 + step] = RankTuple(6000 + step, 0.01 * rng.random(), 0.01)
            elif kind == 1:  # visible insert
                pool[6000 + step] = RankTuple(6000 + step, 0.9 + 0.1 * rng.random(), 0.97)
            if kind < 2:
                index.insert(pool[6000 + step])
            else:  # best-ranked original (charged), then a worst one (inert)
                pick = max if kind == 2 else min
                victim = pick(
                    (t for t in pool.values() if t.tid < 6000),
                    key=lambda t: t.s1 + t.s2,
                ).tid
                index.delete(victim)
                del pool[victim]
            reference = RankedJoinIndex.build(sorted(pool.values()), 12)
            for k in range(1, index.k_effective + 1):
                assert index.query_batch(preferences, k) == reference.query_batch(
                    preferences, k
                )
                for preference in preferences:
                    assert index.query(preference, k) == reference.query(preference, k)

    def test_tombstone_pressure_forces_compaction(self, tier):
        # 2 * charged >= K_effective would break exact merges at
        # moderate k; every tier compacts on the same (4th) delete.
        # The top of one fixed angle is indexed before and after it.
        index, _ = tier(_tuples(40), k=8)
        top = RankedJoinIndex.build(_tuples(40), 8).query((0.5, 0.5), 6)
        for i, victim in enumerate(top):
            index.delete(victim.tid)
            assert index.delta.n_tombstones == (i + 1) % 4
            assert index.k_effective == 8 - (i + 1) % 4
        assert index.k_effective == 8 - 2 and index.n_live == 34

    def test_non_skyband_deletes_cost_nothing(self, tier):
        # Lemma 2 on the write side: a delete of a K-dominated tuple
        # hides no indexed row, so it neither lowers k_effective nor
        # counts toward either read trigger — past ``threshold`` it stays
        # buffered until the log reaches the live count (120 - j <= j).
        index, _ = tier(threshold=30)
        pool = {t.tid: t for t in _tuples()}
        indexed = set(RankedJoinIndex.build(_tuples(), 12).dominating.tids.tolist())
        outside = [tid for tid in sorted(pool) if tid not in indexed]
        for i, tid in enumerate(outside[:59]):
            assert index.delete(tid) == 12
            del pool[tid]
            assert index.delta.n_tombstones == i + 1
        assert index.delta.n_charged == 0 and index.delta.is_transparent
        _assert_matches_rebuild(index, pool, 12, 12)
        index.delete(outside[59])  # the 60th record: the log bound fires
        assert index.delta.is_empty and index.k_effective == 12

    def test_explicit_compact_empties_the_delta(self, tier):
        # Under every build variant: exact while buffered, exact after.
        pool = {t.tid: t for t in _tuples()[1:]}
        pool[7000] = RankTuple(7000, 0.9, 0.9)
        for options in ({}, {"variant": "ordered"}, {"merge_slack": 3}):
            index, _ = tier(**options)
            index.insert(RankTuple(7000, 0.9, 0.9))
            assert index.delete(0) == index.k_effective == 11
            _assert_matches_rebuild(index, pool, 12, 6, **options)
            index.compact()
            assert index.delta.is_empty and index.k_effective == 12
            _assert_matches_rebuild(index, pool, 12, 6, **options)

    def test_writes_merge_exactly(self, tier):
        # A seeded insert/delete/compact stream against the oracle, in
        # three phases: mixed; skyband-heavy (every write lands in the
        # top-K band, so it is charged or visible — deletes take the best
        # original tuple, which the base holds); skyband-free (every
        # write is K-dominated, so none is).
        index, _ = tier(threshold=7)
        pool = {t.tid: t for t in _tuples()}
        rng = np.random.default_rng(5)
        victims = {
            "mixed": lambda: int(rng.choice(sorted(pool))),
            "heavy": lambda: max(
                (t for t in pool.values() if t.tid < 1000),
                key=lambda t: t.s1 + t.s2,
            ).tid,
            "free": lambda: min(pool.values(), key=lambda t: t.s1 + t.s2).tid,
        }
        ranks = {"mixed": (0.0, 1.0), "heavy": (0.9, 1.0), "free": (0.0, 0.02)}
        heavy_charged = 0
        for step in range(105):
            phase = "mixed" if step < 45 else "heavy" if step < 75 else "free"
            if step % 3 == 2:
                victim = victims[phase]()
                index.delete(victim)
                del pool[victim]
            else:
                lo, hi = ranks[phase]
                pool[1000 + step] = RankTuple(
                    1000 + step,
                    lo + (hi - lo) * float(rng.random()),
                    lo + (hi - lo) * float(rng.random()),
                )
                assert index.insert(pool[1000 + step]) is True
            if step % 20 == 19:
                index.compact()
            if phase == "heavy":
                heavy_charged = max(heavy_charged, index.delta.n_charged)
            if step % 4 == 0:
                _assert_matches_rebuild(index, pool, 12, 6, seed=step)
            if step in (44, 74):
                _assert_matches_rebuild(index, pool, 12, index.k_effective)
        assert index.n_live == len(pool)
        assert heavy_charged >= 2
        # Only free-phase writes are still buffered: reads take the
        # plain path and the full bound is answerable.
        assert index.delta.is_transparent and not index.delta.is_empty
        _assert_matches_rebuild(index, pool, 12, 12)

    def test_reads_take_no_lock(self, tier):
        # The test thread holds the one writer lock; every read surface
        # must still answer, from another thread, what it answered before.
        index, _ = tier()
        index.insert(RankTuple(999, 2.0, 2.0))  # a visible buffered write
        index.delete(int(index.query((1.0, 1.0), 2)[1].tid))  # a charged one
        preferences = random_preferences(6, seed=4)

        def read():
            explain = getattr(index, "explain", None)
            return (
                [index.query(p, 5) for p in preferences],
                index.query_batch(preferences, 5),
                explain and list(explain(preferences[0], 5).results),
                index.k_effective,
                index.delta.n_ops,
                index.n_live,
            )

        expected, answered = read(), []
        with index.lock:
            reader = threading.Thread(target=lambda: answered.append(read()))
            reader.start()
            reader.join(timeout=5.0)
            held_throughout = reader.is_alive()
        reader.join(timeout=10.0)
        assert not held_throughout, "a read waited for the writer lock"
        assert answered == [expected]

    def test_every_read_equals_the_oracle_at_some_lsn(self, tier):
        # ~1 s of paced writes on one thread, reads on two others: each
        # read must equal the full-scan oracle over the live set after
        # some prefix of the writes, between the writes finished when it
        # started and the writes begun when it ended.  A torn view (a
        # base paired with a delta of another generation, a half-applied
        # write) matches no prefix.  A batch is answered from one view:
        # all its answers equal the oracle at one common prefix.
        base = _tuples(200, seed=5)
        index, _ = tier(base, k=10, threshold=16)
        rng = np.random.default_rng(8)
        live = {t.tid: t for t in base}
        writes, states = [], [dict(live)]
        for step in range(200):
            if step % 3 == 2:
                victim = int(rng.choice(sorted(live)))
                del live[victim]
                writes.append((index.delete, victim))
            else:
                # Mostly above the base's top-K, so most inserts change
                # answers and a stale or torn view shows.
                ranks = 0.6 + 0.6 * rng.random(2)
                fresh = RankTuple(1000 + step, *map(float, ranks))
                live[fresh.tid] = fresh
                writes.append((index.insert, fresh))
            states.append(dict(live))
        progress = {"started": 0, "done": 0}

        def writer():
            for call, argument in writes:
                progress["started"] += 1
                call(argument)
                progress["done"] += 1
                time.sleep(0.004)

        reads, batches = [], []

        def reader(seed):
            preferences = random_preferences(64, seed=seed)
            while thread.is_alive():
                for preference in preferences[:8]:
                    first = progress["done"]
                    answer = index.query(preference, 2)
                    reads.append((preference, first, progress["started"], answer))
                first = progress["done"]
                answers = index.query_batch(preferences[:32], 2)
                batches.append(
                    (preferences[:32], first, progress["started"], answers)
                )
                preferences = preferences[8:] + preferences[:8]
                time.sleep(0.005)

        thread = threading.Thread(target=writer)
        readers = [threading.Thread(target=reader, args=(s,)) for s in (1, 2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave inside every write
        try:
            thread.start()
            for r in readers:
                r.start()
            for t in (thread, *readers):
                t.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in (thread, *readers))
        oracles = {}

        def oracle(step, preference):
            if step not in oracles:
                pool = RankTupleSet.from_tuples(sorted(states[step].values()))
                oracles[step] = FullScanTopK(pool)
            return oracles[step].query(as_preference(preference), 2)

        torn = [
            (first, last)
            for preference, first, last, answer in reads
            if not any(
                answer == oracle(step, preference)
                for step in range(first, last + 1)
            )
        ]
        assert torn == []
        assert len({first for _, first, _, _ in reads}) > 50  # reads overlapped
        torn_batches = [
            (first, last)
            for preferences, first, last, answers in batches
            if not any(
                all(
                    answer == oracle(step, preference)
                    for preference, answer in zip(preferences, answers)
                )
                for step in range(first, last + 1)
            )
        ]
        assert torn_batches == []


    def _stall_first_build(self, monkeypatch):
        """Park the next ``RankedJoinIndex.build`` until released."""
        stalled, release = threading.Event(), threading.Event()
        real_build = RankedJoinIndex.build

        def stalling_build(tuples, k, **options):
            if not stalled.is_set():
                stalled.set()
                assert release.wait(10.0)
            return real_build(tuples, k, **options)

        monkeypatch.setattr(RankedJoinIndex, "build", stalling_build)
        return stalled, release

    def test_a_stalled_build_blocks_no_other_writer(self, tier, monkeypatch):
        # One writer's compaction parks in its build, which holds no
        # writer lock: another thread's insert and delete are
        # acknowledged meanwhile, reads answer, and the swap keeps the
        # two writes buffered.
        index, _ = tier(threshold=2)
        pool = {t.tid: t for t in _tuples()}
        top = max(pool.values(), key=lambda t: t.s1 + t.s2)
        stalled, release = self._stall_first_build(monkeypatch)

        def compacting_writer():
            for tid, rank in [(5000, 0.99), (5001, 0.98)]:
                index.insert(RankTuple(tid, rank, rank))

        def other_writer():
            index.insert(RankTuple(5002, 0.97, 0.97))
            index.delete(top.tid)

        writer = threading.Thread(target=compacting_writer)
        writer.start()
        try:
            assert stalled.wait(10.0)
            other = threading.Thread(target=other_writer)
            other.start()
            other.join(timeout=1.0)
            assert not other.is_alive(), "a writer waited for another's build"
            for tid, rank in [(5000, 0.99), (5001, 0.98), (5002, 0.97)]:
                pool[tid] = RankTuple(tid, rank, rank)
            del pool[top.tid]
            _assert_matches_full_scan(index, pool, 6)
            assert index.compaction_pauses == []
        finally:
            release.set()
            writer.join(timeout=10.0)
        assert not writer.is_alive()
        assert len(index.compaction_pauses) == 1
        delta = index.delta
        assert (delta.n_ops, delta.n_charged, delta.n_visible) == (2, 1, 1)
        _assert_matches_full_scan(index, pool, 6)

    def test_background_compaction_preserves_answers(self, tier):
        # A compaction builds in the background of another writer: two
        # threads insert at once, so one's inserts land while the other's
        # build runs off the writer lock, and every swap keeps them.
        index, _ = tier(threshold=5)
        pool = {t.tid: t for t in _tuples()}
        for i in range(24):
            pool[4000 + i] = RankTuple(4000 + i, 0.2 + 0.03 * i, 0.99)

        def writer(start):
            for i in range(start, 24, 2):
                index.insert(pool[4000 + i])

        threads = [threading.Thread(target=writer, args=(s,)) for s in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert not any(thread.is_alive() for thread in threads)
        assert index.compaction_pauses and index.delta.n_ops < 24
        _assert_matches_rebuild(index, pool, 12, 6)

    def test_compactions_build_one_at_a_time(self, tier, monkeypatch):
        # Two threads compacting while a third writes: every build runs
        # alone (the compaction lock), and nothing is lost between them.
        index, _ = tier(threshold=3)
        pool = {t.tid: t for t in _tuples()}
        real_build = RankedJoinIndex.build
        guard, running, widths = threading.Lock(), [0], []

        def counting_build(tuples, k, **options):
            with guard:
                running[0] += 1
                widths.append(running[0])
            try:
                time.sleep(0.002)
                return real_build(tuples, k, **options)
            finally:
                with guard:
                    running[0] -= 1

        def compactor():
            for _ in range(6):
                index.compact()

        def writer():
            for i in range(30):
                index.insert(pool[8000 + i])

        for i in range(30):
            pool[8000 + i] = RankTuple(8000 + i, 0.5 + 0.01 * i, 0.9)
        monkeypatch.setattr(RankedJoinIndex, "build", counting_build)
        threads = [threading.Thread(target=f) for f in (compactor, compactor, writer)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads inside every step
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(widths) >= 12 and max(widths) == 1
        assert len(index.compaction_pauses) == len(widths)
        _assert_matches_rebuild(index, pool, 12, 6)

    def test_rebuild_drops_an_in_flight_compaction(self, tier, monkeypatch):
        # A writer's build from the pre-rebuild pool, swapped in after
        # rebuild() reset the base, would serve the discarded live set.
        index, _ = tier(threshold=2)
        stalled, release = self._stall_first_build(monkeypatch)

        def compacting_writer():
            for tid, rank in [(5000, 0.99), (5001, 0.98)]:
                index.insert(RankTuple(tid, rank, rank))

        writer = threading.Thread(target=compacting_writer)
        writer.start()
        try:
            assert stalled.wait(10.0)
            other = {
                10_000 + t.tid: RankTuple(10_000 + t.tid, t.s1, t.s2)
                for t in _tuples(150, seed=8)
            }
            index.rebuild(other.values())
        finally:
            release.set()
            writer.join(timeout=10.0)
        assert not writer.is_alive() and index.compaction_pauses == []
        assert index.n_live == 150 and index.delta.is_empty
        _assert_matches_rebuild(index, other, 12, 12)

    def test_swap_reclassifies_writes_newer_than_the_snapshot(
        self, tier, monkeypatch
    ):
        # Writes that land between a compaction's snapshot and its swap
        # stay buffered and are judged against the *fresh* base.
        index, _ = tier()
        pool = {t.tid: t for t in _tuples()}
        pool[5000] = RankTuple(5000, 0.99, 0.99)
        index.insert(pool[5000])
        real_build = RankedJoinIndex.build

        def build_while_writing(tuples, k, **options):
            # On the off-lock build step, once: the snapshot is taken.
            monkeypatch.setattr(RankedJoinIndex, "build", real_build)
            del pool[5000]
            assert index.delete(5000) == 12  # the old base never held it
            for tid, rank in [(5001, 0.01), (5002, 0.98)]:
                pool[tid] = RankTuple(tid, rank, rank)
                index.insert(pool[tid])
            return real_build(tuples, k, **options)

        monkeypatch.setattr(RankedJoinIndex, "build", build_while_writing)
        index.compact()
        # The fresh base holds tid 5000, so its tombstone is charged now.
        delta = index.delta
        assert (delta.n_ops, delta.n_charged, delta.n_visible) == (3, 1, 1)
        assert index.k_effective == 11
        _assert_matches_rebuild(index, pool, 12, 11)

    def test_a_triggered_compaction_emits_one_span_and_one_reason(self, tier):
        recorder = MetricsRecorder()
        index, _ = tier(threshold=2, recorder=recorder)
        for tid, rank in [(5000, 0.99), (5001, 0.98)]:
            index.insert(RankTuple(tid, rank, rank))
        spans = [s for s in recorder.spans if s.name == "compaction"]
        assert [s.attributes["reason"] for s in spans] == ["visible"]
        assert recorder.counter("compaction.runs") == 1
        assert [recorder.counter(name) for name in TRIGGERS.values()] == [0, 1, 0]
        assert len(index.compaction_pauses) == 1
        assert recorder.counter("delta.inserts") == 2

    def test_compact_always_rebuilds(self, tier):
        # One meaning on every log: an explicit compact() swaps in a
        # fresh base even when the delta is empty.
        index, _ = tier()
        before = index.index
        index.compact()
        assert len(index.compaction_pauses) == 1
        assert index.index is not before and index.delta.is_empty


class TestManagedWalMode(WritePathContract):
    """``WritableRankedJoinIndex.build`` over a tuple set."""

    def make(self, directory, wal, tuples, k, threshold, **options):
        return WritableRankedJoinIndex.build(
            tuples, k, wal=wal, compaction_threshold=threshold, **options
        )


class TestConcurrentWalMode(WritePathContract):
    """The constructor, adopting a built index and its full live pool."""

    def make(self, directory, wal, tuples, k, threshold, **options):
        return WritableRankedJoinIndex(
            RankedJoinIndex.build(tuples, k, **options),
            as_pool(tuples),
            wal,
            compaction_threshold=threshold,
            build_options=options,
        )

    def test_adopting_needs_the_pool(self):
        # A pruned index knows only its dominating set; compacting from
        # it would forget what pruning dropped, so the pool is required.
        index = RankedJoinIndex.build(_tuples(200), 3)
        with pytest.raises(TypeError, match="pool"):
            WritableRankedJoinIndex(index)


class TestDurableWalMode(WritePathContract):
    def make(self, directory, wal, tuples, k, threshold, **options):
        return DurableRankedJoinIndex.create(
            directory,
            tuples,
            k,
            compaction_threshold=threshold,
            fsync=False,
            **options,
        )

    def test_build_without_a_directory_is_refused(self):
        # The inherited build() would return an index that owns no
        # directory and survives nothing.
        with pytest.raises(ConstructionError, match=r"create\("):
            DurableRankedJoinIndex.build(_tuples(), 12)


def test_swap_refuses_a_build_whose_base_was_reset(monkeypatch):
    # A rebuild with no write after it leaves the snapshot LSN current,
    # so only the generation can tell the compaction's build is stale.
    tuples = _tuples()
    index = WritableRankedJoinIndex(
        RankedJoinIndex.build(tuples, 12), as_pool(tuples)
    )
    real_build = RankedJoinIndex.build

    def rebuild_meanwhile(snapshot, k, **options):
        monkeypatch.setattr(RankedJoinIndex, "build", real_build)
        index.rebuild(tuples[1:])
        return real_build(snapshot, k, **options)

    monkeypatch.setattr(RankedJoinIndex, "build", rebuild_meanwhile)
    lsn = index.wal.last_lsn
    index.compact()
    assert index.wal.last_lsn == lsn and index.compaction_pauses == []
    assert index.n_live == 119 and 0 not in {t.tid for t in index.live_tuples()}
    index.compact()
    assert len(index.compaction_pauses) == 1
    _assert_matches_rebuild(index, as_pool(tuples[1:]), 12, 12)


def test_every_trigger_counter_is_registered():
    # The triggers count through a lookup, which lint-names cannot see.
    assert set(TRIGGERS.values()) <= COUNTERS


class TestMaintenanceEdgeCases:
    """Managed-tier edge cases; ``legacy`` omits ``wal=``, ``wal`` passes a log."""

    @pytest.fixture(params=["legacy", "wal"])
    def managed(self, request):
        wal = MemoryLog() if request.param == "wal" else None
        return WritableRankedJoinIndex.build(
            _tuples(), 10, wal=wal, compaction_threshold=1000
        )

    def test_duplicate_tid_insert_is_typed(self, managed):
        with pytest.raises(MaintenanceError, match="already live"):
            managed.insert(RankTuple(0, 0.9, 0.9))
        # The failed insert left no trace: delete of tid 0 still works.
        managed.delete(0)

    def test_delete_of_absent_tid_is_typed(self, managed):
        with pytest.raises(MaintenanceError, match="is not live"):
            managed.delete(10_000)
        managed.check_invariants()

    def test_rejected_insert_leaves_the_pool_rebuildable(self, managed):
        # A tuple pooled before it is validated would make every later
        # rebuild() raise ConstructionError and refuse a retry with good
        # values as "already live".
        for bad in (float("nan"), float("inf")):
            with pytest.raises(MaintenanceError, match="must be finite"):
                managed.insert(RankTuple(777, 0.5, bad))
        assert managed.n_live == 120
        managed.compact()
        managed.insert(RankTuple(777, 0.5, 0.5))
        assert managed.n_live == 121
        managed.check_invariants()

    def test_insert_on_region_boundary_angle(self, managed):
        # A twin of a live tuple ties with it at *every* angle, region
        # boundaries included: the canonical tid tie-break, end to end.
        twin_of = managed.index.dominating
        twin = RankTuple(5555, float(twin_of.s1[0]), float(twin_of.s2[0]))
        managed.insert(twin)
        reference = RankedJoinIndex.build(_tuples() + [twin], 10)
        for region in reference.regions:
            pref = (np.cos(region.lo), np.sin(region.lo))
            assert managed.query(pref, 5) == reference.query(pref, 5)

    def test_delete_emptying_a_region(self):
        # k_bound=1: deleting a region's only tuple empties it; the
        # write path merges around the tombstone.
        tuples = [RankTuple(0, 1.0, 0.1), RankTuple(1, 0.1, 1.0), RankTuple(2, 0.5, 0.5)]
        buffered = WritableRankedJoinIndex.build(tuples, 1)
        victim = min(tid for region in buffered.index.regions for tid in region.tids)
        buffered.delete(victim)
        pool = {t.tid: t for t in tuples if t.tid != victim}
        _assert_matches_rebuild(buffered, pool, 1, 1)
        buffered.check_invariants()

    def test_check_invariants_catches_a_pool_out_of_step(self):
        tuples = _tuples()
        index = RankedJoinIndex.build(tuples, 5)
        pool = as_pool(tuples)
        short = dict(pool)
        del short[int(index.dominating.tids[0])]
        with pytest.raises(MaintenanceError, match="indexed tuple"):
            WritableRankedJoinIndex(index, short).check_invariants()
        writable = WritableRankedJoinIndex(index, pool)
        writable.insert(RankTuple(10**6, 9.0, 9.0))  # ranked first
        del pool[10**6]  # the caller broke the pool it handed over
        with pytest.raises(MaintenanceError, match="buffered insert"):
            writable.check_invariants()

    def test_delete_returns_k_effective_in_both_modes(self, managed):
        assert managed.delete(3) == managed.k_effective
