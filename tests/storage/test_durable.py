"""Durable index lifecycle and the crash-recovery chaos contract.

The contract, checked for every crash plan and for a physically torn
WAL tail:

* every **acknowledged** write (insert/delete that returned) survives
  recovery with the exact values written;
* the one **unacknowledged** in-flight write survives whole or is
  cleanly absent — never half-applied, and recovery never raises;
* recovered answers are **bit-identical** to a from-scratch rebuild of
  the recovered live set, through ``DurableRankedJoinIndex`` *and*
  through ``DiskRankedJoinIndex.recover`` (eager and mmap).
"""

import math
import os
import shutil
import stat
from dataclasses import replace

import numpy as np
import pytest

from repro.core.delta import DeltaStore
from repro.core.index import RankedJoinIndex
from repro.core.tuples import RankTuple
from repro.datagen.preferences import random_preferences
from repro.errors import (
    ConstructionError,
    CorruptPageError,
    InvalidQueryError,
    MaintenanceError,
    StorageError,
    TransientStorageError,
)
from repro.faults import arm, builtin_plan
from repro.obs import MetricsRecorder
from repro.storage.diskindex import DiskRankedJoinIndex
from repro.storage import durable
from repro.storage.durable import DurableRankedJoinIndex
from repro.storage.pager import Pager
from repro.storage.wal import WAL_RECORD_SIZE, WriteAheadLog


def _tuples(n=150, seed=3):
    rng = np.random.default_rng(seed)
    return [
        RankTuple(i, float(a), float(b))
        for i, (a, b) in enumerate(zip(rng.random(n), rng.random(n)))
    ]


def _assert_matches_rebuild(index, pool, k_bound, k, *, n_prefs=15):
    reference = RankedJoinIndex.build(sorted(pool.values()), k_bound)
    for preference in random_preferences(n_prefs, seed=21):
        assert index.query(preference, k) == reference.query(preference, k)


def _assert_recovers_to(directory, pool, *, mmap=False, torn_tails=0):
    """Both recovery front doors reproduce exactly ``pool``, bit for bit."""
    # A replaying durable recovery saves a fresh image and checkpoint,
    # so the disk front door opens a copy of the directory as it was.
    as_left = directory.with_name(directory.name + "-as-left")
    shutil.copytree(directory, as_left)
    recovered = DurableRankedJoinIndex.recover(directory, fsync=False)
    assert recovered.last_recovery.torn_tails == torn_tails
    assert {t.tid: t for t in recovered.live_tuples()} == pool
    _assert_matches_rebuild(recovered, pool, 12, 6)
    recovered.close()
    # The disk image may pre- or post-date a crash point; image + WAL
    # replay converge on the same answers either way (the delta-
    # supersedes-base rule absorbs double-covered records).
    disk = DiskRankedJoinIndex.recover(
        as_left / "base.rji", as_left / "wal", mmap=mmap
    )
    assert disk.last_recovery.torn_tails == torn_tails
    _assert_matches_rebuild(disk, pool, 12, 6)


class TestLifecycle:
    def test_create_write_close_recover(self, tmp_path):
        index = DurableRankedJoinIndex.create(tmp_path, _tuples(), 12, fsync=False)
        pool = {t.tid: t for t in _tuples()}
        _write_mixed(index, pool)
        index.close()

        recovered = DurableRankedJoinIndex.recover(tmp_path, fsync=False)
        report = recovered.last_recovery
        assert report.replayed == 10 and report.checkpoint_lsn == 0
        assert report.n_live == recovered.n_live == len(pool)
        recovered.close()
        _assert_recovers_to(tmp_path, pool)

    def test_recover_clean_directory_is_a_noop_replay(self, tmp_path):
        DurableRankedJoinIndex.create(tmp_path, _tuples(), 10, fsync=False).close()
        recovered = DurableRankedJoinIndex.recover(tmp_path, fsync=False)
        assert recovered.last_recovery.replayed == 0
        assert recovered.n_live == 150
        recovered.close()

    def test_compaction_checkpoints_and_prunes(self, tmp_path):
        index = DurableRankedJoinIndex.create(
            tmp_path, _tuples(), 12, compaction_threshold=4, fsync=False
        )
        pool = {t.tid: t for t in _tuples()}
        for i in range(9):  # 9 visible inserts cross the threshold twice
            t = RankTuple(900 + i, 0.9 + 0.01 * i, 0.97)
            index.insert(t)
            pool[t.tid] = t
        assert len(index.compaction_pauses) == 2 and index.delta.n_ops == 1
        assert index.wal.checkpoint_lsn > 0
        index.close()
        # Post-compaction recovery replays only past the checkpoint.
        recovered = DurableRankedJoinIndex.recover(tmp_path, fsync=False)
        assert recovered.last_recovery.checkpoint_lsn > 0
        assert recovered.last_recovery.replayed == 1
        recovered.close()
        _assert_recovers_to(tmp_path, pool)

    def test_write_after_reopening_a_compacted_directory_survives(self, tmp_path):
        # Regression: a compaction pruned the log down to an empty
        # segment, so the reopened log restarted at LSN 1 — below the
        # pool snapshot's checkpoint — and the next recovery skipped
        # the acknowledged insert made after the reopen.
        index = DurableRankedJoinIndex.create(
            tmp_path, _tuples(), 12, compaction_threshold=4, fsync=False
        )
        pool = {t.tid: t for t in _tuples()}
        for i in range(4):
            pool[900 + i] = RankTuple(900 + i, 0.9 + 0.01 * i, 0.97)
            index.insert(pool[900 + i])
        assert len(index.compaction_pauses) == 1 and index.delta.is_empty
        index.close()
        reopened = DurableRankedJoinIndex.recover(tmp_path, fsync=False)
        pool[5000] = RankTuple(5000, 0.5, 0.5)
        reopened.insert(pool[5000])
        reopened.close()
        _assert_recovers_to(tmp_path, pool)

    def test_compaction_span_names_its_reason(self, tmp_path):
        recorder = MetricsRecorder()
        index = DurableRankedJoinIndex.create(
            tmp_path, _tuples(), 12, compaction_threshold=4, fsync=False,
            recorder=recorder,
        )
        for i in range(4):
            index.insert(RankTuple(900 + i, 0.9 + 0.01 * i, 0.97))
        index.compact()
        index.close()
        assert [
            span.attributes["reason"]
            for span in recorder.spans
            if span.name == "compaction"
        ] == ["visible", "requested"]
        assert recorder.counter("compaction.runs") == 2
        assert recorder.counter("compaction.reason.visible") == 1
        assert recorder.counter("compaction.reason.charged") == 0

    @pytest.mark.parametrize("mmap", [False, True], ids=["eager", "mmap"])
    def test_disk_recover_ignores_deletes_the_image_never_held(self, tmp_path, mmap):
        # Regression: 100 replayed deletes of K-dominated tuples used to
        # be subtracted from the image's count (n_live went negative)
        # and charged against its slack (k = K was refused).
        index = DurableRankedJoinIndex.create(
            tmp_path, _tuples(400), 3, compaction_threshold=1000, fsync=False
        )
        pool = {t.tid: t for t in _tuples(400)}
        indexed = RankedJoinIndex.build(_tuples(400), 3).dominating.tids.tolist()
        for tid in [tid for tid in sorted(pool) if tid not in indexed][:100]:
            index.delete(tid)
            del pool[tid]
        index.close()
        image, wal = tmp_path / "base.rji", tmp_path / "wal"
        disk = DiskRankedJoinIndex.recover(image, wal, mmap=mmap)
        assert disk.last_recovery.replayed == 100
        assert disk.last_recovery.n_live == len(indexed) > 3
        assert disk.delta.n_tombstones == 100 and disk.delta.n_charged == 0
        _assert_matches_rebuild(disk, pool, 3, 3)

        # One delete the image does hold, one insert it can serve.
        reopened = DurableRankedJoinIndex.recover(
            tmp_path, compaction_threshold=1000, fsync=False
        )
        pool[9000] = RankTuple(9000, 0.97, 0.97)
        reopened.insert(pool[9000])
        reopened.delete(indexed[0])
        del pool[indexed[0]]
        reopened.close()
        disk = DiskRankedJoinIndex.recover(image, wal, mmap=mmap)
        assert disk.last_recovery.n_live == len(indexed) - 1 + 1
        assert (disk.delta.n_charged, disk.delta.n_visible) == (1, 1)
        _assert_matches_rebuild(disk, pool, 3, 2)
        with pytest.raises(InvalidQueryError, match="compact"):
            disk.query((0.5, 0.5), 3)

    @pytest.mark.parametrize("mmap", [False, True], ids=["eager", "mmap"])
    def test_recover_replays_a_long_inert_log(self, tmp_path, mmap):
        # Inert writes never force a rebuild, so the WAL past the
        # checkpoint holds far more than ``threshold`` records; both
        # recovery front doors replay every one and answer exactly.
        index = DurableRankedJoinIndex.create(
            tmp_path, _tuples(), 12, compaction_threshold=8, fsync=False
        )
        pool = {t.tid: t for t in _tuples()}
        indexed = set(RankedJoinIndex.build(_tuples(), 12).dominating.tids.tolist())
        outside = iter([tid for tid in sorted(pool) if tid not in indexed])
        for i in range(100):
            if i % 2 == 0:  # strictly dominated by 12+ indexed tuples
                pool[7000 + i] = RankTuple(7000 + i, 0.001 * (1 + i % 7), 0.002)
                index.insert(pool[7000 + i])
            else:  # the insert just made, or an original outside D
                victim = 7000 + i - 1 if i % 4 == 1 else next(outside)
                index.delete(victim)
                del pool[victim]
        _write_mixed(index, pool, n=4)
        assert not index.compaction_pauses and index.delta.n_ops > 8
        index.close()

        disk = DiskRankedJoinIndex.recover(
            tmp_path / "base.rji", tmp_path / "wal", mmap=mmap
        )
        assert disk.last_recovery.replayed == 104
        _assert_matches_rebuild(disk, pool, 12, 12 - disk.delta.n_charged)
        del disk
        recovered = DurableRankedJoinIndex.recover(tmp_path, fsync=False)
        assert recovered.last_recovery.replayed == 104
        recovered.close()
        _assert_recovers_to(tmp_path, pool, mmap=mmap)

    @pytest.mark.parametrize("mmap", [False, True], ids=["eager", "mmap"])
    def test_recovery_saves_the_base_it_rebuilt(self, tmp_path, mmap):
        # Replayed inserts that outrank every original push the saved
        # image's dominating set out of the rebuilt base's.  Deletes of
        # those tuples are inert against the base but charged against
        # the image, so a replaying recovery must save its base.
        index = DurableRankedJoinIndex.create(tmp_path, _tuples(), 12, fsync=False)
        pool = {t.tid: t for t in _tuples()}
        for i in range(12):
            pool[8000 + i] = RankTuple(8000 + i, 2.0 + 0.01 * i, 2.0 - 0.01 * i)
            index.insert(pool[8000 + i])
        index.close()
        reopened = DurableRankedJoinIndex.recover(tmp_path, fsync=False)
        assert reopened.last_recovery.replayed == 12
        displaced = RankedJoinIndex.build(_tuples(), 12).dominating.tids.tolist()
        for tid in displaced[:12]:
            assert reopened.delete(tid) == 12
            del pool[tid]
        reopened.close()
        disk = DiskRankedJoinIndex.recover(
            tmp_path / "base.rji", tmp_path / "wal", mmap=mmap
        )
        assert disk.delta.n_charged == 0
        _assert_matches_rebuild(disk, pool, 12, 12)

    def test_write_validation_is_typed(self, tmp_path):
        index = DurableRankedJoinIndex.create(tmp_path, _tuples(), 10, fsync=False)
        # Wording and in-memory effects are the cross-tier contract in
        # tests/core/test_write_path.py; the durable-only half is that
        # rejected writes left nothing in the log for recovery to replay.
        with pytest.raises(MaintenanceError, match="already live"):
            index.insert(RankTuple(0, 0.9, 0.9))
        with pytest.raises(MaintenanceError, match="is not live"):
            index.delete(10_000)
        with pytest.raises(MaintenanceError, match="finite"):
            index.insert(RankTuple(700, float("inf"), 0.5))
        index.close()
        recovered = DurableRankedJoinIndex.recover(tmp_path, fsync=False)
        assert recovered.last_recovery.replayed == 0
        recovered.close()


def _spy_wal_handles(monkeypatch):
    """Every segment handle a durable constructor's log opens."""
    handles = []

    class SpiedLog(WriteAheadLog):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            handles.append(self._handle)

    monkeypatch.setattr(durable, "WriteAheadLog", SpiedLog)
    return handles


class TestConstructorsCloseTheLog:
    """A constructor that raises after opening the WAL closes it."""

    def test_create_closes_the_log_when_saving_fails(
        self, tmp_path, monkeypatch
    ):
        handles = _spy_wal_handles(monkeypatch)

        def refuse(pager, path):
            raise OSError("disk full")

        monkeypatch.setattr(Pager, "save", refuse)
        with pytest.raises(OSError, match="disk full"):
            DurableRankedJoinIndex.create(tmp_path, _tuples(), 12, fsync=False)
        assert len(handles) == 1 and handles[0].closed

    def test_recover_closes_the_log_when_the_build_fails(
        self, tmp_path, monkeypatch
    ):
        DurableRankedJoinIndex.create(tmp_path, _tuples(), 12, fsync=False).close()
        handles = _spy_wal_handles(monkeypatch)
        with pytest.raises(ConstructionError):
            DurableRankedJoinIndex.recover(tmp_path, variant="bogus", fsync=False)
        assert len(handles) == 1 and handles[0].closed


#: Write buffers the disk tier merges, as WAL records replayed onto the
#: image; ``d`` is the base's dominating tids (the rows a write can hide).
_MERGE_CASES = {
    "charged-deletes": lambda d: [("delete", d[0]), ("delete", d[3])],
    "visible-inserts": lambda d: [
        ("insert", RankTuple(9000, 0.99, 0.99)),
        ("insert", RankTuple(9001, 0.999, 0.05)),
        ("insert", RankTuple(9002, 0.05, 0.999)),
    ],
    "insert-supersedes-base": lambda d: [
        ("insert", RankTuple(d[1], 0.97, 0.96))
    ],
    "delete-then-reinsert": lambda d: [
        ("delete", d[2]),
        ("insert", RankTuple(d[2], 0.4, 0.995)),
    ],
    "all": lambda d: [
        ("delete", d[0]),
        ("insert", RankTuple(9000, 0.99, 0.99)),
        ("insert", RankTuple(d[1], 0.97, 0.96)),
        ("delete", d[2]),
        ("insert", RankTuple(d[2], 0.4, 0.995)),
    ],
}


@pytest.mark.parametrize("mmap", [False, True], ids=["eager", "mmap"])
@pytest.mark.parametrize("variant", ["standard", "ordered"])
@pytest.mark.parametrize("case", sorted(_MERGE_CASES))
def test_disk_merge_is_the_memory_merge(tmp_path, case, variant, mmap):
    """One merge: the disk tier's merged answers are the in-memory
    tier's over the same base and write buffer, tids and score bits."""
    index = RankedJoinIndex.build(_tuples(), 8, variant=variant)
    image, wal_dir = tmp_path / "base.rji", tmp_path / "wal"
    DiskRankedJoinIndex(index).save(image)
    records = _MERGE_CASES[case](sorted(index.dominating.tids.tolist()))
    wal = WriteAheadLog(wal_dir, fsync=False)
    delta = DeltaStore()
    for op, arg in records:
        if op == "insert":
            wal.append_insert(*arg)
        else:
            wal.append_delete(arg)
            arg = RankTuple(arg, 0.0, 0.0)
        delta.replay(op, arg)
    wal.commit()
    wal.close()
    index.attach_delta(delta)
    disk = DiskRankedJoinIndex.recover(image, wal_dir, mmap=mmap)
    try:
        assert not disk.delta.is_transparent
        assert disk.k_bound - disk.delta.n_charged == index.k_effective
        for angle in [0.0, math.pi / 2, *index.store.lo.tolist()]:
            for k in range(1, index.k_effective + 1):
                assert [
                    (r.tid, r.score.hex()) for r in disk.query(angle, k)
                ] == [
                    (r.tid, r.score.hex()) for r in index.query(angle, k)
                ], (angle, k)
    finally:
        if mmap:
            disk.pager.close()


def _write_mixed(index, pool, n=10, base_tid=5000):
    """A deterministic insert/delete stream applied through ``index``."""
    for i in range(n):
        if i % 4 == 3:
            victim = sorted(pool)[i]
            index.delete(victim)
            del pool[victim]
        else:
            t = RankTuple(base_tid + i, 0.1 + 0.07 * i, 0.8 - 0.05 * i)
            index.insert(t)
            pool[t.tid] = t


class TestCrashContract:
    """Every acknowledged write survives; recovery never corrupts."""

    @pytest.mark.parametrize(
        "plan_name", ["crash-append", "crash-commit", "crash-apply"]
    )
    @pytest.mark.parametrize("mmap", [False, True])
    def test_crash_during_writes(self, tmp_path, plan_name, mmap):
        index = DurableRankedJoinIndex.create(tmp_path, _tuples(), 12, fsync=False)
        arm(builtin_plan(plan_name), durable=index)
        acked = {t.tid: t for t in _tuples()}
        inflight = None
        with pytest.raises(TransientStorageError):
            for i in range(20):
                t = RankTuple(5000 + i, 0.1 + 0.04 * i, 0.7)
                inflight = t
                index.insert(t)
                acked[t.tid] = t
                inflight = None
        assert inflight is not None  # the loop died mid-write
        index.close()

        recovered = DurableRankedJoinIndex.recover(tmp_path, fsync=False)
        live = {t.tid: t for t in recovered.live_tuples()}
        recovered.close()
        for tid, t in acked.items():
            assert live.get(tid) == t, f"acked write {tid} lost"
        # All-or-nothing for the in-flight insert.
        extra = set(live) - set(acked)
        assert extra in (set(), {inflight.tid})
        if extra:
            assert live[inflight.tid] == inflight
        _assert_recovers_to(tmp_path, live, mmap=mmap)

    @pytest.mark.parametrize("boundary", [0, 1, 2, 3])
    @pytest.mark.parametrize("mmap", [False, True])
    def test_crash_during_compaction(self, tmp_path, boundary, mmap):
        index = DurableRankedJoinIndex.create(
            tmp_path, _tuples(), 12, compaction_threshold=10**9,
            fsync=False,
        )
        pool = {t.tid: t for t in _tuples()}
        _write_mixed(index, pool)
        plan = builtin_plan("crash-compaction")
        plan = replace(plan, specs=(replace(plan.specs[0], at=boundary),))
        arm(plan, durable=index)
        with pytest.raises(TransientStorageError):
            index.compact()
        index.close()

        # Every write was acknowledged before the compaction started:
        # whatever boundary the crash hit, recovery must reproduce the
        # full pool exactly.
        _assert_recovers_to(tmp_path, pool, mmap=mmap)

    @pytest.mark.parametrize("mmap", [False, True])
    def test_torn_wal_tail(self, tmp_path, mmap):
        index = DurableRankedJoinIndex.create(tmp_path, _tuples(), 12, fsync=False)
        pool = {t.tid: t for t in _tuples()}
        _write_mixed(index, pool)
        index.close()
        newest = max((tmp_path / "wal").glob("wal-*.seg"))
        with newest.open("ab") as handle:
            handle.write(b"\x42" * (WAL_RECORD_SIZE - 5))

        _assert_recovers_to(tmp_path, pool, mmap=mmap, torn_tails=1)

    @pytest.mark.parametrize("front_door", ["durable", "disk"])
    @pytest.mark.parametrize("size", [0, 3, 17])
    def test_torn_segment_creation(self, tmp_path, size, front_door):
        # A kill between creating the next segment and making its
        # 18-byte header durable leaves it empty or short.  Nothing was
        # ever appended to it, so recovery re-creates it and answers
        # every acknowledged write from the segment before it.
        index = DurableRankedJoinIndex.create(tmp_path, _tuples(), 12, fsync=False)
        pool = {t.tid: t for t in _tuples()}
        angles = np.linspace(0.1, 1.4, 6)
        inserted = [
            RankTuple(5000 + i, 2.0 + math.cos(a), 2.0 + math.sin(a))
            for i, a in enumerate(angles)
        ]
        for t in inserted:
            index.insert(t)
            pool[t.tid] = t
        deleted = sorted(pool)[:2]
        for tid in deleted:
            index.delete(tid)
            del pool[tid]
        index.close()
        segments = sorted((tmp_path / "wal").glob("wal-*.seg"))
        seq = int(segments[-1].stem.split("-")[1]) + 1
        torn = tmp_path / "wal" / f"wal-{seq:08d}.seg"
        torn.write_bytes(segments[-1].read_bytes()[:size])

        if front_door == "durable":
            recovered = DurableRankedJoinIndex.recover(tmp_path, fsync=False)
            assert {t.tid: t for t in recovered.live_tuples()} == pool
        else:
            recovered = DiskRankedJoinIndex.recover(
                tmp_path / "base.rji", tmp_path / "wal"
            )
            assert recovered.last_recovery.replayed == len(inserted) + len(deleted)
        assert recovered.last_recovery.torn_tails == 1
        for t, angle in zip(inserted, angles):
            top = recovered.query((math.cos(angle), math.sin(angle)), 1)
            assert [r.tid for r in top] == [t.tid]
        for preference in random_preferences(15, seed=21):
            assert not set(deleted) & {
                r.tid for r in recovered.query(preference, 6)
            }
        _assert_matches_rebuild(recovered, pool, 12, 6)
        if front_door == "durable":
            recovered.close()
        # The segment was re-created with a whole header: reopening the
        # log finds nothing torn.
        wal = WriteAheadLog(tmp_path / "wal")
        assert wal.torn_tails == 0
        wal.close()

    def test_crash_between_segment_write_and_rename(self, tmp_path, monkeypatch):
        # A segment is created as wal-N.seg.tmp and renamed into place.
        # A kill between the two leaves the .tmp and no segment N: the
        # write whose commit filled segment N-1 is already durable, so
        # every write that reached its commit must recover, and the
        # .tmp is never read and is overwritten by the next create.
        small = 18 + 4 * WAL_RECORD_SIZE
        index = DurableRankedJoinIndex.create(
            tmp_path, _tuples(), 12, segment_bytes=small, fsync=False,
            compaction_threshold=10**9,
        )
        pool = {t.tid: t for t in _tuples()}
        real_replace = os.replace

        class Killed(BaseException):
            pass

        def replace_(src, dst):
            if str(src).endswith(".seg.tmp"):
                raise Killed
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace_)
        with pytest.raises(Killed):
            for i in range(10):
                t = RankTuple(5000 + i, 0.1 + 0.05 * i, 0.9 - 0.05 * i)
                pool[t.tid] = t  # durable once its commit ran
                index.insert(t)
        monkeypatch.setattr(os, "replace", real_replace)
        index.close()
        leftovers = list((tmp_path / "wal").glob("*.tmp"))
        assert [p.name for p in leftovers] == ["wal-00000002.seg.tmp"]

        _assert_recovers_to(tmp_path, pool)
        # The durable recovery replayed, so it checkpointed and created
        # the next segment over the leftover.
        assert not list((tmp_path / "wal").glob("*.tmp"))

    @pytest.mark.parametrize(
        "name,content",
        [
            ("wal-00000000.seg", b"RJI"),  # short, but sealed
            ("wal-00000009.seg", b"\x00" * 18),  # newest, full length
        ],
    )
    def test_other_bad_headers_stay_corrupt(self, tmp_path, name, content):
        index = DurableRankedJoinIndex.create(tmp_path, _tuples(), 12, fsync=False)
        index.close()
        (tmp_path / "wal" / name).write_bytes(content)
        with pytest.raises(CorruptPageError, match="corrupt header"):
            DurableRankedJoinIndex.recover(tmp_path, fsync=False)

    def test_crash_between_checkpoint_and_swap_then_write(self, tmp_path):
        # Crash at boundary 3 (snapshot durable, prune pending), then
        # keep writing after recovery: the stale delta entries covered
        # by the snapshot must not resurrect or double-apply.
        index = DurableRankedJoinIndex.create(
            tmp_path, _tuples(), 12, compaction_threshold=10**9,
            fsync=False,
        )
        pool = {t.tid: t for t in _tuples()}
        _write_mixed(index, pool)
        plan = builtin_plan("crash-compaction")
        plan = replace(plan, specs=(replace(plan.specs[0], at=3),))
        arm(plan, durable=index)
        with pytest.raises(TransientStorageError):
            index.compact()
        index.close()

        recovered = DurableRankedJoinIndex.recover(tmp_path, fsync=False)
        assert recovered.last_recovery.checkpoint_lsn > 0
        _write_mixed(recovered, pool, base_tid=6000)
        assert {t.tid: t for t in recovered.live_tuples()} == pool
        _assert_matches_rebuild(recovered, pool, 12, 6)
        recovered.close()


class TestPoolSnapshotMetadata:
    """A pool snapshot whose metadata disagrees with its pages is
    rejected typed.  The files are re-saved through the pager, so every
    checksum is valid and only the metadata check can catch them."""

    @pytest.mark.parametrize(
        "field,change,error,match",
        [
            (0, lambda magic: b"RJIPOOL9", StorageError, "not a pool snapshot"),
            (3, lambda size: size + 10**5, CorruptPageError, "payload is short"),
            (2, lambda n: n + 1, CorruptPageError, "metadata promises"),
            (3, lambda size: size - 1, CorruptPageError, "metadata promises"),
        ],
        ids=["magic", "short", "count", "ragged"],
    )
    def test_bad_metadata_is_typed(self, tmp_path, field, change, error, match):
        DurableRankedJoinIndex.create(tmp_path, _tuples(), 12, fsync=False).close()
        path = tmp_path / "pool.rjp"
        pager = Pager.load(path)
        meta = pager.read(0)
        fields = list(
            durable._POOL_META.unpack(meta.read_bytes(0, durable._POOL_META.size))
        )
        fields[field] = change(fields[field])
        meta.write_bytes(0, durable._POOL_META.pack(*fields))
        pager.write(0, meta)
        pager.save(path)
        with pytest.raises(error, match=match):
            DurableRankedJoinIndex.recover(tmp_path, fsync=False)


class TestCheckpointCoversTheSnapshot:
    """The build runs off the writer lock, so a write can be acknowledged
    between a compaction's snapshot and its persist step.  The
    checkpoint (WAL record and ``pool.rjp``) must cover the snapshot's
    LSN, not the log's tail, or both recoveries would skip that write."""

    @pytest.mark.parametrize("crash", [2, 3, "after-prune"])
    def test_a_write_during_the_build_survives(self, tmp_path, monkeypatch, crash):
        index = DurableRankedJoinIndex.create(
            tmp_path, _tuples(), 12, compaction_threshold=10**9, fsync=False
        )
        pool = {t.tid: t for t in _tuples()}
        _write_mixed(index, pool)
        # Ranked first at every angle, so every probe answer shows it.
        late = pool[7777] = RankTuple(7777, 1.5, 1.25)
        real_build = RankedJoinIndex.build

        def build_while_writing(tuples, k, **options):
            # The compaction's build, on the same thread: the snapshot
            # is taken and the writer lock is free.
            monkeypatch.setattr(RankedJoinIndex, "build", real_build)
            index.insert(late)
            return real_build(tuples, k, **options)

        monkeypatch.setattr(RankedJoinIndex, "build", build_while_writing)
        if crash == "after-prune":
            index.compact()
        else:
            plan = builtin_plan("crash-compaction")
            plan = replace(plan, specs=(replace(plan.specs[0], at=crash),))
            arm(plan, durable=index)
            with pytest.raises(TransientStorageError):
                index.compact()
        index.close()
        _assert_recovers_to(tmp_path, pool)


def _spy_renames_and_dir_syncs(monkeypatch):
    """Log, in order, every rename target and every directory fsync."""
    events = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        info = os.fstat(fd)
        if stat.S_ISDIR(info.st_mode):
            events.append(("dir-fsync", info.st_ino))
        return real_fsync(fd)

    def replace_(src, dst):
        real_replace(src, dst)
        events.append(("rename", os.path.basename(dst)))

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace_)
    return events


class TestPowerLossOrdering:
    """A rename is durable only once its directory is fsynced; a power
    loss may otherwise bring back the old ``base.rji`` / ``pool.rjp``
    beside a WAL whose checkpoint record already covers the new ones."""

    def test_pager_save_syncs_the_directory_after_the_rename(
        self, tmp_path, monkeypatch
    ):
        events = _spy_renames_and_dir_syncs(monkeypatch)
        pager = Pager(128)
        pager.allocate()
        pager.save(tmp_path / "file.pages")
        renamed = events.index(("rename", "file.pages"))
        assert ("dir-fsync", tmp_path.stat().st_ino) in events[renamed + 1 :]

    def test_base_image_is_durable_before_the_checkpoint_commits(
        self, tmp_path, monkeypatch
    ):
        index = DurableRankedJoinIndex.create(
            tmp_path, _tuples(), 12, compaction_threshold=4, fsync=False
        )
        events = _spy_renames_and_dir_syncs(monkeypatch)
        real_checkpoint = WriteAheadLog.checkpoint

        def checkpoint(wal, covered_lsn):
            events.append(("checkpoint",))
            return real_checkpoint(wal, covered_lsn)

        monkeypatch.setattr(WriteAheadLog, "checkpoint", checkpoint)
        for i in range(4):
            index.insert(RankTuple(900 + i, 0.9 + 0.01 * i, 0.97))
        assert len(index.compaction_pauses) == 1
        index.close()
        renamed = events.index(("rename", "base.rji"))
        committed = events.index(("checkpoint",))
        between = events[renamed + 1 : committed]
        assert ("dir-fsync", tmp_path.stat().st_ino) in between
