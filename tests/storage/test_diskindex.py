"""Tests for the disk-resident Ranked Join Index."""

import math
import sys
import threading

import numpy as np
import pytest

from repro.core.delta import DeltaStore
from repro.core.index import RankedJoinIndex
from repro.core.scoring import Preference
from repro.core.tuples import RankTuple, RankTupleSet
from repro.errors import QueryError, QueryTimeoutError
from repro.storage.diskindex import DiskRankedJoinIndex
from repro.storage.wal import WriteAheadLog

from ..conftest import assert_scores_match


def _uniform(n, seed=0):
    rng = np.random.default_rng(seed)
    return RankTupleSet.from_pairs(rng.uniform(0, 100, n), rng.uniform(0, 100, n))


@pytest.fixture(scope="module")
def built():
    ts = _uniform(400, seed=1)
    index = RankedJoinIndex.build(ts, 10)
    return ts, index, DiskRankedJoinIndex(index)


class TestEquivalence:
    def test_matches_in_memory_index(self, built):
        ts, index, disk = built
        rng = np.random.default_rng(2)
        for _ in range(100):
            pref = Preference.from_angle(float(rng.uniform(0, np.pi / 2)))
            k = int(rng.integers(1, 11))
            assert_scores_match(disk.query(pref, k), ts, pref, k)
            mem = [r.tid for r in index.query(pref, k)]
            assert [r.tid for r in disk.query(pref, k)] == mem

    def test_ordered_variant(self):
        ts = _uniform(200, seed=3)
        index = RankedJoinIndex.build(ts, 6, variant="ordered")
        disk = DiskRankedJoinIndex(index)
        rng = np.random.default_rng(4)
        for _ in range(50):
            pref = Preference.from_angle(float(rng.uniform(0, np.pi / 2)))
            assert_scores_match(disk.query(pref, 6), ts, pref, 6)

    def test_merged_variant(self):
        ts = _uniform(200, seed=5)
        index = RankedJoinIndex.build(ts, 6, merge_slack=6)
        disk = DiskRankedJoinIndex(index)
        rng = np.random.default_rng(6)
        for _ in range(50):
            pref = Preference.from_angle(float(rng.uniform(0, np.pi / 2)))
            k = int(rng.integers(1, 7))
            assert_scores_match(disk.query(pref, k), ts, pref, k)


def _boundary_probes(index):
    """Every region's start angle and its float neighbours on both sides."""
    probes = []
    for lo in index.store.lo.tolist():
        for angle in (
            math.nextafter(lo, -math.inf),
            lo,
            math.nextafter(lo, math.inf),
        ):
            if 0.0 <= angle <= math.pi / 2:
                probes.append(angle)
    return probes


def _assert_bit_identical(disk, index, k):
    probes = _boundary_probes(index)
    assert len(probes) >= 3 * index.n_regions - 2
    for angle, from_batch in zip(probes, index.query_batch(probes, k)):
        answer = disk.query(angle, k)
        assert answer == index.query(angle, k) == from_batch, angle
        assert [(type(r.tid), type(r.score)) for r in answer] == [
            (int, float)
        ] * len(answer)


class TestBitIdentity:
    """Disk answers equal the in-memory ones exactly where the B+-tree
    descent is most fragile: on, just below and just above every key."""

    @pytest.mark.parametrize("mmap", [False, True], ids=["eager", "mmap"])
    @pytest.mark.parametrize("variant", ["standard", "ordered"])
    def test_every_region_boundary(self, tmp_path, variant, mmap):
        ts = _uniform(300, seed=11)
        index = RankedJoinIndex.build(ts, 8, variant=variant)
        image, wal_dir = tmp_path / "index.rji", tmp_path / "wal"
        DiskRankedJoinIndex(index).save(image)
        disk = DiskRankedJoinIndex.open(image, mmap=mmap)
        _assert_bit_identical(disk, index, 8)
        if mmap:
            disk.pager.close()

        # The same sweep with a replayed write buffer merged in: one
        # insert every region can serve, one delete of an indexed tuple.
        inserted = RankTuple(9000, 99.5, 99.5)
        victim = int(index.dominating.tids[0])
        wal = WriteAheadLog(wal_dir, fsync=False)
        wal.append_insert(*inserted)
        wal.append_delete(victim)
        wal.commit()
        wal.close()
        delta = DeltaStore()
        delta.insert(inserted)
        delta.delete(victim)
        index.attach_delta(delta)
        recovered = DiskRankedJoinIndex.recover(image, wal_dir, mmap=mmap)
        assert recovered.last_recovery.replayed == 2
        assert (recovered.delta.n_charged, recovered.delta.n_visible) == (1, 1)
        _assert_bit_identical(recovered, index, 7)
        if mmap:
            recovered.pager.close()


class TestValidation:
    def test_k_out_of_range(self, built):
        _, _, disk = built
        with pytest.raises(QueryError):
            disk.query(Preference(1.0, 1.0), 0)
        with pytest.raises(QueryError):
            disk.query(Preference(1.0, 1.0), 11)

    @pytest.mark.parametrize("mmap", [False, True], ids=["eager", "mmap"])
    def test_deadline_accepts_seconds(self, tmp_path, built, mmap):
        # Regression: a float budget used to reach ``deadline.check`` raw
        # (AttributeError); every other front door coerces it.
        _, index, disk = built
        path = tmp_path / "index.rji"
        disk.save(path)
        reopened = DiskRankedJoinIndex.open(path, mmap=mmap)
        assert reopened.query(0.5, 5, deadline=30.0) == index.query(0.5, 5)
        with pytest.raises(QueryTimeoutError):
            reopened.query(0.5, 5, deadline=1e-9)
        if mmap:
            reopened.pager.close()


class TestAccounting:
    def test_space_breakdown(self, built):
        _, index, disk = built
        stats = disk.stats
        assert stats.n_regions == index.n_regions
        assert stats.n_dominating == len(index.dominating)
        assert stats.total_pages == stats.btree_pages + stats.heap_pages
        assert disk.total_bytes == stats.total_pages * stats.page_size

    def test_query_stats_populated(self, built):
        _, index, disk = built
        disk.reset_io()
        disk.query(Preference(0.4, 0.6), 5)
        stats = disk.last_query
        assert stats.btree_nodes >= 1
        assert stats.pages_read >= 1  # cold cache
        # The rows the in-region cut scores, as on the memory tier.
        explain = index.explain(Preference(0.4, 0.6), 5, record=False)
        assert stats.tuples_evaluated == explain.tuples_evaluated < 10

    def test_writing_and_opening_do_no_reach_work(
        self, tmp_path, built, monkeypatch
    ):
        # The cut is derived on read: building, saving and opening an
        # image never computes it, so the writers cost what they did.
        from repro.storage import diskindex

        _, index, _ = built

        def refuse(*args):
            raise AssertionError("reach computed outside a query")

        monkeypatch.setattr(diskindex, "reach", refuse)
        path = tmp_path / "index.rji"
        DiskRankedJoinIndex(index).save(path)
        for mmap in (False, True):
            reopened = DiskRankedJoinIndex.open(path, mmap=mmap)
            assert not reopened._cut
            if mmap:
                reopened.pager.close()

    def test_concurrent_first_touches_agree(self, built):
        # Readers take no lock around the cut: racing first touches may
        # each compute a region's cut, and must all answer exactly.
        _, index, disk = built
        disk.reset_io()
        probes = _boundary_probes(index)
        want = [index.query(p, 5) for p in probes]
        failures = []
        barrier = threading.Barrier(4)

        def read():
            barrier.wait()
            if [disk.query(p, 5) for p in probes] != want:
                failures.append("answer")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=read) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures
        assert len(disk._cut) == index.n_regions

    def test_reset_forgets_the_cut(self, built):
        _, index, disk = built
        probes = [Preference.from_angle(a) for a in np.linspace(0, np.pi / 2, 40)]
        before = [disk.query(p, 5) for p in probes]
        assert disk._cut
        disk.reset_io()
        assert not disk._cut
        assert [disk.query(p, 5) for p in probes] == before
        assert before == [index.query(p, 5) for p in probes]

    def test_warm_cache_reads_fewer_pages(self, built):
        _, _, disk = built
        pref = Preference(0.4, 0.6)
        disk.reset_io()
        disk.query(pref, 5)
        cold = disk.last_query.pages_read
        disk.query(pref, 5)
        warm = disk.last_query.pages_read
        assert warm <= cold

    def test_merging_reduces_bytes(self):
        ts = _uniform(600, seed=7)
        plain = DiskRankedJoinIndex(RankedJoinIndex.build(ts, 10))
        merged = DiskRankedJoinIndex(
            RankedJoinIndex.build(ts, 10, merge_slack=10)
        )
        assert merged.total_bytes < plain.total_bytes

    def test_smaller_pages_mean_more_pages(self):
        ts = _uniform(300, seed=8)
        index = RankedJoinIndex.build(ts, 8)
        small = DiskRankedJoinIndex(index, page_size=256)
        large = DiskRankedJoinIndex(index, page_size=4096)
        assert small.stats.total_pages > large.stats.total_pages


class TestPersistence:
    def test_save_open_roundtrip(self, tmp_path, built):
        ts, index, disk = built
        path = tmp_path / "index.rji"
        disk.save(path)
        reopened = DiskRankedJoinIndex.open(path)
        assert reopened.k_bound == disk.k_bound
        assert reopened.variant == disk.variant
        assert reopened.stats == disk.stats
        rng = np.random.default_rng(9)
        for _ in range(60):
            pref = Preference.from_angle(float(rng.uniform(0, np.pi / 2)))
            k = int(rng.integers(1, 11))
            assert [r.tid for r in reopened.query(pref, k)] == [
                r.tid for r in disk.query(pref, k)
            ]

    def test_open_ordered_variant(self, tmp_path):
        ts = _uniform(150, seed=10)
        index = RankedJoinIndex.build(ts, 5, variant="ordered")
        disk = DiskRankedJoinIndex(index)
        path = tmp_path / "ordered.rji"
        disk.save(path)
        reopened = DiskRankedJoinIndex.open(path)
        assert reopened.variant == "ordered"
        pref = Preference(0.3, 0.7)
        assert_scores_match(reopened.query(pref, 5), ts, pref, 5)

    def test_iter_regions_matches_structure(self, built):
        _, index, disk = built
        regions = list(disk.iter_regions())
        assert len(regions) == index.n_regions
        angles = [angle for angle, _ in regions]
        assert angles == sorted(angles)
        assert angles[0] == 0.0
        for (_, n_tuples), region in zip(regions, index.regions):
            assert n_tuples == len(region.tids)

    def test_describe_report(self, built):
        _, index, disk = built
        report = disk.describe()
        assert f"K={disk.k_bound}" in report
        assert f"regions        : {index.n_regions}" in report
        assert "total bytes" in report

    def test_open_rejects_foreign_file(self, tmp_path):
        from repro.errors import StorageError
        from repro.storage import Pager

        pager = Pager(4096)
        pager.allocate()
        path = tmp_path / "foreign.pages"
        pager.save(path)
        with pytest.raises(StorageError, match="not a ranked-join-index"):
            DiskRankedJoinIndex.open(path)
