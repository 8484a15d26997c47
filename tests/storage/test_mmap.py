"""Zero-copy (mmap) open: equivalence, safety, and view lifetimes.

The memory-mapped read path must be a pure perf change: bit-identical
answers, the same typed-error taxonomy, and — because the query path
now serves ``np.frombuffer`` arrays over the file mapping — writes
through any served view must raise rather than silently corrupt the
file (or the answers of a concurrent reader).
"""

import numpy as np
import pytest

from repro.core.index import RankedJoinIndex
from repro.core.scoring import Preference
from repro.core.tuples import RankTupleSet
from repro.errors import CorruptPageError, StorageError
from repro.storage.diskindex import DiskRankedJoinIndex
from repro.storage.pager import MappedPager


def _uniform(n, seed=0):
    rng = np.random.default_rng(seed)
    return RankTupleSet.from_pairs(
        rng.uniform(0, 100, n), rng.uniform(0, 100, n)
    )


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    ts = _uniform(500, seed=1)
    index = RankedJoinIndex.build(ts, 12)
    path = tmp_path_factory.mktemp("mmap") / "index.rji"
    DiskRankedJoinIndex(index).save(path)
    return ts, index, path


@pytest.fixture()
def mapped(saved):
    _, _, path = saved
    disk = DiskRankedJoinIndex.open(path, mmap=True)
    yield disk
    disk.pager.close()


def _prefs(n, seed):
    rng = np.random.default_rng(seed)
    return [
        Preference.from_angle(float(a))
        for a in rng.uniform(0, np.pi / 2, n)
    ]


class TestEquivalence:
    def test_answers_bit_identical_to_eager_and_memory(self, saved, mapped):
        _, index, path = saved
        eager = DiskRankedJoinIndex.open(path)
        for pref in _prefs(100, seed=2):
            expected = index.query(pref, 8)
            assert mapped.query(pref, 8) == expected
            assert eager.query(pref, 8) == expected

    def test_open_is_lazy(self, saved):
        _, _, path = saved
        disk = DiskRankedJoinIndex.open(path, mmap=True)
        try:
            # Only the metadata page was touched during open.
            assert disk.pager.counters.reads == 0
            disk.query((2.0, 1.0), 5)
            assert disk.pager.counters.reads > 0
        finally:
            disk.pager.close()

    def test_verify_walks_the_mapping(self, saved, mapped):
        _, index, _ = saved
        assert mapped.pager.verify_digest()
        widths = [n for _, n in mapped.iter_regions()]
        assert widths == np.diff(index.store.offsets).tolist()

    def test_save_roundtrip_from_mapped(self, saved, mapped, tmp_path):
        _, index, _ = saved
        out = tmp_path / "resaved.rji"
        mapped.save(out)
        reopened = DiskRankedJoinIndex.open(out)
        for pref in _prefs(20, seed=3):
            assert reopened.query(pref, 8) == index.query(pref, 8)


class TestReadOnlySafety:
    def test_record_views_are_not_writable(self, mapped):
        mapped.query((2.0, 1.0), 5)
        # Reach the same view the query served.
        from repro.core.scoring import as_preference

        pref = as_preference((2.0, 1.0))
        _, address, _ = mapped._btree.search_le(pref.angle, mapped.pool)
        view = mapped._heap.read_view(address, mapped.pager)
        assert isinstance(view, memoryview)
        assert view.readonly
        records = np.frombuffer(view, dtype=np.dtype(
            [("tid", "<i8"), ("s1", "<f8"), ("s2", "<f8")]
        ))
        assert not records.flags.writeable
        with pytest.raises(ValueError):
            records["s1"] = 0.0
        with pytest.raises(TypeError):
            view[0] = 0

    def test_mapped_pager_refuses_writes(self, mapped):
        with pytest.raises(StorageError, match="read-only"):
            mapped.pager.allocate()
        page = mapped.pager.read(0)
        with pytest.raises(StorageError, match="read-only"):
            mapped.pager.write(0, page)

    def test_views_stay_valid_across_query_batch(self, saved, mapped):
        _, index, _ = saved
        from repro.core.scoring import as_preference

        pref = as_preference((2.0, 1.0))
        _, address, _ = mapped._btree.search_le(pref.angle, mapped.pool)
        view = mapped._heap.read_view(address, mapped.pager)
        before = bytes(view)

        prefs = _prefs(40, seed=4)
        batch = mapped.query_batch(prefs, 6)
        assert batch == [index.query(p, 6) for p in prefs]
        # The earlier view still reads the same bytes: queries never
        # mutate or remap the shared mapping.
        assert bytes(view) == before


    def test_close_with_a_live_view_is_best_effort(self, saved):
        _, _, path = saved
        pager = MappedPager.map(path)
        view = pager.view_bytes(1, 0, 8)
        before = bytes(view)
        pager.close()  # the live view keeps the mapping open
        assert bytes(view) == before
        view.release()
        pager.close()  # nothing aliases it now: the mapping goes

    def test_a_decoded_node_goes_with_its_frame(self, mapped):
        """A B+-tree node read again from the mapping is checked again:
        its decoded keys live in the buffer frame, not beside it."""
        from repro.faults import FaultPlan, FaultSpec, arm

        tree, leaf = mapped._btree, mapped._btree.root_page_id
        for _ in range(tree.height - 1):  # down to the leftmost leaf
            leaf = mapped.pager.read(leaf).read_i64(8)
        mapped.query(0.0, 5)  # decodes every node on the way
        corrupt = FaultSpec(target="pager.read", kind="corrupt", page=leaf, every=1)
        arm(FaultPlan(specs=(corrupt,)), pager=mapped.pager)
        mapped.pool.clear()
        with pytest.raises(CorruptPageError, match=f"page {leaf}"):
            mapped.query(0.0, 5)

    def test_record_address_out_of_range_is_typed(self, mapped):
        heap = mapped._heap
        with pytest.raises(StorageError, match="out of range"):
            heap.read_view(heap.size_bytes, mapped.pager)


class TestMappedPagerFormat:
    def test_empty_file_is_torn(self, tmp_path):
        from repro.errors import TornWriteError

        path = tmp_path / "empty.rji"
        path.write_bytes(b"")
        with pytest.raises(TornWriteError):
            MappedPager.map(path)

    def test_truncated_file_is_torn(self, saved, tmp_path):
        from repro.errors import TornWriteError

        _, _, src = saved
        path = tmp_path / "trunc.rji"
        data = src.read_bytes()
        path.write_bytes(data[: len(data) - 7])
        with pytest.raises(TornWriteError):
            MappedPager.map(path)

    def test_garbage_is_not_a_pager_file(self, tmp_path):
        path = tmp_path / "noise.rji"
        path.write_bytes(b"\x00" * 4096)
        with pytest.raises(StorageError):
            MappedPager.map(path)
