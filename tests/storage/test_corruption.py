"""Self-verifying storage: checksums, atomic saves, typed damage.

The regression contract (docs/RELIABILITY.md): a single flipped byte
anywhere in a saved index file is *detected* — served as a typed
:class:`~repro.errors.CorruptPageError`, never as a silently wrong
answer — and a truncated file raises
:class:`~repro.errors.TornWriteError`, not ``struct.error`` or
``IndexError``.  Damage behind valid checksums (a ragged region
payload, a broken leaf chain) is refused typed where it is read.
"""

import math
import struct
import zlib

import numpy as np
import pytest

from repro.core.index import RankedJoinIndex
from repro.core.tuples import RankTupleSet
from repro.errors import (
    CorruptPageError,
    StorageError,
    TornWriteError,
)
from repro.faults import FaultyFile
from repro.storage.diskindex import DiskRankedJoinIndex
from repro.storage.pager import FORMAT_VERSION, MappedPager, Pager
from repro.storage.pages import Page
from repro.storage.wal import WriteAheadLog


@pytest.fixture()
def saved_index(tmp_path):
    rng = np.random.default_rng(7)
    tuples = RankTupleSet.from_pairs(
        rng.uniform(0, 100, 300), rng.uniform(0, 100, 300)
    )
    index = RankedJoinIndex.build(tuples, 8)
    disk = DiskRankedJoinIndex(index)
    path = tmp_path / "index.rji"
    disk.save(path)
    return index, disk, path


@pytest.fixture(params=["standard", "ordered"])
def small_pages(tmp_path, request):
    # 256-byte pages: about one page per region and 15 keys per leaf,
    # so the tree has several leaves to break.
    rng = np.random.default_rng(7)
    tuples = RankTupleSet.from_pairs(
        rng.uniform(0, 100, 300), rng.uniform(0, 100, 300)
    )
    index = RankedJoinIndex.build(tuples, 8, variant=request.param)
    disk = DiskRankedJoinIndex(index, page_size=256)
    path = tmp_path / "index.rji"
    disk.save(path)
    return index, disk, path


def _edit_page(path, page_id, edit):
    """Re-save ``path`` with ``edit`` applied to one page, through the
    pager, so every checksum and the digest stay valid."""
    pager = Pager.load(path)
    page = pager.read(page_id)
    edit(page)
    pager.write(page_id, page)
    pager.save(path)


#: v2 header bytes preceding the first page image.
_HEADER_BYTES = struct.calcsize("<8sHIII") + 4


class TestFlippedByte:
    def test_every_region_of_the_file_is_covered(self, saved_index, tmp_path):
        """A flipped byte anywhere — header, any page, checksum block —
        must raise a typed StorageError on open, never load silently."""
        _, disk, path = saved_index
        size = path.stat().st_size
        original = path.read_bytes()
        # One probe per distinct file region: header, each page, CRCs.
        offsets = [0, 9, _HEADER_BYTES - 1]
        for page_id in range(disk.pager.n_pages):
            offsets.append(_HEADER_BYTES + page_id * disk.pager.page_size + 17)
        offsets.append(size - 2)  # checksum block
        for offset in offsets:
            path.write_bytes(original)
            FaultyFile(path).flip_byte(offset)
            with pytest.raises(StorageError):
                DiskRankedJoinIndex.open(path)

    def test_flipped_page_byte_raises_corrupt_page_error(self, saved_index):
        _, disk, path = saved_index
        FaultyFile(path).flip_byte(_HEADER_BYTES + disk.pager.page_size + 33)
        with pytest.raises(CorruptPageError, match="checksum mismatch"):
            DiskRankedJoinIndex.open(path)

    def test_flipped_header_byte_raises_typed_error(self, saved_index):
        _, _, path = saved_index
        FaultyFile(path).flip_byte(10)  # inside the v2 header
        with pytest.raises((CorruptPageError, StorageError)):
            DiskRankedJoinIndex.open(path)

    def test_swapped_pages_fail_only_the_digest(self, saved_index):
        """Two pages swapped together with their CRC slots pass every page
        check; the whole-file digest, which is order-sensitive, does not."""
        _, disk, path = saved_index
        size, n_pages = disk.pager.page_size, disk.pager.n_pages
        raw = bytearray(path.read_bytes())
        pages = [_HEADER_BYTES + page_id * size for page_id in (1, 2)]
        slots = [_HEADER_BYTES + n_pages * size + 4 * page_id for page_id in (1, 2)]
        for starts, width in ((pages, size), (slots, 4)):
            a, b = (bytes(raw[s : s + width]) for s in starts)
            raw[starts[0] : starts[0] + width] = b
            raw[starts[1] : starts[1] + width] = a
        path.write_bytes(bytes(raw))
        with pytest.raises(CorruptPageError, match="digest mismatch"):
            Pager.load(path)
        # Every page of the mapped image checksums clean; only the
        # whole-file digest, checked on demand, sees the swap.
        mapped = MappedPager.map(path)
        try:
            for page_id in range(n_pages):
                mapped.touch(page_id)
            assert mapped.verify_digest() is False
        finally:
            mapped.close()

    def test_single_bit_flip_is_detected(self, saved_index):
        _, disk, path = saved_index
        FaultyFile(path).flip_bit(
            (_HEADER_BYTES + disk.pager.page_size) * 8 + 3
        )
        with pytest.raises(CorruptPageError):
            DiskRankedJoinIndex.open(path)


class TestTruncation:
    @pytest.mark.parametrize("keep", [3, 12, 30, 4000, 5000])
    def test_truncation_raises_torn_write_not_struct_error(
        self, saved_index, keep
    ):
        _, _, path = saved_index
        FaultyFile(path).truncate(keep)
        with pytest.raises(TornWriteError, match="truncated"):
            DiskRankedJoinIndex.open(path)

    def test_not_a_pager_file(self, tmp_path):
        path = tmp_path / "bogus.rji"
        path.write_bytes(b"GARBAGE!" + bytes(64))
        with pytest.raises(StorageError, match="not a pager file"):
            Pager.load(path)

    def test_unsupported_future_version(self, saved_index):
        _, _, path = saved_index
        raw = bytearray(path.read_bytes())
        header = struct.Struct("<8sHIII")
        magic, _, page_size, n_pages, digest = header.unpack(
            bytes(raw[: header.size])
        )
        raw[: header.size] = header.pack(magic, 99, page_size, n_pages, digest)
        raw[header.size : header.size + 4] = struct.pack(
            "<I", zlib.crc32(bytes(raw[: header.size]))
        )
        path.write_bytes(bytes(raw))
        with pytest.raises(StorageError, match="version 99"):
            Pager.load(path)

    @pytest.mark.parametrize("version", [1, 2])
    @pytest.mark.parametrize("cut", ["pages", "checksums"])
    def test_cut_files_are_torn(self, saved_index, tmp_path, version, cut):
        """A file cut inside a page image or inside the checksum block
        fails the open, in both formats; a format-2 file fails the
        zero-copy open too."""
        _, disk, path = saved_index
        start = _HEADER_BYTES
        if version == 1:
            path = tmp_path / "legacy.rji"
            TestLegacyFormat._save_v1(None, disk.pager, path)
            start = 16
        size, n_pages = disk.pager.page_size, disk.pager.n_pages
        if cut == "pages":  # page 2 is cut short; no CRC slot is left
            keep = start + 2 * size + size // 2
        else:  # three whole CRC slots and half of the fourth are left
            keep = start + n_pages * size + 4 * 3 + 2
        FaultyFile(path).truncate(keep)
        with pytest.raises(TornWriteError, match="truncated"):
            DiskRankedJoinIndex.open(path)
        if version == 2:
            with pytest.raises(TornWriteError, match="truncated"):
                DiskRankedJoinIndex.open(path, mmap=True)


class TestAtomicSave:
    def test_no_tmp_file_left_behind(self, saved_index, tmp_path):
        _, disk, _ = saved_index
        target = tmp_path / "fresh.rji"
        disk.save(target)
        assert target.exists()
        assert not (tmp_path / "fresh.rji.tmp").exists()

    def test_save_overwrites_atomically(self, saved_index):
        index, disk, path = saved_index
        disk.save(path)  # overwrite in place
        reopened = DiskRankedJoinIndex.open(path)
        assert reopened.query(0.8, 5) == index.query(0.8, 5)


class TestLegacyFormat:
    def _save_v1(self, pager: Pager, path) -> None:
        """Write the version-1 layout the previous releases produced."""
        with open(path, "wb") as handle:
            handle.write(b"RJIPAGER")
            handle.write(struct.pack("<II", pager.page_size, pager.n_pages))
            for page_id in range(pager.n_pages):
                handle.write(pager.read(page_id).to_bytes())
            for page_id in range(pager.n_pages):
                handle.write(
                    struct.pack(
                        "<I", zlib.crc32(pager.read(page_id).to_bytes())
                    )
                )

    def test_v1_files_still_load(self, saved_index, tmp_path):
        index, disk, _ = saved_index
        legacy = tmp_path / "legacy.rji"
        self._save_v1(disk.pager, legacy)
        reopened = DiskRankedJoinIndex.open(legacy)
        assert reopened.query(0.8, 5) == index.query(0.8, 5)

    def test_saving_upgrades_to_current_format(self, saved_index, tmp_path):
        _, disk, _ = saved_index
        legacy = tmp_path / "legacy.rji"
        self._save_v1(disk.pager, legacy)
        reopened = DiskRankedJoinIndex.open(legacy)
        upgraded = tmp_path / "upgraded.rji"
        reopened.save(upgraded)
        assert upgraded.read_bytes()[:8] == b"RJIPAGE2"
        assert FORMAT_VERSION == 2

    def test_corrupt_v1_page_detected(self, saved_index, tmp_path):
        _, disk, _ = saved_index
        legacy = tmp_path / "legacy.rji"
        self._save_v1(disk.pager, legacy)
        v1_header = 8 + 8
        FaultyFile(legacy).flip_byte(v1_header + disk.pager.page_size + 5)
        with pytest.raises(CorruptPageError):
            DiskRankedJoinIndex.open(legacy)


def _recover_with_one_insert(path, tmp_path, mmap):
    """Recover ``path`` with a one-insert WAL: the replay reads every
    region (``_indexed_tuples``) to rebase the delta."""
    wal = WriteAheadLog(tmp_path / "wal", fsync=False)
    wal.append_insert(9000, 99.5, 99.5)
    wal.commit()
    wal.close()
    return DiskRankedJoinIndex.recover(path, tmp_path / "wal", mmap=mmap)


class TestValidChecksumDamage:
    """An image whose every checksum and digest is valid can still be
    damaged; each kind is refused with a typed error where it is read,
    by both variants and both opens, and no query answers wrongly."""

    @pytest.mark.parametrize("mmap", [False, True], ids=["eager", "mmap"])
    def test_ragged_payload_is_typed(
        self, small_pages, tmp_path, mmap
    ):
        index, disk, path = small_pages
        # Cut the first record (region 0, heap address 0) by one byte.
        _edit_page(path, 1, lambda p: p.write_u32(0, p.read_u32(0) - 1))
        opened = DiskRankedJoinIndex.open(path, mmap=mmap)
        try:
            hi = float(index.store.lo[1])
            for angle in np.linspace(0.0, hi, 20, endpoint=False):
                for k in range(1, index.k_bound + 1):
                    with pytest.raises(CorruptPageError, match="whole"):
                        opened.query(float(angle), k)
            for angle in np.linspace(hi, math.pi / 2, 21)[1:]:
                assert opened.query(float(angle), 5) == index.query(
                    float(angle), 5
                )
            with pytest.raises(CorruptPageError, match="whole"):
                list(opened.iter_regions())
            with pytest.raises(CorruptPageError, match="whole"):
                opened.describe()
        finally:
            if mmap:
                opened.pager.close()
        with pytest.raises(CorruptPageError, match="whole"):
            _recover_with_one_insert(path, tmp_path, mmap)

    @pytest.mark.parametrize("mmap", [False, True], ids=["eager", "mmap"])
    def test_broken_chain_is_typed(self, small_pages, mmap):
        index, disk, path = small_pages
        assert disk.stats.btree_pages >= 3  # a root over several leaves
        first_leaf = 1 + disk.stats.heap_pages
        # The first leaf's next pointer leaves the file.
        _edit_page(path, first_leaf, lambda p: p.write_i64(p.size - 8, 10**6))
        opened = DiskRankedJoinIndex.open(path, mmap=mmap)
        try:
            with pytest.raises(StorageError, match="out of range"):
                list(opened.iter_regions())
            with pytest.raises(StorageError, match="out of range"):
                opened.describe()
            served = 0
            for angle in np.linspace(0.0, math.pi / 2, 60):
                try:
                    got = opened.query(float(angle), 5)
                except StorageError:
                    continue
                assert got == index.query(float(angle), 5)
                served += 1
            assert served
        finally:
            if mmap:
                opened.pager.close()


class TestMappedLazyVerification:
    """The zero-copy open defers page CRCs to first touch — damage in
    an untouched page must surface exactly when the page is first read,
    as the same typed error the eager path raises at load."""

    def test_flip_in_untouched_page_detected_on_first_touch(
        self, saved_index
    ):
        _, disk, path = saved_index
        target_page = disk.pager.n_pages - 1
        FaultyFile(path).flip_byte(
            _HEADER_BYTES + target_page * disk.pager.page_size + 21
        )
        # Lazy open succeeds: the damaged page has not been read yet.
        mapped = DiskRankedJoinIndex.open(path, mmap=True)
        try:
            with pytest.raises(CorruptPageError):
                mapped.pager.touch(target_page)
            # And it keeps raising on every later touch.
            with pytest.raises(CorruptPageError):
                mapped.pager.read(target_page)
        finally:
            mapped.pager.close()

    def test_mapped_verify_finds_damage_eagerly(self, saved_index):
        """The whole-file digest sees a flipped byte in a page no query
        has touched yet."""
        _, disk, path = saved_index
        FaultyFile(path).flip_byte(
            _HEADER_BYTES + 2 * disk.pager.page_size + 64
        )
        mapped = DiskRankedJoinIndex.open(path, mmap=True)
        try:
            assert mapped.pager.counters.reads == 0
            assert mapped.pager.verify_digest() is False
            with pytest.raises(CorruptPageError, match="checksum"):
                mapped.pager.touch(2)
        finally:
            mapped.pager.close()

    def test_v1_file_cannot_be_mapped(self, saved_index, tmp_path):
        _, disk, _ = saved_index
        legacy = tmp_path / "legacy.rji"
        TestLegacyFormat._save_v1(None, disk.pager, legacy)
        with pytest.raises(StorageError, match="mmap|memory-mapped"):
            DiskRankedJoinIndex.open(legacy, mmap=True)

    def test_flipped_header_detected_at_map_time(self, saved_index):
        _, _, path = saved_index
        FaultyFile(path).flip_byte(10)
        with pytest.raises((CorruptPageError, StorageError)):
            DiskRankedJoinIndex.open(path, mmap=True)


class TestTornWriteSimulation:
    def test_injected_write_corruption_detected_on_next_read(self):
        from repro.faults import FaultPlan, FaultSpec, arm

        pager = Pager(256)
        page_id = pager.allocate()
        arm(
            FaultPlan(
                specs=(
                    FaultSpec(target="pager.write", kind="corrupt", at=0),
                )
            ),
            pager=pager,
        )
        page = Page(256)
        page.write_bytes(0, b"payload!")
        pager.write(page_id, page)
        with pytest.raises(CorruptPageError, match="checksum"):
            pager.read(page_id)
        # The next (uninjected) write heals the page.
        pager.write(page_id, page)
        assert pager.read(page_id).read_bytes(0, 8) == b"payload!"
