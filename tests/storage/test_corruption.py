"""Self-verifying storage: checksums, atomic saves, salvage and repair.

The regression contract (docs/RELIABILITY.md): a single flipped byte
anywhere in a saved index file is *detected* — served as a typed
:class:`~repro.errors.CorruptPageError`, never as a silently wrong
answer — and a truncated file raises
:class:`~repro.errors.TornWriteError`, not ``struct.error`` or
``IndexError``.
"""

import bisect
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
from repro.storage.pager import FORMAT_VERSION, Pager
from repro.storage.pages import Page


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


class TestSalvageVerifyRepair:
    def _corrupt_heap_page(self, disk, path, page_id=2):
        FaultyFile(path).flip_byte(
            _HEADER_BYTES + page_id * disk.pager.page_size + 64
        )

    def test_salvage_marks_pages_instead_of_raising(self, saved_index):
        _, disk, path = saved_index
        self._corrupt_heap_page(disk, path)
        salvaged = DiskRankedJoinIndex.open(path, salvage=True)
        assert salvaged.pager.corrupt_pages == {2}
        assert salvaged.pager.digest_ok is False

    def test_reading_a_marked_page_raises(self, saved_index):
        _, disk, path = saved_index
        self._corrupt_heap_page(disk, path)
        salvaged = DiskRankedJoinIndex.open(path, salvage=True)
        with pytest.raises(CorruptPageError, match="salvage"):
            salvaged.pager.read(2)

    def test_verify_reports_damage(self, saved_index):
        index, disk, path = saved_index
        clean = DiskRankedJoinIndex.open(path)
        report = clean.verify()
        assert report.ok
        assert report.n_regions == index.n_regions
        self._corrupt_heap_page(disk, path)
        damaged = DiskRankedJoinIndex.open(path, salvage=True).verify()
        assert not damaged.ok
        assert 2 in damaged.corrupt_pages
        assert damaged.unreadable_keys
        assert not damaged.digest_ok

    def test_repair_salvages_intact_regions(self, saved_index):
        index, disk, path = saved_index
        self._corrupt_heap_page(disk, path)
        salvaged = DiskRankedJoinIndex.open(path, salvage=True)
        repaired, report = salvaged.repair()
        assert 0 < report.n_salvaged < report.n_regions
        assert report.lost_keys
        assert not report.fully_recovered
        served = errors = 0
        for angle in np.linspace(0.01, 1.55, 60):
            try:
                got = repaired.query(float(angle), 5)
            except CorruptPageError:
                errors += 1
            else:
                assert got == index.query(float(angle), 5)
                served += 1
        assert served > 0 and errors > 0

    def test_repaired_index_persists_and_reopens(self, saved_index, tmp_path):
        _, disk, path = saved_index
        self._corrupt_heap_page(disk, path)
        salvaged = DiskRankedJoinIndex.open(path, salvage=True)
        repaired, _ = salvaged.repair()
        out = tmp_path / "repaired.rji"
        repaired.save(out)
        reopened = DiskRankedJoinIndex.open(out)
        assert reopened.verify().ok

    def test_repair_of_clean_index_recovers_everything(self, saved_index):
        index, _, path = saved_index
        clean = DiskRankedJoinIndex.open(path, salvage=True)
        repaired, report = clean.repair()
        assert report.fully_recovered
        assert report.n_salvaged == report.n_regions == index.n_regions
        for angle in np.linspace(0.01, 1.55, 30):
            assert repaired.query(float(angle), 5) == index.query(
                float(angle), 5
            )

    def test_repair_with_nothing_salvageable_raises(self, saved_index):
        _, disk, path = saved_index
        original = path.read_bytes()
        mutated = bytearray(original)
        # Damage every heap page (pages 1..heap_pages hold the payloads).
        for page_id in range(1, disk.stats.heap_pages + 1):
            mutated[_HEADER_BYTES + page_id * disk.pager.page_size + 8] ^= 0xFF
        path.write_bytes(bytes(mutated))
        salvaged = DiskRankedJoinIndex.open(path, salvage=True)
        with pytest.raises(CorruptPageError, match="no salvageable"):
            salvaged.repair()


def _assert_salvage_exact(repaired, index, lost_keys):
    """On, and one float either side of, every key of a repaired image
    and at both axes, for every k: a salvaged region answers the
    in-memory index's bits, a lost one raises.  Each region's in-region
    cut is bounded by the next key, a tombstone or fence included."""
    keys = [key for key, _ in repaired._btree.iter_entries(repaired.pool)]
    probes = {0.0, math.pi / 2}
    for key in keys:
        probes |= {key, math.nextafter(key, -1.0), math.nextafter(key, 2.0)}
    served = lost = 0
    for angle in sorted(p for p in probes if 0.0 <= p <= math.pi / 2):
        region_key = keys[bisect.bisect_right(keys, angle) - 1]
        for k in range(1, index.k_bound + 1):
            if region_key in lost_keys:
                with pytest.raises(CorruptPageError, match="unrecoverable"):
                    repaired.query(angle, k)
                lost += 1
            else:
                got = repaired.query(angle, k)
                want = index.query(angle, k)
                assert [(r.tid, r.score.hex()) for r in got] == [
                    (r.tid, r.score.hex()) for r in want
                ], (angle, k)
                served += 1
    assert served and lost


class TestRepairedImagesAnswerExactly:
    """The disk tier's cut takes each region's upper bound from the
    B+-tree descent; on a repaired image that bound may be a tombstone's
    key or the fence placed past a broken walk."""

    @pytest.fixture()
    def small_pages(self, tmp_path):
        # 256-byte pages: about one page per region and 15 keys per
        # leaf, so the tree has several leaves to break.
        rng = np.random.default_rng(7)
        tuples = RankTupleSet.from_pairs(
            rng.uniform(0, 100, 300), rng.uniform(0, 100, 300)
        )
        index = RankedJoinIndex.build(tuples, 8)
        disk = DiskRankedJoinIndex(index, page_size=256)
        path = tmp_path / "index.rji"
        disk.save(path)
        return index, disk, path

    def _repair(self, disk, path, page_id, tmp_path):
        FaultyFile(path).flip_byte(
            _HEADER_BYTES + page_id * disk.pager.page_size + 64
        )
        repaired, report = DiskRankedJoinIndex.open(path, salvage=True).repair()
        out = tmp_path / "repaired.rji"
        repaired.save(out)
        return repaired, DiskRankedJoinIndex.open(out, mmap=True), report

    def test_tombstone_mid_image(self, small_pages, tmp_path):
        index, disk, path = small_pages
        middle = 1 + disk.stats.heap_pages // 2
        repaired, mapped, report = self._repair(disk, path, middle, tmp_path)
        assert report.walk_complete and report.lost_keys
        try:
            for subject in (repaired, mapped):
                _assert_salvage_exact(subject, index, set(report.lost_keys))
        finally:
            mapped.pager.close()

    def test_broken_walk_is_fenced(self, small_pages, tmp_path):
        index, disk, path = small_pages
        assert disk.stats.btree_pages >= 3  # a root over several leaves
        second_leaf = 1 + disk.stats.heap_pages + 1
        repaired, mapped, report = self._repair(disk, path, second_leaf, tmp_path)
        assert not report.walk_complete
        fence = report.lost_keys[-1]
        salvaged = report.n_salvaged
        assert fence == math.nextafter(index.store.lo[salvaged - 1], math.inf)
        try:
            for subject in (repaired, mapped):
                _assert_salvage_exact(subject, index, set(report.lost_keys))
        finally:
            mapped.pager.close()


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
        _, disk, path = saved_index
        FaultyFile(path).flip_byte(
            _HEADER_BYTES + 2 * disk.pager.page_size + 64
        )
        mapped = DiskRankedJoinIndex.open(path, mmap=True)
        try:
            report = mapped.verify()
            assert not report.ok
            assert not report.digest_ok
        finally:
            mapped.pager.close()

    def test_salvage_implies_eager_load(self, saved_index):
        """mmap + salvage falls back to the eager pager: salvage wants
        every page checked up front to mark the broken ones."""
        _, disk, path = saved_index
        FaultyFile(path).flip_byte(
            _HEADER_BYTES + 2 * disk.pager.page_size + 64
        )
        salvaged = DiskRankedJoinIndex.open(path, salvage=True, mmap=True)
        assert salvaged.pager.corrupt_pages == {2}
        from repro.storage.pager import MappedPager

        assert not isinstance(salvaged.pager, MappedPager)

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
