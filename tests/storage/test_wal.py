"""Unit tests for the segmented write-ahead log.

The crash contract under test: committed records always replay;
the log ends where only fill follows the last record; a torn tail
(partial/garbled bytes at the end of the *newest* segment with nothing
valid after) is refilled and counted; damage anywhere else is bit rot
and raises :class:`CorruptPageError` instead of being silently dropped.
"""

import os
import struct
import zlib
from pathlib import Path

import pytest

from repro.errors import CorruptPageError, StorageError
from repro.obs import MetricsRecorder
from repro.storage.wal import WAL_RECORD_SIZE, WalRecord, WriteAheadLog

_SEG_HEADER_BYTES = struct.calcsize("<8sHI") + 4


def _records(wal, after_lsn=0):
    return list(wal.records(after_lsn=after_lsn))


class TestRoundTrip:
    def test_append_commit_replay(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync=False)
        lsn1 = wal.append_insert(7, 0.25, 0.75)
        lsn2 = wal.append_delete(3)
        assert (lsn1, lsn2) == (1, 2)
        assert wal.commit() == 2
        wal.close()

        reopened = WriteAheadLog(tmp_path, fsync=False)
        assert reopened.last_lsn == 2
        assert reopened.torn_tails == 0
        assert _records(reopened) == [
            WalRecord(lsn=1, op="insert", tid=7, s1=0.25, s2=0.75),
            WalRecord(lsn=2, op="delete", tid=3, s1=0.0, s2=0.0),
        ]
        assert _records(reopened, after_lsn=1) == [
            WalRecord(lsn=2, op="delete", tid=3, s1=0.0, s2=0.0),
        ]
        reopened.close()

    def test_lsns_are_monotonic_across_reopen(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync=False)
        for tid in range(5):
            wal.append_insert(tid, 0.1, 0.2)
        wal.commit()
        wal.close()
        reopened = WriteAheadLog(tmp_path, fsync=False)
        assert reopened.append_delete(0) == 6
        reopened.close()

    def test_uncommitted_appends_do_not_replay(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync=False)
        wal.append_insert(1, 0.5, 0.5)
        wal.commit()
        wal.append_insert(2, 0.6, 0.6)  # never committed
        wal.close()
        reopened = WriteAheadLog(tmp_path, fsync=False)
        assert [r.tid for r in _records(reopened)] == [1]
        reopened.close()

    def test_metrics_are_recorded(self, tmp_path):
        recorder = MetricsRecorder()
        wal = WriteAheadLog(tmp_path, fsync=True, recorder=recorder)
        wal.append_insert(1, 0.5, 0.5)
        wal.commit()
        wal.close()
        counters = recorder.snapshot()["counters"]
        assert counters["wal.appends"] == 1
        assert counters["wal.commits"] == 1
        assert counters["wal.fsyncs"] == 1
        assert counters["wal.segments_created"] == 1


class TestRotationAndCheckpoint:
    def test_commit_rotates_past_segment_bytes(self, tmp_path):
        small = _SEG_HEADER_BYTES + 3 * WAL_RECORD_SIZE
        wal = WriteAheadLog(tmp_path, segment_bytes=small, fsync=False)
        for tid in range(10):
            wal.append_insert(tid, 0.1, 0.1)
            wal.commit()
        assert wal.n_segments > 1
        # Every record survives the segment boundary in order.
        assert [r.lsn for r in _records(wal)] == list(range(1, 11))
        wal.close()

    def test_checkpoint_then_prune_drops_covered_segments(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync=False)
        for tid in range(4):
            wal.append_insert(tid, 0.1, 0.1)
        wal.commit()
        checkpoint = wal.checkpoint(wal.last_lsn)
        assert checkpoint == wal.checkpoint_lsn == 4
        assert wal.prune() >= 1
        # Replay past the checkpoint is empty; the sequence resumes past
        # the checkpoint record (LSN 5).
        assert list(wal.replay(checkpoint)) == []
        assert wal.append_insert(99, 0.9, 0.9) == 6
        wal.commit()
        wal.close()
        # Pruning dropped everything the checkpoint covers; the
        # checkpoint record itself heads the live segment, so a reopen
        # knows the checkpoint and replays only the record past it.
        reopened = WriteAheadLog(tmp_path, fsync=False)
        assert reopened.checkpoint_lsn == checkpoint
        assert [r.tid for r in _records(reopened)] == [checkpoint, 99]
        assert [t.tid for _, t in reopened.replay(checkpoint)] == [99]
        reopened.close()

    def test_checkpoint_below_the_tail_keeps_later_records(self, tmp_path):
        # A snapshot taken at LSN 2 while LSNs 3-4 were acknowledged:
        # the checkpoint covers 2, prune keeps the segment holding 3-4,
        # and a reopen replays exactly them.
        wal = WriteAheadLog(tmp_path, fsync=False)
        for tid in range(4):
            wal.append_insert(tid, 0.1, 0.1)
            wal.commit()
        assert wal.checkpoint(2) == wal.checkpoint_lsn == 2
        assert wal.prune() == 0
        wal.close()
        reopened = WriteAheadLog(tmp_path, fsync=False)
        assert reopened.checkpoint_lsn == 2
        assert [t.tid for _, t in reopened.replay(2)] == [2, 3]
        reopened.close()

    def test_pruned_log_reopens_past_its_checkpoint(self, tmp_path):
        # Regression: with nothing written after a checkpoint and prune,
        # a reopen used to restart at LSN 0, below the owner's snapshot,
        # so the next writes were skipped by a replay past the checkpoint.
        wal = WriteAheadLog(tmp_path, fsync=False)
        wal.append_insert(1, 0.1, 0.1)
        checkpoint = wal.checkpoint(wal.last_lsn)
        wal.prune()
        wal.close()
        reopened = WriteAheadLog(tmp_path, fsync=False)
        assert reopened.checkpoint_lsn == checkpoint
        assert reopened.last_lsn == checkpoint + 1  # the checkpoint record
        assert reopened.append_insert(2, 0.2, 0.2) == checkpoint + 2
        reopened.commit()
        reopened.close()
        again = WriteAheadLog(tmp_path, fsync=False)
        assert [(op, t.tid) for op, t in again.replay(checkpoint)] == [("insert", 2)]
        again.close()

    def test_checkpoint_is_self_describing_before_prune(self, tmp_path):
        # A crash between checkpoint() and prune() loses nothing: the
        # checkpoint record's tid field carries the LSN it covers, so the
        # open-time scan reads the checkpoint straight back.
        wal = WriteAheadLog(tmp_path, fsync=False)
        for tid in range(3):
            wal.append_insert(tid, 0.1, 0.1)
        wal.commit()
        checkpoint = wal.checkpoint(wal.last_lsn)
        wal.close()  # crash before prune
        reopened = WriteAheadLog(tmp_path, fsync=False)
        assert reopened.checkpoint_lsn == checkpoint
        assert list(reopened.replay(checkpoint)) == []
        reopened.close()

    def test_segment_too_small_is_typed(self, tmp_path):
        with pytest.raises(StorageError, match="cannot hold one record"):
            WriteAheadLog(tmp_path, segment_bytes=8)


class TestTornAndCorrupt:
    def _committed(self, tmp_path, n=3):
        wal = WriteAheadLog(tmp_path, fsync=False)
        for tid in range(n):
            wal.append_insert(tid, 0.1, 0.1)
        wal.commit()
        wal.close()
        return max(tmp_path.glob("wal-*.seg"))

    @staticmethod
    def _tear(newest, *chunks, n=3):
        """Write ``chunks`` at the end of a log of ``n`` records."""
        with newest.open("r+b") as handle:
            handle.seek(_SEG_HEADER_BYTES + n * WAL_RECORD_SIZE)
            handle.write(b"".join(chunks))

    def test_torn_tail_is_truncated_and_counted(self, tmp_path):
        newest = self._committed(tmp_path)
        clean_size = newest.stat().st_size
        self._tear(newest, b"\x13" * (WAL_RECORD_SIZE // 2))
        recorder = MetricsRecorder()
        wal = WriteAheadLog(tmp_path, fsync=False, recorder=recorder)
        assert wal.torn_tails == 1
        assert recorder.snapshot()["counters"]["wal.torn_tails"] == 1
        assert newest.stat().st_size == clean_size
        assert [r.lsn for r in _records(wal)] == [1, 2, 3]
        # Appends resume cleanly on the truncated segment.
        assert wal.append_insert(50, 0.5, 0.5) == 4
        wal.commit()
        wal.close()

    def test_full_garbage_record_tail_is_torn(self, tmp_path):
        newest = self._committed(tmp_path)
        self._tear(newest, b"\x00" * WAL_RECORD_SIZE)
        wal = WriteAheadLog(tmp_path, fsync=False)
        assert wal.torn_tails == 1
        wal.close()

    def test_unknown_op_with_a_valid_crc_is_a_torn_slot(self, tmp_path):
        # A well-checksummed slot with no known op, then a garbage slot:
        # neither is a record, and nothing valid follows, so both go.
        newest = self._committed(tmp_path)
        clean_size = newest.stat().st_size
        self._tear(newest, _slot(4, 4, op=9), b"\x13" * WAL_RECORD_SIZE)
        wal = WriteAheadLog(tmp_path, fsync=False)
        assert wal.torn_tails == 1
        assert newest.stat().st_size == clean_size
        assert [r.lsn for r in _records(wal)] == [1, 2, 3]
        wal.close()

    def test_damage_after_open_is_typed_on_replay(self, tmp_path):
        newest = self._committed(tmp_path)
        wal = WriteAheadLog(tmp_path, fsync=False)
        raw = bytearray(newest.read_bytes())
        raw[_SEG_HEADER_BYTES + 3] ^= 0xFF
        newest.write_bytes(bytes(raw))
        with pytest.raises(CorruptPageError, match="corrupt at offset"):
            _records(wal)
        wal.close()

    def test_mid_file_corruption_is_typed(self, tmp_path):
        newest = self._committed(tmp_path, n=4)
        # Flip bytes inside the *second* record: valid records follow,
        # so this is bit rot, not a torn write.
        offset = _SEG_HEADER_BYTES + WAL_RECORD_SIZE + 4
        raw = bytearray(newest.read_bytes())
        raw[offset] ^= 0xFF
        newest.write_bytes(bytes(raw))
        with pytest.raises(CorruptPageError, match="corrupt at offset"):
            WriteAheadLog(tmp_path, fsync=False)

    def test_sealed_segment_damage_is_typed(self, tmp_path):
        small = _SEG_HEADER_BYTES + 2 * WAL_RECORD_SIZE
        wal = WriteAheadLog(tmp_path, segment_bytes=small, fsync=False)
        for tid in range(6):
            wal.append_insert(tid, 0.1, 0.1)
            wal.commit()
        assert wal.n_segments >= 2
        wal.close()
        sealed = sorted(tmp_path.glob("wal-*.seg"))[0]
        raw = bytearray(sealed.read_bytes())
        raw[-3] ^= 0xFF  # tail of a *sealed* segment: never torn-write
        sealed.write_bytes(bytes(raw))
        with pytest.raises(CorruptPageError):
            WriteAheadLog(tmp_path, fsync=False)

    def test_corrupt_header_is_typed(self, tmp_path):
        newest = self._committed(tmp_path)
        raw = bytearray(newest.read_bytes())
        raw[0] ^= 0xFF
        newest.write_bytes(bytes(raw))
        with pytest.raises(CorruptPageError, match="corrupt header"):
            WriteAheadLog(tmp_path, fsync=False)


def _slot(lsn, tid, op=1):
    body = struct.pack("<QBqdd", lsn, op, tid, 0.1, 0.1)
    return body + struct.pack("<I", zlib.crc32(body))


def _version_1_segment(seq, records):
    """A segment as version 1 wrote it: header, records appended, no fill."""
    header = struct.pack("<8sHI", b"RJIWAL01", 1, seq)
    return header + struct.pack("<I", zlib.crc32(header)) + b"".join(records)


class TestFill:
    """A segment is created full length; commits overwrite its fill."""

    SEGMENT = 64 * 1024

    def _crashed(self, tmp_path, n=3):
        """A log with ``n`` committed records, left open as a kill leaves it."""
        wal = WriteAheadLog(tmp_path, fsync=False)
        for tid in range(n):
            wal.append_insert(tid, 0.1, 0.1)
            wal.commit()
        return max(tmp_path.glob("wal-*.seg")), _SEG_HEADER_BYTES + n * WAL_RECORD_SIZE

    def test_a_new_segment_is_full_length_fill(self, tmp_path):
        WriteAheadLog(tmp_path, fsync=False).close()
        raw = (tmp_path / "wal-00000001.seg").read_bytes()
        assert raw[:8] == b"RJIWAL02"
        assert raw[_SEG_HEADER_BYTES:] == b"\xff" * (self.SEGMENT - _SEG_HEADER_BYTES)

    def test_reopen_after_a_crash_ends_the_log_at_the_fill(self, tmp_path):
        newest, end = self._crashed(tmp_path)
        wal = WriteAheadLog(tmp_path, fsync=False)
        assert wal.torn_tails == 0
        assert wal.last_lsn == 3
        assert newest.stat().st_size == self.SEGMENT
        # Appends resume at the end of the log, over the fill.
        assert wal.append_insert(9, 0.5, 0.5) == 4
        wal.commit()
        raw = newest.read_bytes()
        assert len(raw) == self.SEGMENT
        assert raw[end : end + WAL_RECORD_SIZE] == struct.pack(
            "<QBqdd", 4, 1, 9, 0.5, 0.5
        ) + struct.pack("<I", zlib.crc32(raw[end : end + WAL_RECORD_SIZE - 4]))
        assert set(raw[end + WAL_RECORD_SIZE :]) == {0xFF}
        wal.close()
        reopened = WriteAheadLog(tmp_path, fsync=False)
        assert reopened.torn_tails == 0
        assert [r.lsn for r in _records(reopened)] == [1, 2, 3, 4]
        reopened.close()

    @pytest.mark.parametrize(
        "tail",
        [
            _slot(4, 4)[:20],  # a record torn mid-write, fill after it
            b"\x00" * WAL_RECORD_SIZE,  # one slot reads back as zeros
            None,  # size durable, data zeros: the whole rest is zeros
        ],
        ids=["partial-record", "zero-slot", "zeroed-tail"],
    )
    def test_a_torn_tail_is_refilled_once_and_keeps_the_size(self, tmp_path, tail):
        newest, end = self._crashed(tmp_path)
        raw = bytearray(newest.read_bytes())
        tail = bytes(self.SEGMENT - end) if tail is None else tail
        raw[end : end + len(tail)] = tail
        newest.write_bytes(bytes(raw))
        recorder = MetricsRecorder()
        wal = WriteAheadLog(tmp_path, fsync=False, recorder=recorder)
        assert wal.torn_tails == 1
        assert recorder.snapshot()["counters"]["wal.torn_tails"] == 1
        raw = newest.read_bytes()
        assert len(raw) == self.SEGMENT
        assert set(raw[end:]) == {0xFF}
        assert [r.lsn for r in _records(wal)] == [1, 2, 3]
        assert wal.append_insert(50, 0.5, 0.5) == 4
        wal.commit()
        wal.close()
        reopened = WriteAheadLog(tmp_path, fsync=False)
        assert reopened.torn_tails == 0
        assert [r.lsn for r in _records(reopened)] == [1, 2, 3, 4]
        reopened.close()

    def test_a_segment_sealed_early_by_a_checkpoint_replays(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync=False)
        for tid in range(3):
            wal.append_insert(tid, 0.1, 0.1)
        wal.commit()
        checkpoint = wal.checkpoint(2)
        wal.append_insert(7, 0.7, 0.7)
        wal.commit()
        wal.close()
        sealed = sorted(tmp_path.glob("wal-*.seg"))[0]
        assert sealed.stat().st_size == self.SEGMENT
        reopened = WriteAheadLog(tmp_path, fsync=False)
        assert reopened.torn_tails == 0
        assert reopened.checkpoint_lsn == checkpoint
        assert [r.lsn for r in _records(reopened)] == [1, 2, 3, 4, 5]
        assert [t.tid for _, t in reopened.replay(checkpoint)] == [2, 7]
        reopened.close()

    @pytest.mark.parametrize("where", [0, -1])
    def test_a_non_fill_byte_in_a_sealed_segment_is_corrupt(self, tmp_path, where):
        wal = WriteAheadLog(tmp_path, fsync=False)
        wal.append_insert(1, 0.1, 0.1)
        wal.checkpoint(wal.last_lsn)
        wal.close()
        sealed = sorted(tmp_path.glob("wal-*.seg"))[0]
        raw = bytearray(sealed.read_bytes())
        # The first fill byte after the record, or the segment's last.
        raw[_SEG_HEADER_BYTES + WAL_RECORD_SIZE if where == 0 else where] = 0x00
        sealed.write_bytes(bytes(raw))
        with pytest.raises(CorruptPageError, match="corrupt at offset"):
            WriteAheadLog(tmp_path, fsync=False)

    def test_a_version_1_segment_is_read_and_appended_to(self, tmp_path):
        old = tmp_path / "wal-00000001.seg"
        old.write_bytes(_version_1_segment(1, [_slot(1, 10), _slot(2, 11)]))
        small = _SEG_HEADER_BYTES + 3 * WAL_RECORD_SIZE
        wal = WriteAheadLog(tmp_path, segment_bytes=small, fsync=False)
        assert wal.torn_tails == 0
        for tid in (12, 13):
            wal.append_insert(tid, 0.1, 0.1)
            wal.commit()
        # The version-1 segment grew by one append, filled up and was
        # rotated: the next record opened a version-2 segment.
        assert old.stat().st_size == small
        newest = max(tmp_path.glob("wal-*.seg"))
        assert newest.read_bytes()[:8] == b"RJIWAL02"
        wal.close()
        reopened = WriteAheadLog(tmp_path, fsync=False)
        assert [r.tid for r in _records(reopened)] == [10, 11, 12, 13]
        reopened.close()

    def test_a_torn_version_1_tail_is_repaired_and_appends_resume(self, tmp_path):
        clean = _version_1_segment(1, [_slot(1, 10)])
        old = tmp_path / "wal-00000001.seg"
        old.write_bytes(clean + _slot(2, 11)[:20])
        wal = WriteAheadLog(tmp_path, fsync=False)
        assert wal.torn_tails == 1
        # The same refill as any segment: the size is kept, and what
        # follows the last record is fill, which ends the log.
        assert old.read_bytes() == clean + b"\xff" * 20
        assert [r.tid for r in _records(wal)] == [10]
        assert wal.append_insert(12, 0.1, 0.1) == 2
        wal.commit()
        wal.close()
        reopened = WriteAheadLog(tmp_path, fsync=False)
        assert reopened.torn_tails == 0
        assert [r.tid for r in _records(reopened)] == [10, 12]
        assert old.stat().st_size == len(clean) + WAL_RECORD_SIZE
        reopened.close()


def _one_record_log(directory, **kwargs):
    wal = WriteAheadLog(directory, fsync=False, **kwargs)
    wal.append_insert(1, 0.1, 0.1)
    wal.commit()
    return wal


def _reopen(directory):
    _one_record_log(directory).close()
    return lambda: WriteAheadLog(directory)


def _reopen_torn(directory):
    _one_record_log(directory).close()
    (directory / "wal-00000002.seg").write_bytes(b"RJI")
    return lambda: WriteAheadLog(directory)


def _create(directory):
    return lambda: WriteAheadLog(directory)


def _commit(directory):
    wal = WriteAheadLog(directory)  # fsync on commit
    wal.append_insert(1, 0.1, 0.1)
    return wal.commit


def _prune(directory):
    wal = _one_record_log(directory)
    wal.checkpoint(wal.last_lsn)  # seals segment 1, fully covered
    return wal.prune


class TestOSErrorsAreTyped:
    """A failed filesystem call in the log surfaces as StorageError."""

    @pytest.mark.parametrize(
        "setup,owner,call,match",
        [
            (_reopen, Path, "read_bytes", "cannot read WAL segment"),
            (_reopen_torn, Path, "unlink", "cannot remove WAL segment"),
            (_create, os, "replace", "cannot create WAL segment"),
            (_commit, os, "fsync", "WAL commit failed"),
            (_prune, Path, "unlink", "cannot prune WAL segment"),
        ],
        ids=["read", "unlink-torn", "create", "commit", "prune"],
    )
    def test_oserror_becomes_storage_error(
        self, tmp_path, monkeypatch, setup, owner, call, match
    ):
        trigger = setup(tmp_path)

        def fail(*args, **kwargs):
            raise OSError(5, "injected I/O error")

        monkeypatch.setattr(owner, call, fail)
        with pytest.raises(StorageError, match=match):
            trigger()

    def test_an_existing_segment_is_never_overwritten(self, tmp_path):
        wal = _one_record_log(tmp_path)
        (wal.directory / "wal-00000002.seg").write_bytes(b"")
        with pytest.raises(StorageError, match="cannot create WAL segment"):
            wal.checkpoint(wal.last_lsn)
        wal.close()
