"""Unit tests for the segmented write-ahead log.

The crash contract under test: committed records always replay;
a torn tail (partial/garbled bytes at the end of the *newest* segment
with nothing valid after) is truncated and counted; damage anywhere
else is bit rot and raises :class:`CorruptPageError` instead of being
silently dropped.
"""

import struct

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

    def test_torn_tail_is_truncated_and_counted(self, tmp_path):
        newest = self._committed(tmp_path)
        clean_size = newest.stat().st_size
        with newest.open("ab") as handle:
            handle.write(b"\x13" * (WAL_RECORD_SIZE // 2))
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
        with newest.open("ab") as handle:
            handle.write(b"\x00" * WAL_RECORD_SIZE)
        wal = WriteAheadLog(tmp_path, fsync=False)
        assert wal.torn_tails == 1
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
