"""Disk-resident Ranked Join Index.

Serializes a built :class:`repro.core.index.RankedJoinIndex` onto the
paged-storage substrate, exactly as Section 6 describes: the separating
points keyed in a B+-tree whose leaf values point at region records (the
tuple ids *and* rank values of the region's K tuples) stored in a record
heap.  Queries run entirely through the buffer pool, so both the space
metric of Figure 16 (total bytes of index plus data pages) and per-query
page I/O are measured byte-exactly.

Robustness (see ``docs/RELIABILITY.md``): the pager format underneath
is self-verifying and queries accept a cooperative
:class:`~repro.core.deadline.Deadline`.  Damage surfaces as a typed
:class:`~repro.errors.StorageError` at open, at a page's first touch
or in the query that reads it — never as a plausible-but-wrong top-k
result.  A damaged image is rebuilt from its source data, never
patched.
"""

from __future__ import annotations

import struct
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from ..core.deadline import Deadline, DeadlineLike
from ..core.delta import NO_DELTA, DeltaStore, DeltaView
from ..core.hotcache import MISS, HotRegionCache
from ..core.geometry import HALF_PI
from ..core.index import QueryResult, RankedJoinIndex, top_k_scored
from ..core.regionstore import cut_size, reach
from ..core.scoring import PreferenceLike, as_preference
from ..errors import CorruptPageError, StorageError
from ..obs import NULL_RECORDER, Recorder
from .btree import BPlusTree, BTreeSearchStats
from .buffer import BufferPool
from .heap import HeapFile
from .pager import MappedPager, Pager
from .pages import DEFAULT_PAGE_SIZE, Page
from .wal import RecoveryReport, WriteAheadLog

__all__ = [
    "DiskIndexStats",
    "DiskQueryStats",
    "DiskRankedJoinIndex",
]

_TUPLE_RECORD = struct.Struct("<qdd")  # tid, s1, s2
# NumPy mirror of _TUPLE_RECORD: three little-endian fields with no
# padding, so ``.tobytes()`` of a record array is byte-identical to the
# packed struct stream and ``np.frombuffer`` parses it back without a
# per-tuple Python loop.
_RECORD_DTYPE = np.dtype([("tid", "<i8"), ("s1", "<f8"), ("s2", "<f8")])
assert _RECORD_DTYPE.itemsize == _TUPLE_RECORD.size
_META_MAGIC = b"RJIDISK1"
# magic, k_bound u32, variant u8, n_regions u32, n_dominating u32,
# heap_pages u32, heap_size i64, btree_root i64, btree_height u16,
# btree_entries u32, btree_pages u32
_META = struct.Struct("<8sIBIIIqqHII")
_VARIANT_CODES = {"standard": 0, "ordered": 1}
_VARIANT_NAMES = {code: name for name, code in _VARIANT_CODES.items()}


def _corrupt_region(key: float, n_bytes: int) -> CorruptPageError:
    """The error for a region payload that is not whole records."""
    return CorruptPageError(
        f"region at key {key:.6g}: payload of {n_bytes} bytes is not "
        "a whole, non-empty number of records"
    )


@dataclass(frozen=True)
class DiskIndexStats:
    """Space breakdown of a serialized index."""

    page_size: int
    btree_pages: int
    heap_pages: int
    n_regions: int
    n_dominating: int

    @property
    def total_pages(self) -> int:
        return self.btree_pages + self.heap_pages

    @property
    def total_bytes(self) -> int:
        return self.total_pages * self.page_size


@dataclass
class DiskQueryStats:
    """Per-query work counters (reset with :meth:`DiskRankedJoinIndex.reset_io`)."""

    btree_nodes: int = 0
    btree_keys_compared: int = 0
    pages_read: int = 0
    tuples_evaluated: int = 0


class DiskRankedJoinIndex:
    """A Ranked Join Index answering queries from its on-page image."""

    def __init__(
        self,
        index: RankedJoinIndex,
        *,
        page_size: int = DEFAULT_PAGE_SIZE,
        buffer_capacity: int = 16,
        cache_size: int = 0,
        recorder: Recorder = NULL_RECORDER,
    ):
        # Serialize straight from the columnar store: one record-array
        # gather per region instead of a dict lookup + struct.pack per
        # tuple.  The record dtype matches _TUPLE_RECORD byte-for-byte.
        store = index.store
        records = np.empty(store.n_positions, dtype=_RECORD_DTYPE)
        records["tid"] = store.tids
        records["s1"] = store.s1
        records["s2"] = store.s2
        bounds = store.offsets.tolist()
        keys: list[float] = store.lo.tolist()
        self._init_reader(
            index.k_bound, index.variant, recorder, cache_size, False
        )
        self.pager = Pager(page_size, recorder=recorder)
        # Page 0 is the metadata page (filled in last, once layout is known).
        self.pager.allocate()
        self._heap = HeapFile(self.pager)
        addresses = [
            self._heap.append(records[bounds[i] : bounds[i + 1]].tobytes())
            for i in range(len(store))
        ]
        self._heap.finish()
        heap_pages = self._heap.n_pages

        self._btree = BPlusTree.bulk_load(self.pager, keys, addresses)
        self.pool = BufferPool(self.pager, capacity=buffer_capacity)
        self.stats = DiskIndexStats(
            page_size=page_size,
            btree_pages=self._btree.n_pages,
            heap_pages=heap_pages,
            n_regions=len(keys),
            n_dominating=len(index.dominating),
        )
        self.last_query = DiskQueryStats()
        self._write_metadata()

    def _init_reader(
        self,
        k_bound: int,
        variant: str,
        recorder: Recorder,
        cache_size: int,
        mapped: bool,
    ) -> None:
        """The read-side state every constructor starts from."""
        self.k_bound = k_bound
        self.variant = variant
        self.recorder = recorder
        #: Fault-injection hook (None = unarmed; see repro.faults).
        self.faults = None
        #: Frozen write buffer merged into answers (recover() path).
        self._delta: DeltaView | None = None
        self.last_recovery = None
        self._mapped = mapped
        self._cache = HotRegionCache(cache_size) if cache_size > 0 else None
        #: The in-region cut: heap address -> (row order, reach counts).
        self._cut: dict[int, tuple[list[int], list[int]]] = {}
        #: Serializes the page-touching part of a query: the buffer pool
        #: and the pager's counters are the one read-side state that is
        #: not thread-safe.
        self._pages_lock = threading.Lock()

    def _write_metadata(self) -> None:
        page = Page(self.pager.page_size)
        page.write_bytes(
            0,
            _META.pack(
                _META_MAGIC,
                self.k_bound,
                _VARIANT_CODES[self.variant],
                self.stats.n_regions,
                self.stats.n_dominating,
                self.stats.heap_pages,
                self._heap.size_bytes,
                self._btree.root_page_id,
                self._btree.height,
                self._btree.n_entries,
                self.stats.btree_pages,
            ),
        )
        self.pager.write(0, page)

    # -- persistence --------------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Persist the complete index image to ``path`` (atomic rename)."""
        self.pager.save(path)

    @classmethod
    def open(
        cls,
        path: str | Path,
        *,
        buffer_capacity: int = 16,
        recorder: Recorder = NULL_RECORDER,
        mmap: bool = False,
        cache_size: int = 0,
    ) -> "DiskRankedJoinIndex":
        """Reopen an index previously written with :meth:`save`.

        The in-memory :class:`RankedJoinIndex` is *not* reconstructed;
        the reopened object answers queries directly from its pages.
        The eager open reads and verifies every byte of the file:
        truncation raises :class:`~repro.errors.TornWriteError`, a page
        CRC or whole-file digest mismatch
        :class:`~repro.errors.CorruptPageError`.

        ``mmap=True`` opens zero-copy through
        :class:`~repro.storage.pager.MappedPager`: only the file header
        and length are validated up front, page CRCs are checked lazily
        on first touch (a damaged page fails the queries that read it,
        and no other), and region payloads are served as read-only views
        over the mapping instead of deserialized copies — O(1) open time
        in the number of pages.  The whole-file digest is then checked
        only by :meth:`MappedPager.verify_digest
        <repro.storage.pager.MappedPager.verify_digest>`.
        ``cache_size`` > 0 attaches a hot-region descent cache (see
        :class:`~repro.core.hotcache.HotRegionCache`).
        """
        if mmap:
            pager: Pager = MappedPager.map(path, recorder=recorder)
        else:
            pager = Pager.load(path)
        pager.recorder = recorder
        header = pager.read(0).read_bytes(0, _META.size)
        try:
            (
                magic,
                k_bound,
                variant_code,
                n_regions,
                n_dominating,
                heap_pages,
                heap_size,
                btree_root,
                btree_height,
                btree_entries,
                btree_pages,
            ) = _META.unpack(header)
        except struct.error as exc:
            raise CorruptPageError(
                f"{path}: metadata page is unreadable", page_id=0
            ) from exc
        if magic != _META_MAGIC:
            raise StorageError(f"{path} is not a ranked-join-index file")

        instance = cls.__new__(cls)
        instance._init_reader(
            k_bound, _VARIANT_NAMES[variant_code], recorder, cache_size, mmap
        )
        instance.pager = pager
        instance._heap = HeapFile.attach(
            pager, list(range(1, 1 + heap_pages)), heap_size
        )
        instance._btree = BPlusTree(
            pager, btree_root, btree_height, btree_entries
        )
        instance.pool = BufferPool(pager, capacity=buffer_capacity)
        instance.stats = DiskIndexStats(
            page_size=pager.page_size,
            btree_pages=btree_pages,
            heap_pages=heap_pages,
            n_regions=n_regions,
            n_dominating=n_dominating,
        )
        instance.last_query = DiskQueryStats()
        pager.counters.reset()
        return instance

    @classmethod
    def recover(
        cls,
        path: str | Path,
        wal_directory: str | Path,
        *,
        buffer_capacity: int = 16,
        recorder: Recorder = NULL_RECORDER,
        mmap: bool = False,
        cache_size: int = 0,
    ) -> "DiskRankedJoinIndex":
        """Reopen an image and replay its WAL past the last checkpoint.

        The image at ``path`` reflects some checkpoint; the write-ahead
        log in ``wal_directory`` (see :class:`repro.storage.wal.
        WriteAheadLog`) may hold committed writes past it.  Opening the
        log repairs a torn tail; every surviving record newer than
        the last checkpoint LSN is replayed into a
        :class:`~repro.core.delta.DeltaStore` that queries then merge,
        so the reopened index serves every acknowledged write without
        rebuilding the image.  A non-empty replay reads every region
        once, to rebase the delta on the tuples the image holds: only
        deletes of those consume slack.  Works for both the eager and
        the ``mmap=True`` zero-copy open.  The replay summary is
        exposed as ``instance.last_recovery``; its ``n_live`` counts
        the tuples the recovered view can serve.
        """
        instance = cls.open(
            path,
            buffer_capacity=buffer_capacity,
            recorder=recorder,
            mmap=mmap,
            cache_size=cache_size,
        )
        wal = WriteAheadLog(wal_directory, recorder=recorder)
        try:
            delta = DeltaStore()
            replayed = 0
            for op, tuple_ in wal.replay(after_lsn=wal.checkpoint_lsn):
                delta.replay(op, tuple_)
                replayed += 1
            view = delta.view()
            if not view.is_empty:
                held = instance._indexed_tuples()
                delta.rebase(
                    set(held["tid"].tolist()),
                    held["s1"],
                    held["s2"],
                    instance.k_bound,
                )
                view = instance._delta = delta.view()
                instance.reset_io()
            instance.last_recovery = RecoveryReport(
                checkpoint_lsn=wal.checkpoint_lsn,
                last_lsn=wal.last_lsn,
                replayed=replayed,
                torn_tails=wal.torn_tails,
                n_live=instance.stats.n_dominating
                - view.n_charged
                + view.n_visible,
            )
        finally:
            wal.close()
        return instance

    # -- queries ---------------------------------------------------------

    def query(
        self,
        preference: PreferenceLike,
        k: int,
        *,
        deadline: DeadlineLike = None,
    ) -> list[QueryResult]:
        """Top-k under ``preference``, served from pages via the buffer pool.

        Accepts the same preference forms as the in-memory index (see
        :func:`~repro.core.scoring.as_preference`); raises
        :class:`~repro.errors.InvalidQueryError` for ``k`` outside
        ``[1, K]`` or a malformed preference.  ``deadline`` — an armed
        :class:`~repro.core.deadline.Deadline` or a budget in seconds —
        is checked cooperatively at the descent and evaluation phase
        boundaries (:class:`~repro.errors.QueryTimeoutError` past
        expiry).  A page of the region that fails its CRC, or a region
        payload that is empty or not a whole number of records, raises
        :class:`~repro.errors.CorruptPageError`.
        """
        view = self._delta or NO_DELTA
        view.check_k(k, self.k_bound)
        preference = as_preference(preference)
        deadline = Deadline.of(deadline)
        if self.faults is not None:
            self.faults.on_disk_query()
        if deadline is not None:
            deadline.check("disk.validate")

        btree_stats = BTreeSearchStats()
        cache = self._cache
        cached = MISS if cache is None else cache.get(preference.angle)
        cache_hit = cached is not MISS
        evicted = False
        with self._pages_lock:
            reads_before = self.pager.counters.reads
            if cache_hit:
                key, address, upper = cached
            else:
                key, address, upper = self._btree.search_le(
                    preference.angle, self.pool, btree_stats
                )
                if cache is not None:
                    evicted = cache.put(preference.angle, (key, address, upper))
            if deadline is not None:
                deadline.check("disk.descent")
            if self._mapped:
                # Zero-copy: rows are decoded from a read-only view of
                # the file mapping (writes through it raise), with every
                # covered page CRC-verified on its first touch.
                payload: bytes | memoryview = self._heap.read_view(
                    address, self.pager
                )
            else:
                payload = self._heap.read(address, self.pool)
            pages_read = self.pager.counters.reads - reads_before
        unpack, size = _TUPLE_RECORD.unpack_from, _TUPLE_RECORD.size
        n_rows, ragged = divmod(len(payload), size)
        if ragged or not n_rows:
            raise _corrupt_region(key, len(payload))
        if deadline is not None:
            deadline.check("disk.materialize")
        # RankedJoinIndex._top_k over the page payload: decode only the
        # records that can reach the top k + n_charged (the region's cut,
        # derived from its page rows on first touch), then rank them.
        p1, p2 = preference.p1, preference.p2
        plain, ordered = view.is_transparent, self.variant == "ordered"
        if ordered:  # stored in answer order: no cut, no sort
            positions: Sequence[int] = range(min(k, n_rows) if plain else n_rows)
        else:
            cut = self._cut.get(address)
            if cut is None:
                columns = np.frombuffer(payload, dtype=_RECORD_DTYPE)
                hi = HALF_PI if upper is None else upper
                cut = self._cut[address] = reach(
                    columns["s1"], columns["s2"], key, hi
                )
            n = cut_size(cut[1], p1, p2, k + view.n_charged)
            positions = range(n_rows) if n is None else cut[0][:n]
        if plain:  # one decode-and-score pass: the hot path
            scored = []
            for i in positions:
                tid, s1, s2 = unpack(payload, size * i)
                scored.append((p1 * s1 + p2 * s2, s1, -tid))
        else:  # recover() replayed a WAL: the in-memory tier's merge
            records = (unpack(payload, size * i) for i in positions)
            rows = [(s1, s2, -tid) for tid, s1, s2 in records]
            scored = view.merged_scored(rows, p1, p2)
        if ordered and plain:
            results = [QueryResult(-neg, score) for score, _, neg in scored]
        else:
            results = top_k_scored(scored, k)
        if deadline is not None:
            deadline.check("disk.evaluate")

        query_stats = self.last_query = DiskQueryStats(
            btree_nodes=btree_stats.nodes_visited,
            btree_keys_compared=btree_stats.keys_compared,
            pages_read=pages_read,
            tuples_evaluated=len(scored),
        )
        if self.recorder.enabled:
            self.recorder.count("disk.queries")
            self.recorder.observe("disk.btree_nodes", query_stats.btree_nodes)
            self.recorder.observe(
                "disk.btree_keys_compared", query_stats.btree_keys_compared
            )
            self.recorder.observe("disk.pages_read", query_stats.pages_read)
            self.recorder.observe(
                "disk.tuples_evaluated", query_stats.tuples_evaluated
            )
            if cache is not None:
                self.recorder.count(
                    "rji.cache.hits" if cache_hit else "rji.cache.misses"
                )
                if evicted:
                    self.recorder.count("rji.cache.evictions")
        return results

    def query_batch(
        self,
        preferences: Sequence[PreferenceLike],
        k: int,
        *,
        deadline: DeadlineLike = None,
    ) -> list[list[QueryResult]]:
        """:meth:`query` for each preference, in order.

        The contract of :meth:`RankedJoinIndex.query_batch
        <repro.core.index.RankedJoinIndex.query_batch>`: ``k`` is checked
        up front (an empty batch with a bad ``k`` still raises) and one
        ``deadline`` budget covers the whole batch.
        """
        (self._delta or NO_DELTA).check_k(k, self.k_bound)
        deadline = Deadline.of(deadline)
        return [self.query(p, k, deadline=deadline) for p in preferences]

    # -- accounting --------------------------------------------------------

    @property
    def total_bytes(self) -> int:
        """Total space of index plus data pages (Figure 16's metric)."""
        return self.stats.total_bytes

    def _payloads(self):
        """Yield ``(start_angle, payload, n_tuples)`` for every region, in
        order; an empty or ragged payload raises ``CorruptPageError``."""
        for key, address in self._btree.iter_entries(self.pool):
            payload = self._heap.read(address, self.pool)
            n_rows, ragged = divmod(len(payload), _TUPLE_RECORD.size)
            if ragged or not n_rows:
                raise _corrupt_region(key, len(payload))
            yield key, payload, n_rows

    def _indexed_tuples(self) -> np.ndarray:
        """One record per distinct tuple of the image: its regions' union."""
        records = np.frombuffer(
            b"".join(payload for _, payload, _ in self._payloads()),
            dtype=_RECORD_DTYPE,
        )
        return records[np.unique(records["tid"], return_index=True)[1]]

    def iter_regions(self):
        """Yield ``(start_angle, n_tuples)`` for every region, in order."""
        for key, _, n_rows in self._payloads():
            yield key, n_rows

    def describe(self) -> str:
        """A structural report read back from the on-page image."""
        regions = list(self.iter_regions())
        sizes = [n for _, n in regions]
        lines = [
            f"DiskRankedJoinIndex K={self.k_bound} (variant={self.variant})",
            "",
            f"page size      : {self.stats.page_size}",
            f"b+-tree pages  : {self.stats.btree_pages} "
            f"(height {self._btree.height})",
            f"region pages   : {self.stats.heap_pages}",
            f"total bytes    : {self.total_bytes}",
            f"regions        : {len(regions)}",
            f"dominating set : {self.stats.n_dominating}",
        ]
        if sizes:
            lines.append(
                "region widths  : "
                f"min {min(sizes)} / max {max(sizes)} / "
                f"mean {sum(sizes) / len(sizes):.1f}"
            )
        return "\n".join(lines)

    @property
    def cache(self) -> HotRegionCache | None:
        """The hot-region descent cache, or ``None`` when disabled."""
        return self._cache

    @property
    def delta(self) -> DeltaView | None:
        """Replayed write buffer (frozen) from :meth:`recover`, or ``None``."""
        return self._delta

    def reset_io(self) -> None:
        """Clear pager counters and drop cached frames (cold-cache runs).

        On a mapped pager the page-verification memory is forgotten too,
        the hot-region cache (when attached) is emptied, and so is the
        in-region cut, so a reset run replays the full first-touch
        pattern: I/O, CRC checks and each region's reach computation.
        """
        self.pager.counters.reset()
        self.pool.clear()
        self.pool.reset_counters()
        forget = getattr(self.pager, "forget_touches", None)
        if forget is not None:
            forget()
        if self._cache is not None:
            self._cache.clear()
        self._cut.clear()
