"""Paged-storage substrate: pages, pager, buffer pool, heap, B+-tree.

Both the disk-resident RJI (:class:`DiskRankedJoinIndex`) and the disk
R-tree (:class:`repro.rtree.disk.DiskRTree`) are built on this layer so
space (bytes of pages) and query I/O (page reads) are measured the same
way for both sides of every comparison.

The layer is self-verifying: the pager file format carries per-page
CRC32 checksums plus a whole-file digest, saves are atomic, and damage
surfaces as the typed errors of :mod:`repro.errors`.  ``repro serve``
serves the bare :class:`DiskRankedJoinIndex`; a damaged image is
rebuilt from its source data, never patched (see
``docs/RELIABILITY.md``).
"""

from .btree import BPlusTree, BTreeSearchStats
from .buffer import BufferPool
from .diskindex import DiskIndexStats, DiskQueryStats, DiskRankedJoinIndex
from .durable import DurableRankedJoinIndex
from .heap import HeapFile
from .wal import WAL_RECORD_SIZE, RecoveryReport, WalRecord, WriteAheadLog
from .pager import FORMAT_VERSION, IOCounters, Pager
from .pages import DEFAULT_PAGE_SIZE, Page

__all__ = [
    "BPlusTree",
    "BTreeSearchStats",
    "BufferPool",
    "DEFAULT_PAGE_SIZE",
    "DiskIndexStats",
    "DiskQueryStats",
    "DiskRankedJoinIndex",
    "DurableRankedJoinIndex",
    "FORMAT_VERSION",
    "HeapFile",
    "IOCounters",
    "Page",
    "Pager",
    "RecoveryReport",
    "WAL_RECORD_SIZE",
    "WalRecord",
    "WriteAheadLog",
]
