"""Paged-storage substrate: pages, pager, buffer pool, heap, B+-tree.

Both the disk-resident RJI (:class:`DiskRankedJoinIndex`) and the disk
R-tree (:class:`repro.rtree.disk.DiskRTree`) are built on this layer so
space (bytes of pages) and query I/O (page reads) are measured the same
way for both sides of every comparison.

The layer is self-verifying: the pager file format carries per-page
CRC32 checksums plus a whole-file digest, saves are atomic, and
:meth:`DiskRankedJoinIndex.verify` / :meth:`~DiskRankedJoinIndex.repair`
detect and salvage damage.  :class:`ResilientDiskRankedJoinIndex` adds
the serving-side failure discipline (retry, circuit breaker, degraded
mode); see ``docs/RELIABILITY.md``.
"""

from .advisor import AdvisorReport, CandidateReport, advise_k
from .btree import BPlusTree, BTreeSearchStats
from .buffer import BufferPool
from .diskindex import (
    DiskIndexStats,
    DiskQueryStats,
    DiskRankedJoinIndex,
    IndexVerifyReport,
    RepairReport,
)
from .durable import DurableRankedJoinIndex
from .heap import HeapFile
from .wal import WAL_RECORD_SIZE, RecoveryReport, WalRecord, WriteAheadLog
from .pager import FORMAT_VERSION, IOCounters, Pager
from .pages import DEFAULT_PAGE_SIZE, Page
from .resilient import (
    CircuitBreaker,
    HealthSnapshot,
    ResilientDiskRankedJoinIndex,
    RetryPolicy,
)

__all__ = [
    "AdvisorReport",
    "BPlusTree",
    "BTreeSearchStats",
    "BufferPool",
    "CandidateReport",
    "CircuitBreaker",
    "DEFAULT_PAGE_SIZE",
    "DiskIndexStats",
    "DiskQueryStats",
    "DiskRankedJoinIndex",
    "DurableRankedJoinIndex",
    "FORMAT_VERSION",
    "HealthSnapshot",
    "HeapFile",
    "IOCounters",
    "IndexVerifyReport",
    "Page",
    "Pager",
    "RecoveryReport",
    "RepairReport",
    "ResilientDiskRankedJoinIndex",
    "RetryPolicy",
    "WAL_RECORD_SIZE",
    "WalRecord",
    "WriteAheadLog",
    "advise_k",
]
