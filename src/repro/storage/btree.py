"""A disk-resident B+-tree over float keys.

ConstructRJI organizes the materialized separating points in a B-tree
whose leaves point to the region tuple sets (Section 6).  Keys here are
region start angles; values are opaque 64-bit integers (heap addresses
of region records).  Lookups use *predecessor* semantics — the entry
with the largest key not exceeding the probe — which is exactly "find
the region containing this preference angle".

The tree is bulk-loaded from sorted keys (a single scan, as the paper
notes the B-tree can be built during the scan over the sorted separating
points) and is immutable afterwards; a maintained tier compacts into a
fresh index and saves a new image (:mod:`repro.storage.durable`).

Page layout (little-endian):

* common header: ``type u8`` (0 leaf / 1 internal), ``count u16``;
* leaf: ``count`` entries of ``(key f64, value i64)`` from offset 8,
  next-leaf page id ``i64`` in the final 8 bytes (-1 terminates);
* internal: leftmost child ``i64`` at offset 8, then ``count`` entries
  of ``(separator f64, child i64)``; separator ``k_i`` routes probes
  ``>= k_i`` into ``child_i``.

Node search is a binary search over the page image itself
(:func:`_keys_not_above`): it makes the comparison ``bisect_right``
makes, ``probe < key_at(mid)``, decoding only the keys it compares —
at most ``ceil(log2(count + 1))`` per node, 8 for a full 4 KiB leaf of
255 — so a lookup costs ``O(height * log B)`` key decodes, the
logarithmic descent the paper's query bound assumes.
:attr:`BTreeSearchStats.keys_compared` counts them.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import StorageError
from .buffer import BufferPool
from .pager import Pager
from .pages import Page

__all__ = ["BPlusTree", "BTreeSearchStats"]

_HEADER = 8
_LEAF = 0
_INTERNAL = 1
_ENTRY = 16  # key f64 + value/child i64


@dataclass
class BTreeSearchStats:
    """Pages touched and keys decoded-and-compared by one lookup.

    Both are logical counts; physical reads come from the pager.
    """

    nodes_visited: int = 0
    keys_compared: int = 0


def _keys_not_above(
    page: Page, first_key: int, count: int, key: float, stats: BTreeSearchStats
) -> tuple[int, float | None]:
    """How many of a node's ``count`` sorted keys are ``<= key``, and the
    first key above it (``None`` when every key is ``<= key``).

    ``bisect_right`` over the keys at ``first_key + i * _ENTRY``, with
    its comparison (``key < key_at(mid)``), so ties, signed zeros,
    infinities and NaN probes land where a bisect over the decoded key
    list would put them.  The key above is the last one that moved the
    upper end: the search decodes no extra key for it.
    """
    lo, hi, compared, above = 0, count, 0, None
    while lo < hi:
        mid = (lo + hi) // 2
        compared += 1
        probed = page.read_f64(first_key + mid * _ENTRY)
        if key < probed:
            hi, above = mid, probed
        else:
            lo = mid + 1
    stats.keys_compared += compared
    return lo, above


class BPlusTree:
    """Immutable bulk-loaded B+-tree with predecessor search."""

    def __init__(self, pager: Pager, root_page_id: int, height: int, n_entries: int):
        self.pager = pager
        self.root_page_id = root_page_id
        self.height = height
        self.n_entries = n_entries
        #: Pages written by :meth:`bulk_load` (empty on a reopened tree).
        self._page_ids: list[int] = []

    # -- construction ------------------------------------------------------

    @classmethod
    def bulk_load(
        cls, pager: Pager, keys: list[float], values: list[int]
    ) -> "BPlusTree":
        """Build a tree from parallel ``keys`` (strictly increasing) and values."""
        if len(keys) != len(values):
            raise StorageError("keys and values must be parallel")
        if not keys:
            raise StorageError("cannot bulk-load an empty B+-tree")
        if any(b <= a for a, b in zip(keys, keys[1:])):
            raise StorageError("bulk-load keys must be strictly increasing")

        # Pager's 64-byte minimum page holds three entries per node.
        leaf_capacity = (pager.page_size - _HEADER - 8) // _ENTRY
        internal_capacity = (pager.page_size - _HEADER - 8) // _ENTRY

        tree = cls(pager, root_page_id=-1, height=1, n_entries=len(keys))

        # Leaf level: pack entries left to right, chain the leaves.
        level: list[tuple[float, int]] = []  # (first key, page id)
        leaf_ids: list[int] = []
        for start in range(0, len(keys), leaf_capacity):
            chunk_keys = keys[start : start + leaf_capacity]
            chunk_values = values[start : start + leaf_capacity]
            page_id = pager.allocate()
            page = Page(pager.page_size)
            page.write_u8(0, _LEAF)
            page.write_u16(1, len(chunk_keys))
            offset = _HEADER
            for key, value in zip(chunk_keys, chunk_values):
                page.write_f64(offset, float(key))
                page.write_i64(offset + 8, int(value))
                offset += _ENTRY
            page.write_i64(pager.page_size - 8, -1)
            pager.write(page_id, page)
            leaf_ids.append(page_id)
            level.append((float(chunk_keys[0]), page_id))
        for left, right in zip(leaf_ids, leaf_ids[1:]):
            page = pager.read(left)
            page.write_i64(pager.page_size - 8, right)
            pager.write(left, page)
        tree._page_ids.extend(leaf_ids)

        # Internal levels: each entry (separator = first key of child, child).
        height = 1
        while len(level) > 1:
            height += 1
            next_level: list[tuple[float, int]] = []
            for start in range(0, len(level), internal_capacity + 1):
                chunk = level[start : start + internal_capacity + 1]
                page_id = pager.allocate()
                page = Page(pager.page_size)
                page.write_u8(0, _INTERNAL)
                page.write_u16(1, len(chunk) - 1)
                page.write_i64(_HEADER, chunk[0][1])
                offset = _HEADER + 8
                for key, child in chunk[1:]:
                    page.write_f64(offset, key)
                    page.write_i64(offset + 8, child)
                    offset += _ENTRY
                pager.write(page_id, page)
                tree._page_ids.append(page_id)
                next_level.append((chunk[0][0], page_id))
            level = next_level

        tree.root_page_id = level[0][1]
        tree.height = height
        return tree

    # -- search --------------------------------------------------------------

    def search_le(
        self, key: float, pool: BufferPool, stats: BTreeSearchStats | None = None
    ) -> tuple[float, int, float | None]:
        """Predecessor lookup: the entry with the largest key ``<= key``,
        plus the next stored key (``None`` past the last one): the leaf's
        next key or, after a leaf's last entry, the tightest separator to
        the right on the way down (the first key of its subtree).  Raises
        :class:`StorageError` when ``key`` precedes every stored key (RJI
        stores its first region under key 0.0, so any non-negative probe
        succeeds).
        """
        if stats is None:
            stats = BTreeSearchStats()
        page_id, upper = self.root_page_id, None
        for depth in range(self.height, 0, -1):  # depth 1 is the leaf
            page = pool.get(page_id)
            stats.nodes_visited += 1
            if page.read_u8(0) != (_LEAF if depth == 1 else _INTERNAL):
                raise StorageError("B+-tree height bookkeeping is corrupt")
            # Internal child i sits 8 bytes before separator i (the
            # leftmost child before separator 0), so "keys <= probe"
            # indexes it directly.
            first = _HEADER + 8 if depth > 1 else _HEADER
            position, above = _keys_not_above(
                page, first, page.read_u16(1), key, stats
            )
            if above is not None:
                upper = above
            if depth > 1:
                page_id = page.read_i64(_HEADER + position * _ENTRY)
        if position == 0:
            raise StorageError(f"probe key {key} precedes all stored keys")
        entry = _HEADER + (position - 1) * _ENTRY
        return page.read_f64(entry), page.read_i64(entry + 8), upper

    # -- introspection ---------------------------------------------------------

    @property
    def n_pages(self) -> int:
        return len(self._page_ids)

    def iter_entries(self, pool: BufferPool):
        """Yield all ``(key, value)`` pairs in key order via the leaf chain."""
        page_id = self._leftmost_leaf(pool)
        while page_id != -1:
            page = pool.get(page_id)
            count = page.read_u16(1)
            for i in range(count):
                yield (
                    page.read_f64(_HEADER + i * _ENTRY),
                    page.read_i64(_HEADER + i * _ENTRY + 8),
                )
            page_id = page.read_i64(self.pager.page_size - 8)

    def _leftmost_leaf(self, pool: BufferPool) -> int:
        page_id = self.root_page_id
        for _ in range(self.height - 1):
            page = pool.get(page_id)
            page_id = page.read_i64(_HEADER)
        return page_id

    def check_invariants(self, pool: BufferPool) -> None:
        """Validate ordering and fanout; raises :class:`StorageError`."""
        entries = list(self.iter_entries(pool))
        if len(entries) != self.n_entries:
            raise StorageError(
                f"leaf chain yields {len(entries)} entries, expected {self.n_entries}"
            )
        keys = [key for key, _ in entries]
        if any(b <= a for a, b in zip(keys, keys[1:])):
            raise StorageError("leaf keys out of order")
