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

A node is decoded by one ``struct`` call on its buffer frame's first
read (:func:`_node`) and the result lives and dies with that frame.
Node search is ``bisect_right`` over the decoded keys, so a lookup
makes ``O(height * log B)`` comparisons, the logarithmic descent the
paper's query bound assumes; :attr:`BTreeSearchStats.keys_compared`
counts them — at most ``ceil(log2(count + 1))`` per node, 8 for a full
4 KiB leaf of 255.
"""

from __future__ import annotations

import struct
from bisect import bisect_right
from dataclasses import dataclass
from functools import cache

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
    """Pages touched and keys compared by one lookup.

    Both are logical counts; physical reads come from the pager.
    """

    nodes_visited: int = 0
    keys_compared: int = 0


@cache
def _layout(leaf: bool, count: int) -> tuple[struct.Struct, tuple[int, ...]]:
    """A ``count``-key node's body format (from offset 8) and comparison
    table: ``bisect_right`` reaches each end position by one path through
    its halvings, so the path's length is the keys it compares."""
    compared = [0] * (count + 1)
    pending = [(0, count, 0)]
    while pending:
        lo, hi, depth = pending.pop()
        if lo == hi:
            compared[lo] = depth
        else:
            mid = (lo + hi) // 2
            pending += ((lo, mid, depth + 1), (mid + 1, hi, depth + 1))
    body = "dq" * count if leaf else "q" + "dq" * count
    return struct.Struct("<" + body), tuple(compared)


def _node(page: Page, kind: int) -> tuple:
    """The node in ``page`` as ``(kind, keys, slots, compared)``, decoded
    on its frame's first read (so again after a pool miss and its CRC
    check).  ``slots``: a leaf's values, or an internal node's ``count +
    1`` children; ``compared[i]``: the keys ``bisect_right`` compares to
    end at ``i``.  :class:`StorageError` when the node is not of ``kind``
    or claims more entries than its page holds."""
    node = page.memo
    if node is None:
        node_kind, count = page.read_u8(0), page.read_u16(1)
        if count > (page.size - _HEADER - 8) // _ENTRY:
            raise StorageError(
                f"B+-tree node claims {count} entries; its page holds fewer"
            )
        body, compared = _layout(node_kind == _LEAF, count)
        fields = body.unpack_from(page.data, _HEADER)
        first_key = 0 if node_kind == _LEAF else 1
        node = page.memo = (
            node_kind, fields[first_key::2], fields[1 - first_key :: 2], compared
        )
    if node[0] != kind:
        raise StorageError("B+-tree height bookkeeping is corrupt")
    return node


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
        capacity = (pager.page_size - _HEADER - 8) // _ENTRY

        tree = cls(pager, root_page_id=-1, height=1, n_entries=len(keys))

        # Leaf level: pack entries left to right, chain the leaves.
        level: list[tuple[float, int]] = []  # (first key, page id)
        leaf_ids: list[int] = []
        for start in range(0, len(keys), capacity):
            chunk_keys = keys[start : start + capacity]
            chunk_values = values[start : start + capacity]
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
            for start in range(0, len(level), capacity + 1):
                chunk = level[start : start + capacity + 1]
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
            _, keys, slots, compared = _node(
                page, _LEAF if depth == 1 else _INTERNAL
            )
            position = bisect_right(keys, key)
            stats.keys_compared += compared[position]
            if position < len(keys):
                upper = keys[position]
            if depth > 1:
                page_id = slots[position]
        if position == 0:
            raise StorageError(f"probe key {key} precedes all stored keys")
        return keys[position - 1], slots[position - 1], upper

    # -- introspection ---------------------------------------------------------

    @property
    def n_pages(self) -> int:
        return len(self._page_ids)

    def iter_entries(self, pool: BufferPool):
        """Yield all ``(key, value)`` pairs in key order via the leaf chain."""
        page_id = self.root_page_id
        for _ in range(self.height - 1):  # down to the leftmost leaf
            page_id = _node(pool.get(page_id), _INTERNAL)[2][0]
        while page_id != -1:
            page = pool.get(page_id)
            _, keys, values, _ = _node(page, _LEAF)
            yield from zip(keys, values)
            page_id = page.read_i64(self.pager.page_size - 8)

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
