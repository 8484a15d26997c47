"""Length-prefixed record heap over pages.

Region records of the disk RJI (K tuple ids plus their rank values) are
variable length — merged regions hold up to ``K + m - 1`` tuples — so
they are stored in a byte heap where records may span page boundaries.
A record address is its global byte offset within the heap; reading a
record touches ``ceil(len / page_size) + 1`` pages at worst, each
counted through the buffer pool.
"""

from __future__ import annotations

from ..errors import StorageError
from .buffer import BufferPool
from .pager import Pager

__all__ = ["HeapFile"]

_LEN_PREFIX = 4


class HeapFile:
    """Append-only record heap; records are length-prefixed byte strings."""

    def __init__(self, pager: Pager):
        self.pager = pager
        self._page_ids: list[int] = []
        self._tail = bytearray()  # unflushed bytes of the tail page
        self._size = 0  # total heap bytes appended so far

    @classmethod
    def attach(
        cls, pager: Pager, page_ids: list[int], size_bytes: int
    ) -> "HeapFile":
        """Reattach to heap pages already present in ``pager`` (reopen path)."""
        heap = cls(pager)
        heap._page_ids = list(page_ids)
        heap._size = size_bytes
        return heap

    @property
    def n_pages(self) -> int:
        return len(self._page_ids)

    @property
    def size_bytes(self) -> int:
        """Bytes appended (the allocated space is ``n_pages * page_size``)."""
        return self._size

    def append(self, record: bytes) -> int:
        """Append one record; returns its address (global byte offset)."""
        if len(record) > 0xFFFFFFFF:
            raise StorageError("record too large")
        address = self._size
        payload = len(record).to_bytes(_LEN_PREFIX, "little") + record
        self._size += len(payload)
        self._tail.extend(payload)
        page_size = self.pager.page_size
        while len(self._tail) >= page_size:
            self._flush_page(bytes(self._tail[:page_size]))
            del self._tail[:page_size]
        return address

    def _flush_page(self, image: bytes) -> None:
        page_id = self.pager.allocate()
        from .pages import Page

        page = Page(self.pager.page_size, image)
        self.pager.write(page_id, page)
        self._page_ids.append(page_id)

    def finish(self) -> None:
        """Flush the partially filled tail page, if any."""
        if self._tail:
            padded = bytes(self._tail) + bytes(
                self.pager.page_size - len(self._tail)
            )
            self._flush_page(padded)
            self._tail.clear()

    def read(self, address: int, pool: BufferPool) -> bytes:
        """Read the record at ``address`` through a buffer pool."""
        if not 0 <= address < self._size:
            raise StorageError(f"heap address {address} out of range")
        header = self._read_span(address, _LEN_PREFIX, pool)
        length = int.from_bytes(header, "little")
        return self._read_span(address + _LEN_PREFIX, length, pool)

    def read_view(self, address: int, pager) -> memoryview:
        """Zero-copy read of the record at ``address`` from a mapped pager.

        Requires ``pager`` to expose ``view_bytes`` (a
        :class:`~repro.storage.pager.MappedPager`) and the heap's pages
        to be consecutive ids ``base .. base + n_pages - 1``: the image
        layout, which the reopen path attaches as pages ``1 ..
        heap_pages``.  The returned read-only memoryview aliases the file
        mapping; every page it spans is CRC-verified on first touch by
        the pager.
        """
        if not 0 <= address < self._size:
            raise StorageError(f"heap address {address} out of range")
        base = self._page_ids[0]
        header = pager.view_bytes(base, address, _LEN_PREFIX)
        length = int.from_bytes(header, "little")
        return pager.view_bytes(base, address + _LEN_PREFIX, length)

    def _read_span(self, offset: int, length: int, pool: BufferPool) -> bytes:
        page_size = self.pager.page_size
        out = bytearray()
        remaining = length
        cursor = offset
        while remaining > 0:
            page_index = cursor // page_size
            within = cursor % page_size
            if page_index >= len(self._page_ids):
                raise StorageError("heap read past last flushed page; call finish()")
            page = pool.get(self._page_ids[page_index])
            take = min(remaining, page_size - within)
            out += page.read_bytes(within, take)
            cursor += take
            remaining -= take
        return bytes(out)
