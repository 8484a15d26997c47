"""Fixed-size pages — the unit of storage and I/O accounting.

Both indices of the paper are *disk resident* (Section 8.3); space is
reported as the total bytes of index plus data nodes (Figure 16) and
query cost is dominated by page accesses.  This module defines the page
abstraction that the pager, buffer pool, heap file, B+-tree and disk
R-tree are built on.
"""

from __future__ import annotations

import struct
from typing import Any

from ..errors import PageOverflowError

__all__ = ["DEFAULT_PAGE_SIZE", "Page"]

DEFAULT_PAGE_SIZE = 4096


class Page:
    """A fixed-size, mutable byte buffer with typed accessors.

    Offsets are byte positions within the page.  All multi-byte values
    are little-endian.  Writes past the page end raise
    :class:`PageOverflowError` rather than growing the buffer.

    ``memo`` is opaque to the page: whatever a reader derived from the
    image (the B+-tree keeps a node's decoded keys there), so it lives
    and dies with this frame.  Every write accessor clears it.
    """

    __slots__ = ("data", "size", "memo")

    def __init__(
        self, size: int = DEFAULT_PAGE_SIZE, data: bytes | memoryview | None = None
    ):
        if data is not None:
            if len(data) != size:
                raise PageOverflowError(
                    f"page image has {len(data)} bytes, expected {size}"
                )
            self.data = bytearray(data)
        else:
            self.data = bytearray(size)
        self.size = size
        self.memo: Any = None

    def _check(self, offset: int, length: int) -> None:
        if offset < 0 or offset + length > self.size:
            raise PageOverflowError(
                f"access [{offset}, {offset + length}) outside page of "
                f"size {self.size}"
            )

    # -- typed accessors ---------------------------------------------------
    #
    # Each accessor bounds-checks first and converts any residual
    # ``struct.error`` (a write value out of range for its field width)
    # into the typed taxonomy, so no raw struct error can cross the
    # storage boundary (rjilint rule RJI013).  The reads stay one call
    # each: the disk R-tree decodes a node with one read per field.

    def _pack(self, fmt: str, offset: int, value: int | float) -> None:
        self._check(offset, struct.calcsize(fmt))
        self.memo = None
        try:
            struct.pack_into(fmt, self.data, offset, value)
        except struct.error as exc:
            raise PageOverflowError(
                f"value {value!r} does not fit field {fmt!r}"
            ) from exc

    def write_u8(self, offset: int, value: int) -> None:
        self._pack("<B", offset, value)

    def read_u8(self, offset: int) -> int:
        self._check(offset, 1)
        try:
            return struct.unpack_from("<B", self.data, offset)[0]
        except struct.error as exc:
            raise PageOverflowError(f"u8 read at {offset} failed") from exc

    def write_u16(self, offset: int, value: int) -> None:
        self._pack("<H", offset, value)

    def read_u16(self, offset: int) -> int:
        self._check(offset, 2)
        try:
            return struct.unpack_from("<H", self.data, offset)[0]
        except struct.error as exc:
            raise PageOverflowError(f"u16 read at {offset} failed") from exc

    def write_u32(self, offset: int, value: int) -> None:
        self._pack("<I", offset, value)

    def read_u32(self, offset: int) -> int:
        self._check(offset, 4)
        try:
            return struct.unpack_from("<I", self.data, offset)[0]
        except struct.error as exc:
            raise PageOverflowError(f"u32 read at {offset} failed") from exc

    def write_i64(self, offset: int, value: int) -> None:
        self._pack("<q", offset, value)

    def read_i64(self, offset: int) -> int:
        self._check(offset, 8)
        try:
            return struct.unpack_from("<q", self.data, offset)[0]
        except struct.error as exc:
            raise PageOverflowError(f"i64 read at {offset} failed") from exc

    def write_f64(self, offset: int, value: float) -> None:
        self._pack("<d", offset, value)

    def read_f64(self, offset: int) -> float:
        self._check(offset, 8)
        try:
            return struct.unpack_from("<d", self.data, offset)[0]
        except struct.error as exc:
            raise PageOverflowError(f"f64 read at {offset} failed") from exc

    def write_bytes(self, offset: int, payload: bytes) -> None:
        self._check(offset, len(payload))
        self.memo = None
        self.data[offset : offset + len(payload)] = payload

    def read_bytes(self, offset: int, length: int) -> bytes:
        self._check(offset, length)
        return bytes(self.data[offset : offset + length])

    def to_bytes(self) -> bytes:
        """Immutable snapshot of the page image."""
        return bytes(self.data)
