"""The pager: page allocation plus read/write accounting.

A :class:`Pager` simulates a disk file as an array of fixed-size pages
and counts every physical page read and write.  Benchmarks report these
counters alongside wall-clock time so the comparison shapes of the paper
(Figures 15-16) are reproducible independently of interpreter speed.

The page store is kept in memory; :meth:`save` / :meth:`load` persist
the whole file so indices can be written to and reopened from real disk.
:class:`MappedPager` is the zero-copy read path over the same format: it
memory-maps the file, validates only the header eagerly, and defers each
page's CRC check to its first touch, so opening is O(1) in the number of
pages and untouched pages never cost a read.
The persisted format is *self-verifying* (format version 2): a checked
header (magic, version, geometry, header CRC), per-page CRC32 checksums,
and a whole-file digest, written atomically via temp file + fsync +
rename.  Loads detect a single flipped bit anywhere in the file and
raise the typed errors of the corruption taxonomy
(:class:`~repro.errors.CorruptPageError`,
:class:`~repro.errors.TornWriteError`) instead of serving damaged
pages.  Both formats (version 1 has no header CRC and no digest) and
both opens go through one header reader.  See ``docs/RELIABILITY.md``
for the format and the version-bump policy.

Fault-injection hook: the ``faults`` attribute is ``None`` in normal
operation; chaos runs arm a :class:`~repro.faults.FaultInjector` into
it (see :mod:`repro.faults`).

Request attribution: the pager emits ``pager.reads`` / ``pager.writes``
with a ``page`` attribute through whatever recorder it was constructed
with.  When that recorder is the serving tier's
:class:`~repro.obs.ContextRecorder` (share one recorder between
``DiskRankedJoinIndex.open`` and :class:`~repro.serve.server.QueryServer`,
as ``repro serve`` does), every page-read event also carries the trace
id of the request that caused it — per-request I/O attribution without
the pager knowing traces exist.
"""

from __future__ import annotations

import mmap
import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

from ..errors import CorruptPageError, StorageError, TornWriteError
from ..obs import NULL_RECORDER, Recorder
from .pages import DEFAULT_PAGE_SIZE, Page

__all__ = [
    "FORMAT_VERSION",
    "IOCounters",
    "MappedPager",
    "Pager",
    "atomic_write",
    "sync_dir",
]

#: Magic of the legacy (version-1) format: header is magic + <II>.
_MAGIC_V1 = b"RJIPAGER"
#: Magic of the self-verifying format.
_MAGIC_V2 = b"RJIPAGE2"
#: Current persisted format version (bump policy: docs/RELIABILITY.md).
FORMAT_VERSION = 2
_MAGIC = struct.Struct("<8s")
#: v1 header: magic, page_size u32, n_pages u32.
_HEADER_V1 = struct.Struct("<8sII")
#: v2 header: magic, version u16, page_size u32, n_pages u32,
#: whole-file digest u32, then a CRC32 (``_U32``) over these bytes.
_HEADER_V2 = struct.Struct("<8sHIII")
_U32 = struct.Struct("<I")


@dataclass
class IOCounters:
    """Physical I/O counters of a pager (or logical ones of a buffer pool)."""

    reads: int = 0
    writes: int = 0

    def reset(self) -> None:
        self.reads = 0
        self.writes = 0


def sync_dir(directory: Path) -> None:
    """Best-effort fsync of ``directory`` so the entries it holds — a
    rename's target, a created or unlinked file — survive power loss."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-dependent
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform-dependent
        pass
    finally:
        os.close(fd)


def atomic_write(path: Path, *chunks: bytes) -> None:
    """Replace ``path`` with ``chunks``, atomically and durably.

    The bytes go to ``<path>.tmp`` (a leftover one is overwritten),
    which is fsynced and renamed over ``path``; then the directory is
    fsynced.  A crash at any point leaves the old file or the new one
    under ``path``, never a torn one.
    """
    tmp = path.parent / (path.name + ".tmp")
    with tmp.open("wb") as handle:
        handle.writelines(chunks)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    sync_dir(path.parent)


@dataclass(frozen=True)
class _Layout:
    """Where a pager file keeps its parts, read from its header."""

    page_size: int
    n_pages: int
    #: Whole-file digest (``None``: format 1 has none).
    digest: int | None
    #: Offset of page 0; the CRC block follows the last page.
    start: int
    #: The CRC slots present in the file, at most ``n_pages`` of them.
    checksums: tuple[int, ...]

    @property
    def end(self) -> int:
        return self.start + self.n_pages * (self.page_size + 4)


def _read_layout(raw: bytes | mmap.mmap, path: Path) -> _Layout:
    """Parse the header of the file image ``raw`` (either format).

    A header cut short is a torn file (:class:`~repro.errors.
    TornWriteError`); a header failing its CRC is
    :class:`~repro.errors.CorruptPageError`; a wrong magic or an
    unsupported version is :class:`~repro.errors.StorageError`.
    """
    try:
        (magic,) = _MAGIC.unpack_from(raw)
        if magic == _MAGIC_V1:
            _, page_size, n_pages = _HEADER_V1.unpack_from(raw)
            digest, start = None, _HEADER_V1.size
        elif magic == _MAGIC_V2:
            _, version, page_size, n_pages, digest = (
                _HEADER_V2.unpack_from(raw)
            )
            (crc,) = _U32.unpack_from(raw, _HEADER_V2.size)
            start = _HEADER_V2.size + _U32.size
            if zlib.crc32(raw[: _HEADER_V2.size]) != crc:
                raise CorruptPageError(
                    f"{path}: header checksum mismatch (corrupt header)"
                )
            if version != FORMAT_VERSION:
                raise StorageError(
                    f"{path}: unsupported pager format version {version} "
                    f"(this build reads versions 1 and {FORMAT_VERSION})"
                )
        else:
            raise StorageError(f"{path} is not a pager file")
        block = start + n_pages * page_size
        n_slots = min(n_pages, max(0, len(raw) - block) // 4)
        checksums = struct.unpack(
            f"<{n_slots}I", raw[block : block + 4 * n_slots]
        )
    except struct.error as exc:
        raise TornWriteError(f"{path} is truncated (header)") from exc
    return _Layout(page_size, n_pages, digest, start, checksums)


class Pager:
    """An in-memory paged file with physical I/O accounting."""

    def __init__(
        self,
        page_size: int = DEFAULT_PAGE_SIZE,
        *,
        recorder: Recorder = NULL_RECORDER,
    ):
        if page_size < 64:
            raise StorageError(f"page size too small: {page_size}")
        self.page_size = page_size
        self._pages: list[bytes] = []
        # CRC32 per page, maintained on write and verified on read, so
        # torn or corrupted pages surface as errors instead of silently
        # wrong answers.
        self._checksums: list[int] = []
        #: Fault-injection hook (None = unarmed; see repro.faults).
        self.faults = None
        self.counters = IOCounters()
        self.recorder = recorder

    @property
    def n_pages(self) -> int:
        return len(self._pages)

    @property
    def total_bytes(self) -> int:
        """Total allocated space in bytes (Figure 16's space metric)."""
        return len(self._pages) * self.page_size

    def allocate(self) -> int:
        """Allocate a new zeroed page and return its page id."""
        image = bytes(self.page_size)
        self._pages.append(image)
        self._checksums.append(zlib.crc32(image))
        return len(self._pages) - 1

    def read(self, page_id: int) -> Page:
        """Read and checksum-verify a page (one physical read).

        Raises :class:`~repro.errors.CorruptPageError` when the image
        fails its checksum (bit rot or injected corruption).
        """
        self._check_id(page_id)
        image = self._verify(page_id, self._pages[page_id])
        return Page(self.page_size, image)

    def _verify(
        self, page_id: int, image: bytes | memoryview
    ) -> bytes | memoryview:
        """Count one physical read of ``image`` and check it against the
        page's CRC; returns the image as read (an armed fault hook may
        replace it)."""
        self.counters.reads += 1
        if self.recorder.enabled:
            self.recorder.count("pager.reads", 1, {"page": page_id})
        if self.faults is not None:
            image = self.faults.on_pager_read(page_id, bytes(image))
        if zlib.crc32(image) != self._checksums[page_id]:
            raise CorruptPageError(
                f"checksum mismatch on page {page_id}", page_id=page_id
            )
        return image

    def write(self, page_id: int, page: Page) -> None:
        """Write a page image back (counted as one physical write)."""
        self._check_id(page_id)
        if page.size != self.page_size:
            raise StorageError(
                f"page size mismatch: {page.size} != {self.page_size}"
            )
        self.counters.writes += 1
        if self.recorder.enabled:
            self.recorder.count("pager.writes", 1, {"page": page_id})
        image = page.to_bytes()
        stored = image
        if self.faults is not None:
            # An injected torn write stores damaged bytes under the
            # intended checksum: the next read detects the mismatch.
            stored = self.faults.on_pager_write(page_id, image)
        self._pages[page_id] = stored
        self._checksums[page_id] = zlib.crc32(image)

    def _check_id(self, page_id: int) -> None:
        if not 0 <= page_id < len(self._pages):
            raise StorageError(
                f"page id {page_id} out of range [0, {len(self._pages)})"
            )

    # -- persistence ---------------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Persist the paged file through :func:`atomic_write`.

        Layout (format version 2): checked header, page images, then the
        per-page CRC32 block.  The header's whole-file digest covers the
        images and the CRC block, so corruption of *any* persisted byte
        is detected on load.  A crash mid-save leaves the previous file
        intact, never a torn one, and the new file is durable before
        ``save`` returns.
        """
        checksum_block = struct.pack(
            f"<{len(self._checksums)}I", *self._checksums
        )
        digest = 0
        for image in self._pages:
            digest = zlib.crc32(image, digest)
        digest = zlib.crc32(checksum_block, digest)
        header = _HEADER_V2.pack(
            _MAGIC_V2,
            FORMAT_VERSION,
            self.page_size,
            len(self._pages),
            digest,
        )
        atomic_write(
            Path(path),
            header,
            _U32.pack(zlib.crc32(header)),
            *self._pages,
            checksum_block,
        )

    @classmethod
    def load(cls, path: str | Path) -> "Pager":
        """Reopen a paged file (either format); every persisted byte is
        verified.

        Truncation raises :class:`~repro.errors.TornWriteError`; any
        checksum or digest failure raises
        :class:`~repro.errors.CorruptPageError` naming the damaged page
        where attributable.
        """
        path = Path(path)
        raw = path.read_bytes()
        layout = _read_layout(raw, path)
        if len(raw) < layout.end:
            raise TornWriteError(
                f"{path} is truncated "
                f"(expected {layout.end} bytes, found {len(raw)})"
            )
        size, checksums = layout.page_size, layout.checksums
        pager = cls(size)
        for page_id in range(layout.n_pages):
            offset = layout.start + page_id * size
            image = raw[offset : offset + size]
            if zlib.crc32(image) != checksums[page_id]:
                raise CorruptPageError(
                    f"{path}: checksum mismatch on page {page_id}",
                    page_id=page_id,
                )
            pager._pages.append(image)
        pager._checksums = list(checksums)
        if layout.digest is not None and layout.digest != zlib.crc32(
            memoryview(raw)[layout.start : layout.end]
        ):
            raise CorruptPageError(
                f"{path}: whole-file digest mismatch "
                "(corruption outside any single page)"
            )
        return pager


class MappedPager(Pager):
    """A read-only, zero-copy pager over a memory-mapped format-2 file.

    :meth:`map` validates the header (magic, version, geometry, header
    CRC, exact file length) eagerly — so truncation and header damage
    still fail fast with the typed taxonomy — but defers every page's
    CRC check to :meth:`touch`, the first physical access of that page.
    Opening is therefore O(1) in the number of pages, and the page
    images are served as views over the mapping instead of deserialized
    copies (:meth:`view_bytes`; the views are read-only because the map
    is ``ACCESS_READ``, so NumPy arrays built over them are
    non-writeable).

    Accounting: a physical read is counted when a page is *verified* —
    its first touch, or every touch while a fault injector is armed
    (armed runs always re-enter the hook + CRC path, so injected
    corruption and transients surface exactly as on the eager pager).
    Re-touching a verified page is a memory hit and counts nothing.

    The mapping is immutable: :meth:`write` and :meth:`allocate` raise
    :class:`~repro.errors.StorageError`.  Format-1 files stay on the
    eager :meth:`Pager.load` path.
    """

    def __init__(
        self,
        page_size: int = DEFAULT_PAGE_SIZE,
        *,
        recorder: Recorder = NULL_RECORDER,
    ):
        super().__init__(page_size, recorder=recorder)
        self._mm: mmap.mmap | None = None
        self._mm_view: memoryview | None = None
        self._data_start = 0
        self._verified: set[int] = set()
        self._digest = 0
        self._digest_ok: bool | None = None

    @classmethod
    def map(
        cls, path: str | Path, *, recorder: Recorder = NULL_RECORDER
    ) -> "MappedPager":
        """Memory-map a format-2 pager file without deserializing it.

        The header is read by the same reader as :meth:`Pager.load`, so
        header damage and truncation raise the same typed errors; any
        file length other than the header's geometry implies is torn.
        Page checksums are verified lazily on first touch.  A format-1
        file has the same page images and CRC block and lacks only the
        header CRC and the digest; it is still refused with
        :class:`~repro.errors.StorageError` — open it without mmap, or
        re-save it to upgrade.
        """
        path = Path(path)
        with path.open("rb") as handle:
            try:
                mm = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
            except ValueError as exc:  # zero-length file cannot be mapped
                raise TornWriteError(f"{path} is truncated (magic)") from exc
        try:
            layout = _read_layout(mm, path)
            if layout.digest is None:
                raise StorageError(
                    f"{path} uses pager format version 1, which cannot be "
                    "memory-mapped; open it without mmap (Pager.load) or "
                    "re-save it to upgrade"
                )
            if len(mm) != layout.end:
                raise TornWriteError(
                    f"{path} is truncated "
                    f"(expected {layout.end} bytes, found {len(mm)})"
                )
            pager = cls(layout.page_size, recorder=recorder)
            pager._checksums = list(layout.checksums)
            # Placeholders keep the base class's geometry (page-id range
            # checks, total_bytes) working; images are served from the
            # mapping, never from this list.
            pager._pages = [b""] * layout.n_pages
            pager._digest = layout.digest
            pager._data_start = layout.start
            pager._mm = mm
            pager._mm_view = memoryview(mm)
        except BaseException:
            mm.close()
            raise
        return pager

    # -- lazy verification ---------------------------------------------------

    def touch(self, page_id: int) -> None:
        """Verify a mapped page on its first physical access.

        Counts one physical read and checks the page's CRC; later
        touches of the same page are free memory hits — unless a fault
        injector is armed, in which case every touch replays the full
        hook + CRC path so injected faults are never masked by the
        verification cache.  Raises
        :class:`~repro.errors.CorruptPageError` on mismatch, exactly
        like the eager pager's read.
        """
        self._check_id(page_id)
        if self.faults is None and page_id in self._verified:
            return
        assert self._mm_view is not None
        start = self._data_start + page_id * self.page_size
        self._verify(page_id, self._mm_view[start : start + self.page_size])
        self._verified.add(page_id)

    def read(self, page_id: int) -> Page:
        """Touch (verify) a page and return a copy of it, made in one step."""
        self.touch(page_id)
        assert self._mm_view is not None
        start = self._data_start + page_id * self.page_size
        return Page(self.page_size, self._mm_view[start : start + self.page_size])

    def view_bytes(self, page_id: int, within: int, length: int) -> memoryview:
        """A read-only zero-copy view of mapped page bytes.

        ``within`` (non-negative, like ``length``) is a byte offset
        relative to the start of ``page_id`` and may extend past it:
        the span may cover several
        *consecutive* pages (the heap allocates its pages contiguously),
        and every covered page is verified first.  The returned
        memoryview aliases the mapping — writes through it are
        impossible (``ACCESS_READ``) and it remains valid until
        :meth:`close`.
        """
        page_id += within // self.page_size
        within %= self.page_size
        last = page_id
        if length:
            last = page_id + (within + length - 1) // self.page_size
        for covered in range(page_id, last + 1):
            self.touch(covered)
        assert self._mm_view is not None
        start = self._data_start + page_id * self.page_size + within
        return self._mm_view[start : start + length]

    # -- read-only contract --------------------------------------------------

    def allocate(self) -> int:
        raise StorageError(
            "a memory-mapped pager is read-only; reopen without mmap to "
            "allocate pages"
        )

    def write(self, page_id: int, page: Page) -> None:
        raise StorageError(
            "a memory-mapped pager is read-only; reopen without mmap to "
            "write pages"
        )

    def forget_touches(self) -> None:
        """Drop the verification memory: next touches re-verify (cold runs)."""
        self._verified.clear()

    # -- whole-file verification and lifecycle -------------------------------

    def verify_digest(self) -> bool:
        """Check the whole-file digest (the eager load's final check).

        O(file size), so it runs on demand rather than at open; the
        verdict is cached.  It is the one whole-file check a mapped image
        has: damage the page CRCs cannot localize (swapped pages, a
        flipped byte in the checksum block) shows only here.
        """
        if self._digest_ok is None:
            assert self._mm_view is not None
            running = zlib.crc32(self._mm_view[self._data_start :])
            self._digest_ok = running == self._digest
        return self._digest_ok

    def save(self, path: str | Path) -> None:
        """Save the mapped file byte for byte through :func:`atomic_write`:
        a mapped pager is never written, and damage no touch has seen
        yet stays detectable in the copy."""
        assert self._mm_view is not None
        atomic_write(Path(path), self._mm_view)

    def close(self) -> None:
        """Release the mapping (best-effort: exported views keep it alive).

        Views are handed out as slices of the pager's own memoryview, so
        releasing that view always succeeds; the map itself stays open
        while a slice is alive, and a later ``close`` retries it.
        """
        if self._mm_view is not None:
            self._mm_view.release()
            self._mm_view = None
        if self._mm is not None:
            try:
                self._mm.close()
            except BufferError:
                return  # a handed-out view still aliases the map
            self._mm = None
