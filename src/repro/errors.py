"""Exception hierarchy for the ``repro`` package.

Every error raised by this package derives from :class:`ReproError`, so
callers can catch one type to handle any library failure.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "InvalidPreferenceError",
    "ConstructionError",
    "QueryError",
    "InvalidQueryError",
    "QueryTimeoutError",
    "MaintenanceError",
    "StorageError",
    "PageOverflowError",
    "CorruptPageError",
    "TornWriteError",
    "TransientStorageError",
    "CircuitOpenError",
    "SchemaError",
    "ServerError",
    "ServerOverloadedError",
    "ServerConnectionError",
]


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class InvalidPreferenceError(ReproError, ValueError):
    """A preference vector was malformed (negative or all-zero weights)."""


class ConstructionError(ReproError):
    """Index construction was given inconsistent or unusable input."""


class QueryError(ReproError, ValueError):
    """A query was malformed (e.g. ``k`` larger than the index bound K)."""


class InvalidQueryError(QueryError):
    """A query's inputs were rejected before any work was done.

    The single validation error of every query entry point: ``k``
    outside ``[1, K]`` (or the effective bound buffered deletes leave) and
    malformed preference arguments both raise this type.  It subclasses
    :class:`QueryError`, so existing handlers keep working.
    """


class QueryTimeoutError(QueryError):
    """A query exceeded its cooperative per-query deadline.

    Raised by the cooperative deadline checks of the query paths (see
    :mod:`repro.core.deadline`); a read waits for no lock, so only its
    own work spends the budget.  It subclasses
    :class:`QueryError`, so existing handlers keep working.
    """


class MaintenanceError(ReproError):
    """An incremental update could not be applied to the index."""


class StorageError(ReproError):
    """A failure in the paged-storage substrate."""


class PageOverflowError(StorageError):
    """A record did not fit into a page where it was required to."""


class CorruptPageError(StorageError):
    """A page image failed its integrity check (checksum or digest).

    Carries ``page_id`` when the corruption is attributable to one
    page; whole-file digest mismatches leave it ``None``.  Storage read
    paths must let this propagate or route it through the recovery API
    (``DiskRankedJoinIndex.verify`` / ``repair``) — the chaos contract in
    ``tests/faults`` and ``tests/storage/test_corruption.py`` check it.
    """

    def __init__(self, message: str, *, page_id: int | None = None):
        super().__init__(message)
        self.page_id = page_id


class TornWriteError(StorageError):
    """A persisted file is incomplete (truncated header, page, or footer).

    The signature of a crash mid-write on a non-atomic path; the atomic
    temp-file + fsync + rename save makes this unreachable for whole
    files written by this library, so seeing it means the file was
    produced elsewhere or damaged after the fact.
    """


class TransientStorageError(StorageError):
    """A storage operation failed in a retryable way (injected or real).

    The retry policy of the resilient serving layer retries exactly
    this type; all other :class:`StorageError` subtypes are treated as
    persistent and trip the circuit breaker immediately.
    """


class CircuitOpenError(StorageError):
    """The circuit breaker is open and no degraded path is configured.

    Raised by the resilient serving wrapper when the disk index has
    tripped and there is no in-memory fallback to serve from; callers
    should back off and retry after the breaker's cooldown.
    """


class ServerError(ReproError):
    """A failure in the network serving layer (:mod:`repro.serve`)."""


class ServerOverloadedError(ServerError):
    """The server shed this request because its admission queue is full.

    Load shedding is explicit: an overloaded server answers with this
    typed error instead of silently dropping the request or letting it
    queue unboundedly.  Callers should back off and retry; the server's
    queue-depth series (``serve.queue_depth``) shows how close to the
    bound it is running.
    """


class ServerConnectionError(ServerError):
    """The client could not reach the server or lost the connection.

    Raised by :class:`repro.serve.Client` when the socket fails
    (refused, reset, closed mid-response) — the transport-level
    counterpart of the in-process wrappers' typed storage errors.
    """


class SchemaError(ReproError, ValueError):
    """A relational operation was applied to incompatible schemas."""
