"""The one client-facing contract every index front-door satisfies.

Before the redesign each serving wrapper improvised its own query
kwargs (``timeout=`` here, ``deadline=`` there, ``record=`` elsewhere).
:class:`IndexService` pins down the canonical surface —

* ``k_bound`` — the construction bound ``K`` the service guarantees;
* ``query(preference, k, *, deadline=None)``;
* ``query_batch(preferences, k, *, deadline=None)``;

where ``preference`` is anything
:func:`~repro.core.scoring.as_preference` accepts and ``deadline`` is a
:class:`~repro.core.deadline.Deadline` or a plain budget in seconds
(:data:`~repro.core.deadline.DeadlineLike`).  All of
:class:`~repro.core.index.RankedJoinIndex`, the writable index
(:class:`~repro.core.writepath.WritableRankedJoinIndex`),
:class:`~repro.storage.resilient.ResilientDiskRankedJoinIndex` and the
remote :class:`~repro.serve.client.Client` satisfy it, so swapping a
local index for a networked one is a one-constructor change:

    service: IndexService = RankedJoinIndex.build(tuples, k=50)
    service: IndexService = Client("127.0.0.1", 7411)

The protocol is ``runtime_checkable``; ``isinstance(obj, IndexService)``
checks member presence (the signature discipline is enforced by
``tests/test_api_surface.py``).
"""

from __future__ import annotations

from typing import Protocol, Sequence, runtime_checkable

from ..core.deadline import DeadlineLike
from ..core.index import QueryResult
from ..core.scoring import PreferenceLike
from ..core.tuples import RankTuple

__all__ = ["IndexService", "MutableIndexService"]


@runtime_checkable
class IndexService(Protocol):
    """Anything that answers ranked top-k join queries for ``k <= K``."""

    @property
    def k_bound(self) -> int:
        """The construction bound ``K``: the largest ``k`` served."""
        ...

    # The stubs carry no answer path; implementors own the k <= K check.
    def query(  # rjilint: disable=RJI007
        self,
        preference: PreferenceLike,
        k: int,
        *,
        deadline: DeadlineLike = None,
    ) -> list[QueryResult]:
        """Top-k under ``preference``, highest score first."""
        ...

    def query_batch(  # rjilint: disable=RJI007
        self,
        preferences: Sequence[PreferenceLike],
        k: int,
        *,
        deadline: DeadlineLike = None,
    ) -> list[list[QueryResult]]:
        """Answer many preferences at once; one deadline budget covers all."""
        ...


@runtime_checkable
class MutableIndexService(IndexService, Protocol):
    """An :class:`IndexService` that also takes write traffic.

    ``insert`` returns whether the answered index changed (always
    ``True`` on the WAL-then-delta path, where every live tuple is
    servable); ``delete`` returns the effective bound that remains.
    :class:`~repro.core.writepath.WritableRankedJoinIndex` satisfies it
    (built, adopted, or durable), as does the remote
    :class:`~repro.serve.client.Client` against a writable server.
    """

    def insert(self, tuple_: RankTuple) -> bool:
        """Add one tuple; the write is durable before this returns."""
        ...

    def delete(self, tid: int) -> int:
        """Remove one tuple; returns the remaining ``k_effective``."""
        ...
