"""Cooperative per-query deadlines.

Every index front-door — :class:`~repro.core.index.RankedJoinIndex`,
the one writable index
(:class:`~repro.core.writepath.WritableRankedJoinIndex`, built,
adopted or durable), the
resilient disk wrapper in :mod:`repro.storage.resilient`, and the remote
:class:`repro.serve.Client` — accepts one canonical keyword-only
``deadline`` argument (a :class:`Deadline` or a plain number of
seconds, the :data:`DeadlineLike` alias) that the query paths check at
phase boundaries — after validation, after the descent that locates the
region, and around K-evaluation.  Checks are cooperative: a query is
never interrupted mid-phase (each phase is small, O(K log K) at worst),
but it can never run away unbounded either, and a timed-out query
raises the typed :class:`~repro.errors.QueryTimeoutError` instead of
hanging its caller.

The pre-redesign ``timeout=`` keyword of the serving wrappers served
its one deprecation release (docs/API.md, deprecation policy) and is
now retired: the wrappers accept only ``deadline=``, and passing
``timeout=`` fails with ``TypeError`` like any unknown keyword.

The clock is injectable so chaos tests drive deadlines
deterministically; production code uses ``time.monotonic``.
"""

from __future__ import annotations

import time
from typing import Callable, Union

from ..errors import QueryTimeoutError

__all__ = ["Deadline", "DeadlineLike"]


class Deadline:
    """An absolute point in (monotonic) time a query must not outlive."""

    __slots__ = ("_clock", "_expires_at", "timeout_s")

    def __init__(
        self,
        timeout_s: float,
        *,
        clock: Callable[[], float] = time.monotonic,
    ):
        if timeout_s <= 0:
            raise QueryTimeoutError(
                f"timeout must be positive, got {timeout_s}"
            )
        self.timeout_s = timeout_s
        self._clock = clock
        self._expires_at = clock() + timeout_s

    def remaining(self) -> float:
        """Seconds left before expiry (negative once expired)."""
        return self._expires_at - self._clock()

    def expired(self) -> bool:
        return self.remaining() <= 0

    def check(self, phase: str = "query") -> None:
        """Raise :class:`~repro.errors.QueryTimeoutError` once expired."""
        if self.expired():
            raise QueryTimeoutError(
                f"deadline of {self.timeout_s:.6g}s exceeded during {phase}"
            )

    @classmethod
    def of(
        cls,
        deadline: "DeadlineLike",
        *,
        clock: Callable[[], float] = time.monotonic,
    ) -> "Deadline | None":
        """Coerce the canonical ``deadline=`` argument forms.

        ``None`` propagates (no budget), an existing :class:`Deadline`
        passes through unchanged (its own clock and start time stand),
        and a plain number of seconds starts a fresh deadline on
        ``clock`` now.
        """
        if deadline is None or isinstance(deadline, Deadline):
            return deadline
        return cls(deadline, clock=clock)


#: What the canonical ``deadline=`` keyword accepts: an armed
#: :class:`Deadline`, a plain budget in seconds, or ``None``.
DeadlineLike = Union[Deadline, float, None]
