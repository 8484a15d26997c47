"""The flight recorder: an always-on bounded ring of per-request records.

When a production query goes wrong, the cumulative counters say *that*
something was slow, not *which request* or *why*.  The flight recorder
is the serving tier's black box: every request that reaches the
executor (and every shed one) appends one small :class:`FlightRecord` —
trace id, op, ``k``, deadline, outcome, end-to-end latency, cache hit,
descent depth — to a fixed-capacity ring.  Recording is O(1), always
on, and bounded, so it is safe to leave running forever.

Retention policy (what survives, and with how much detail):

* the **ring** keeps the most recent ``capacity`` records, summary
  fields only; older records are evicted (counted in ``evicted``);
* the **slowest** ``slow_keep`` successful requests additionally retain
  EXPLAIN-grade detail (the captured recorder events of the request);
  a faster request's detail is discarded the moment it leaves the set
  — and never built at all for a request that does not enter it:
  :meth:`FlightRecorder.record` takes the detail as a callable and
  calls it only for a record it keeps;
* **every errored request** (outcome ``error`` / ``timeout`` / ``shed``)
  keeps its detail, in a separate ring of the ``error_keep`` most
  recent, so failures survive even a flood of healthy traffic.

:meth:`dump` emits the whole state as one JSON-ready dict — the ``dump``
wire op serves it live, and :class:`~repro.serve.server.QueryServer`
writes it to disk on unclean shutdown.  One lock guards all state
(RJI011); dumps are consistent cuts.
"""

from __future__ import annotations

import heapq
import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from ..errors import ConstructionError

__all__ = ["FlightRecord", "FlightRecorder"]


@dataclass(slots=True)
class FlightRecord:
    """One request, as the flight recorder remembers it."""

    trace: str
    op: str
    k: int
    outcome: str
    latency_s: float
    deadline_s: float | None = None
    cache_hit: bool | None = None
    descent_depth: int | None = None
    error: str | None = None
    #: Monotone sequence number, assigned by the recorder.
    seq: int = 0
    #: EXPLAIN-grade captured events; retained only per the policy above.
    detail: dict | None = field(default=None, repr=False)

    def to_dict(self) -> dict:
        """JSON-ready view; ``detail`` included only when retained."""
        record = {
            "seq": self.seq,
            "trace": self.trace,
            "op": self.op,
            "k": self.k,
            "outcome": self.outcome,
            "latency_s": self.latency_s,
            "deadline_s": self.deadline_s,
            "cache_hit": self.cache_hit,
            "descent_depth": self.descent_depth,
            "error": self.error,
        }
        if self.detail is not None:
            record["detail"] = self.detail
        return record


class FlightRecorder:
    """A bounded, thread-safe ring of :class:`FlightRecord` entries."""

    def __init__(
        self,
        *,
        capacity: int = 256,
        slow_keep: int = 16,
        error_keep: int = 64,
    ):
        if capacity < 1:
            raise ConstructionError(
                f"flight capacity must be >= 1, got {capacity}"
            )
        if slow_keep < 0 or error_keep < 0:
            raise ConstructionError(
                "slow_keep and error_keep must be >= 0, got "
                f"{slow_keep} / {error_keep}"
            )
        self.capacity = capacity
        self.slow_keep = slow_keep
        self.error_keep = error_keep
        self._lock = threading.Lock()
        self._ring: deque[FlightRecord] = deque()
        self._errors: deque[FlightRecord] = deque()
        #: Min-heap of ``(latency_s, seq, record)`` — the slowest
        #: ``slow_keep`` successful requests, detail attached.
        self._slow: list[tuple[float, int, FlightRecord]] = []
        self._seq = 0
        self._evicted = 0
        self._outcomes: dict[str, int] = {}

    def record(
        self,
        record: FlightRecord,
        detail: Callable[[], dict] | None = None,
    ) -> None:
        """Append one request record; O(1) amortized, always succeeds.

        ``detail`` builds the record's EXPLAIN-grade detail; it is
        called (once, under the lock) only when the retention policy
        keeps it.
        """
        with self._lock:
            self._seq += 1
            record.seq = self._seq
            self._outcomes[record.outcome] = (
                self._outcomes.get(record.outcome, 0) + 1
            )
            if len(self._ring) >= self.capacity:
                self._ring.popleft()
                self._evicted += 1
            self._ring.append(record)
            if record.outcome != "ok":
                # Errors always keep their detail; bounded separately so
                # a burst of healthy traffic cannot evict the evidence.
                if self.error_keep:
                    record.detail = detail() if detail else None
                    if len(self._errors) >= self.error_keep:
                        demoted = self._errors.popleft()
                        demoted.detail = None
                    self._errors.append(record)
                return
            if detail is None or not self.slow_keep:
                return
            entry = (record.latency_s, record.seq, record)
            if len(self._slow) < self.slow_keep:
                record.detail = detail()
                heapq.heappush(self._slow, entry)
            elif record.latency_s > self._slow[0][0]:
                record.detail = detail()
                _, _, demoted = heapq.heapreplace(self._slow, entry)
                demoted.detail = None

    def summary(self) -> dict:
        """Counts only — cheap enough for the ``stats`` op to inline."""
        with self._lock:
            return {
                "capacity": self.capacity,
                "recorded": self._seq,
                "retained": len(self._ring),
                "evicted": self._evicted,
                "errors_retained": len(self._errors),
                "outcomes": dict(self._outcomes),
            }

    def dump(self) -> dict:
        """The full black box as one JSON-ready dict (consistent cut)."""
        with self._lock:
            slowest = sorted(self._slow, reverse=True)
            return {
                "capacity": self.capacity,
                "recorded": self._seq,
                "evicted": self._evicted,
                "outcomes": dict(self._outcomes),
                "records": [record.to_dict() for record in self._ring],
                "slowest": [record.to_dict() for _, _, record in slowest],
                "errors": [record.to_dict() for record in self._errors],
            }

    def clear(self) -> None:
        """Forget everything (counters included)."""
        with self._lock:
            self._ring.clear()
            self._errors.clear()
            self._slow.clear()
            self._seq = 0
            self._evicted = 0
            self._outcomes = {}
