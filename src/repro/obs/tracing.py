"""Span-style tracing: nested, named timings of build and query phases.

A span is one timed, named stretch of work; spans nest (a ``build``
span contains ``build.dominating``, ``build.separating`` and
``build.load`` children), and the completed records reconstruct the
phase breakdown of Figure 14 without any bespoke timing code at the
call sites.  Spans optionally carry structured *attributes* — the
region id a query landed in, the reason a compaction ran — which the
exporters (:mod:`repro.obs.export`) surface as Chrome
trace-event ``args``.

Nesting depth is tracked per thread so concurrent query threads sharing
one recorder do not interleave each other's parentage; completed spans
land in one shared, lock-protected buffer in completion order, each
stamped with its thread's identifier so exporters can lay concurrent
timelines out side by side.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from types import TracebackType
from typing import Mapping

__all__ = ["SpanRecord", "TraceBuffer"]


@dataclass(frozen=True, slots=True)
class SpanRecord:
    """One completed span: name, nesting depth, timing, and attributes.

    ``started`` is a ``time.perf_counter`` value — meaningful only
    relative to other spans of the same process, which is exactly what a
    trace needs.  ``thread`` is the originating thread's ``ident`` (an
    arbitrary but stable-within-run integer); ``attributes`` is an
    immutable snapshot of the attrs passed at span open.
    """

    name: str
    depth: int
    started: float
    elapsed: float
    thread: int = 0
    attributes: Mapping[str, object] = field(default_factory=dict)


class TraceBuffer:
    """A bounded, thread-safe collector of completed :class:`SpanRecord`s.

    Once ``capacity`` spans are held, further spans are counted but not
    stored (``dropped``), bounding memory under unbounded workloads.
    """

    def __init__(self, capacity: int = 4096):
        self._lock = threading.Lock()
        self._spans: list[SpanRecord] = []
        self._depth = threading.local()
        self.capacity = capacity
        self.dropped = 0

    def span(
        self, name: str, attrs: Mapping[str, object] | None = None
    ) -> "_ActiveSpan":
        """Open a span; use as a context manager."""
        return _ActiveSpan(self, name, attrs)

    def record(self, record: SpanRecord) -> None:
        with self._lock:
            if len(self._spans) < self.capacity:
                self._spans.append(record)
            else:
                self.dropped += 1

    @property
    def spans(self) -> list[SpanRecord]:
        """A snapshot copy of the completed spans, in completion order."""
        with self._lock:
            return list(self._spans)

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()
            self.dropped = 0

    # -- per-thread nesting depth ------------------------------------------

    def _enter_depth(self) -> int:
        depth = getattr(self._depth, "value", 0)
        self._depth.value = depth + 1
        return depth

    def _exit_depth(self) -> None:
        self._depth.value = getattr(self._depth, "value", 1) - 1


class _ActiveSpan:
    """Context manager for one open span of a :class:`TraceBuffer`."""

    __slots__ = ("_buffer", "_name", "_attrs", "_depth", "_started")

    def __init__(
        self,
        buffer: TraceBuffer,
        name: str,
        attrs: Mapping[str, object] | None = None,
    ):
        self._buffer = buffer
        self._name = name
        self._attrs = dict(attrs) if attrs else {}

    def __enter__(self) -> None:
        self._depth = self._buffer._enter_depth()
        self._started = time.perf_counter()
        return None

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> bool:
        elapsed = time.perf_counter() - self._started
        self._buffer._exit_depth()
        self._buffer.record(
            SpanRecord(
                self._name,
                self._depth,
                self._started,
                elapsed,
                threading.get_ident(),
                self._attrs,
            )
        )
        return False
