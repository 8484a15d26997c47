"""Request/trace context: end-to-end attribution across the serve path.

A *trace id* names one client request.  :class:`~repro.serve.client.Client`
generates one per request (``c-...``), sends it as the optional ``trace``
field of the wire protocol, and the server restores it into a
:mod:`contextvars` context before executing the request.  From there,
:class:`ContextRecorder` — a transparent wrapper around any
:class:`~repro.obs.recorder.Recorder` — stamps the active trace id
onto the ``attrs`` of **every** recorder event the request touches: the
core descent counters, the hot-region cache hits, the storage pager
reads, the serving spans.  One request, one id, one thread: the server
executes a request on the reader that read it, so a scope holds exactly
one id.

Contextvars (not thread-locals) propagate the id, so the discipline
survives whatever execution substrate the serving tier grows next
(thread pools today, async or a scatter-gather cluster tomorrow), and
nested scopes restore the outer trace on exit.

Determinism: :class:`TraceIdGenerator` is a seeded splitmix64 stream —
pass a ``seed`` under test and the ids are reproducible byte-for-byte;
without one the seed comes from ``os.urandom``.  The stdlib ``random``
module is deliberately not used (RJI003: hidden global state).

Zero-overhead-when-unobserved is preserved: ``ContextRecorder.enabled``
is false while the inner recorder is disabled and no capture is active,
so guarded hot loops (``if recorder.enabled:``) skip instrumentation
exactly as before — and a server over a disabled recorder it wrapped
itself activates no capture, so its requests stay on that path.
"""

from __future__ import annotations

import os
import threading
from contextvars import ContextVar
from dataclasses import dataclass
from types import TracebackType
from typing import ContextManager, Mapping

from .recorder import Recorder

__all__ = [
    "CapturedEvent",
    "ContextRecorder",
    "RequestCapture",
    "TraceIdGenerator",
    "current_trace_id",
    "trace_scope",
]

_MASK64 = (1 << 64) - 1

#: The trace id active in this context; ``None`` outside any request.
_TRACE_ID: ContextVar[str | None] = ContextVar("repro_trace_id", default=None)

#: The per-request event capture, when one is active (serving tier only).
_CAPTURE: ContextVar["RequestCapture | None"] = ContextVar(
    "repro_trace_capture", default=None
)


def _splitmix64(x: int) -> int:
    """One splitmix64 step: a well-mixed 64-bit value from ``x``."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


class TraceIdGenerator:
    """A thread-safe, optionally seeded stream of unique trace ids.

    Ids look like ``c-0001-9bb91f2b581a6c3e``: prefix, sequence number,
    and a seed-mixed 64-bit token.  The same ``seed`` reproduces the
    same stream, which is what makes traced tests deterministic; the
    sequence number alone already guarantees uniqueness per generator.
    """

    __slots__ = ("prefix", "seed", "_lock", "_seq")

    def __init__(self, prefix: str = "t", *, seed: int | None = None):
        if seed is None:
            seed = int.from_bytes(os.urandom(8), "big")
        self.prefix = prefix
        self.seed = seed & _MASK64
        self._lock = threading.Lock()
        self._seq = 0

    def next(self) -> str:
        """The next trace id in the stream."""
        with self._lock:
            self._seq += 1
            seq = self._seq
        token = _splitmix64(self.seed ^ seq)
        return f"{self.prefix}-{seq:04x}-{token:016x}"


def current_trace_id() -> str | None:
    """The active trace id, or ``None`` outside a request."""
    return _TRACE_ID.get()


class trace_scope:
    """Context manager activating a trace id (and optionally a capture).

    A ``None`` (or empty) id activates none, so callers can pass
    ``request.trace`` unconditionally.  Scopes nest: the previous
    id/capture are restored on exit, even across exceptions.
    """

    __slots__ = ("_id", "_capture", "_id_token", "_capture_token")

    def __init__(
        self,
        trace_id: str | None,
        *,
        capture: "RequestCapture | None" = None,
    ):
        self._id = trace_id or None
        self._capture = capture

    def __enter__(self) -> None:
        self._id_token = _TRACE_ID.set(self._id)
        self._capture_token = _CAPTURE.set(self._capture)
        return None

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> bool:
        _CAPTURE.reset(self._capture_token)
        _TRACE_ID.reset(self._id_token)
        return False


@dataclass(frozen=True, slots=True)
class CapturedEvent:
    """One recorder event captured inside a request scope."""

    verb: str
    name: str
    value: float | None
    attrs: Mapping[str, object] | None


class RequestCapture:
    """A bounded per-request sink of the recorder events a request made.

    The serving tier opens one per request so the flight recorder can
    read EXPLAIN-grade facts — descent depth, cache hit, pages touched —
    without the core knowing flight records exist; it does so only when
    something besides the server can emit into it (an enabled inner
    recorder, or a :class:`ContextRecorder` shared with the index), and
    otherwise rebuilds a kept record's detail with :meth:`add` at
    promotion, so a healthy request materialises nothing.  Bounded at
    ``max_events`` with a ``dropped`` tally, mirroring the
    series-retention discipline of
    :class:`~repro.obs.metrics.MetricsRecorder`.  Not locked: a capture
    lives on the one thread that runs its request.
    """

    __slots__ = ("max_events", "events", "dropped")

    def __init__(self, max_events: int = 128):
        self.max_events = max_events
        self.events: list[CapturedEvent] = []
        self.dropped = 0

    def add(
        self,
        verb: str,
        name: str,
        value: float | None,
        attrs: Mapping[str, object] | None,
    ) -> None:
        if len(self.events) < self.max_events:
            self.events.append(CapturedEvent(verb, name, value, attrs))
        else:
            self.dropped += 1

    def last_value(self, name: str) -> float | None:
        """The value of the most recent event named ``name``, if any."""
        for event in reversed(self.events):
            if event.name == name:
                return event.value
        return None

    def total(self, name: str) -> float:
        """Sum of the values of every event named ``name``."""
        return sum(
            event.value
            for event in self.events
            if event.name == name and event.value is not None
        )

    def detail(self) -> dict:
        """The captured events as a JSON-ready flight-record detail."""
        return {
            "events": [
                {
                    "verb": event.verb,
                    "name": event.name,
                    "value": event.value,
                    "attrs": dict(event.attrs) if event.attrs else None,
                }
                for event in self.events
            ],
            "dropped": self.dropped,
        }


def _with_trace(
    attrs: Mapping[str, object] | None, trace_id: str | None
) -> Mapping[str, object] | None:
    """``attrs`` with the active trace id merged in."""
    if trace_id is None:
        return attrs
    merged: dict[str, object] = dict(attrs) if attrs else {}
    merged["trace"] = trace_id
    return merged


class ContextRecorder(Recorder):
    """Wraps any recorder, stamping the active trace id onto every event.

    Transparent when no trace is active: events pass through with their
    attrs untouched.  Inside a :class:`trace_scope`, every ``count`` /
    ``observe`` / ``span`` gains a ``trace`` attribute
    and, when the scope carries a :class:`RequestCapture`, is mirrored
    into it — which is how the flight recorder sees per-request detail
    even when the inner recorder is the null one.
    """

    __slots__ = ("inner",)

    def __init__(self, inner: Recorder):
        self.inner = inner

    @property
    def enabled(self) -> bool:  # type: ignore[override]
        return self.inner.enabled or _CAPTURE.get() is not None

    def count(
        self,
        name: str,
        value: int = 1,
        attrs: Mapping[str, object] | None = None,
    ) -> None:
        attrs = _with_trace(attrs, _TRACE_ID.get())
        capture = _CAPTURE.get()
        if capture is not None:
            capture.add("count", name, value, attrs)
        self.inner.count(name, value, attrs)

    def observe(
        self,
        name: str,
        value: float,
        attrs: Mapping[str, object] | None = None,
    ) -> None:
        attrs = _with_trace(attrs, _TRACE_ID.get())
        capture = _CAPTURE.get()
        if capture is not None:
            capture.add("observe", name, value, attrs)
        self.inner.observe(name, value, attrs)

    def timer(self, name: str) -> ContextManager[None]:
        return self.inner.timer(name)

    def span(
        self, name: str, attrs: Mapping[str, object] | None = None
    ) -> ContextManager[None]:
        attrs = _with_trace(attrs, _TRACE_ID.get())
        capture = _CAPTURE.get()
        if capture is not None:
            capture.add("span", name, None, attrs)
        return self.inner.span(name, attrs)
