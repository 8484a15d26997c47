"""The recorder protocol: counters, value series, timers, and spans.

Observability in this codebase follows one discipline: instrumented code
takes a :class:`Recorder` and calls it; *what happens* to those calls is
the recorder's business.  The default is :data:`NULL_RECORDER`, whose
every operation is a no-op, so the hot paths of the index pay nothing
when nobody is watching.  Hot loops additionally guard batches of calls
with ``if recorder.enabled:`` so that even the no-op method dispatch is
skipped where it would be per-tuple work.

The vocabulary is deliberately small — the same four verbs cover the
paper's cost model end to end:

``count(name, value, attrs=...)``
    A monotonically accumulating counter (page reads, sweep events).
``observe(name, value, attrs=...)``
    One sample of a per-operation quantity (tuples evaluated by one
    query, B+-tree nodes on one descent); recorders that aggregate can
    report means and percentiles.
``timer(name)``
    Context manager observing the elapsed wall-clock seconds of its
    body under ``name``.
``span(name, attrs=...)``
    Context manager recording a nested trace span (build phases,
    per-operator SQL execution); spans also observe their duration.

``attrs`` is an optional mapping of structured attributes riding along
with the event (region id, page id, chunk counts).  Aggregating
recorders may ignore it; event-stream recorders (the JSONL log, the
trace buffer) carry it through to their exported records.

Counter names are dotted paths, ``<subsystem>.<quantity>``, and every
static name must be registered in :mod:`repro.obs.names` (``python -m
repro.obs lint-names`` enforces this) — the glossary lives in
``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

from typing import ContextManager, Mapping, Sequence

__all__ = ["NULL_RECORDER", "NullRecorder", "Recorder", "TeeRecorder"]

#: Structured attributes attached to one recorder event.
Attrs = Mapping[str, object]


class _NullContext:
    """A reusable context manager that does nothing."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: object) -> bool:
        return False


_NULL_CONTEXT = _NullContext()


class Recorder:
    """Base class of the recorder protocol (all operations no-ops).

    Subclasses override the four verbs; ``enabled`` advertises whether
    calls can have any effect, letting per-tuple hot loops skip even the
    call overhead.  Implementations must be thread-safe: concurrent
    query threads (``repro.core.writepath``) share one recorder.
    """

    #: Whether this recorder retains anything.  Hot paths may skip
    #: instrumentation entirely when this is False.
    enabled: bool = False

    def count(
        self, name: str, value: int = 1, attrs: Attrs | None = None
    ) -> None:
        """Add ``value`` to the accumulating counter ``name``."""

    def observe(
        self, name: str, value: float, attrs: Attrs | None = None
    ) -> None:
        """Record one sample of the per-operation series ``name``."""

    def timer(self, name: str) -> ContextManager[None]:
        """Context manager observing elapsed seconds under ``name``."""
        return _NULL_CONTEXT

    def span(
        self, name: str, attrs: Attrs | None = None
    ) -> ContextManager[None]:
        """Context manager recording a nested trace span ``name``."""
        return _NULL_CONTEXT


class NullRecorder(Recorder):
    """The zero-overhead default recorder: every operation is a no-op.

    Stateless and safe to share; use the module-level
    :data:`NULL_RECORDER` singleton rather than constructing new ones.
    """

    __slots__ = ()

    enabled = False


class _MultiContext:
    """Enters several child context managers, exits them in reverse."""

    __slots__ = ("_contexts",)

    def __init__(self, contexts: Sequence[ContextManager[None]]):
        self._contexts = contexts

    def __enter__(self) -> None:
        for context in self._contexts:
            context.__enter__()
        return None

    def __exit__(self, *exc: object) -> bool:
        for context in reversed(self._contexts):
            context.__exit__(*exc)
        return False


class TeeRecorder(Recorder):
    """Fans every event out to several child recorders.

    Lets one instrumented run feed an aggregating
    :class:`~repro.obs.metrics.MetricsRecorder` and an event-stream
    :class:`~repro.obs.log.JsonlRecorder` at once (``repro.bench
    --log``).  ``enabled`` is true when any child is enabled; disabled
    children still receive calls (they are no-ops by contract).
    """

    __slots__ = ("children",)

    def __init__(self, *children: Recorder):
        self.children = tuple(children)

    @property
    def enabled(self) -> bool:  # type: ignore[override]
        return any(child.enabled for child in self.children)

    def count(
        self, name: str, value: int = 1, attrs: Attrs | None = None
    ) -> None:
        for child in self.children:
            child.count(name, value, attrs)

    def observe(
        self, name: str, value: float, attrs: Attrs | None = None
    ) -> None:
        for child in self.children:
            child.observe(name, value, attrs)

    def timer(self, name: str) -> ContextManager[None]:
        return _MultiContext([child.timer(name) for child in self.children])

    def span(
        self, name: str, attrs: Attrs | None = None
    ) -> ContextManager[None]:
        return _MultiContext(
            [child.span(name, attrs) for child in self.children]
        )


#: Shared stateless no-op recorder — the default everywhere.
NULL_RECORDER = NullRecorder()
