"""Structured JSONL event logging: every recorder event as one line.

:class:`JsonlRecorder` implements the
:class:`~repro.obs.recorder.Recorder` protocol by appending one JSON
object per event to a file (or any writable text stream):

.. code-block:: json

    {"event": "count", "level": "debug", "name": "pager.reads",
     "value": 1, "attrs": {"page": 7}, "ts": 0.001234}

Events carry a *level* — ``count``/``observe``/``timer`` events are
``debug``, span completions are ``info`` — and the recorder drops
events below its configured threshold, so a long run can keep an
``info`` log of phase spans without paying for per-page noise.
Timestamps are seconds since the recorder was opened
(``time.perf_counter`` deltas), matching the relative-time convention
of :class:`~repro.obs.tracing.SpanRecord`.

The writer is lock-protected and line-buffered: concurrent query
threads sharing one recorder interleave whole lines, never partial
ones.  Read a log back with :func:`read_jsonl`.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path
from types import TracebackType
from typing import ContextManager, Iterator, Mapping, TextIO

from ..errors import StorageError
from .recorder import Recorder

__all__ = ["JsonlRecorder", "LEVELS", "event_matches", "read_jsonl"]

#: Event severity order; the recorder drops events below its threshold.
LEVELS: dict[str, int] = {"debug": 10, "info": 20, "warning": 30}

#: Level assigned to each recorder verb.
_VERB_LEVELS = {"count": "debug", "observe": "debug", "timer": "debug", "span": "info"}


class JsonlRecorder(Recorder):
    """A recorder writing each event as one JSON line.

    ``sink`` is a path (opened for writing, truncating) or an existing
    text stream (not closed by :meth:`close`).  ``level`` is the minimum
    severity written.  Use as a context manager, or call :meth:`close`
    when done; events after close are dropped silently so a shared
    recorder outliving its log file does not crash the instrumented
    code (observability must never change answers).
    """

    enabled = True

    def __init__(
        self,
        sink: str | Path | TextIO,
        *,
        level: str = "debug",
    ):
        if level not in LEVELS:
            raise StorageError(
                f"unknown log level {level!r}; expected one of {sorted(LEVELS)}"
            )
        self.level = level
        self._threshold = LEVELS[level]
        self._lock = threading.Lock()
        if isinstance(sink, (str, Path)):
            path = Path(sink)
            path.parent.mkdir(parents=True, exist_ok=True)
            self._stream: TextIO | None = path.open("w", encoding="utf-8")
            self._owns_stream = True
        else:
            self._stream = sink
            self._owns_stream = False
        self._origin = time.perf_counter()
        self.lines_written = 0
        self.lines_dropped = 0

    # -- the recorder protocol ---------------------------------------------

    def count(
        self,
        name: str,
        value: int = 1,
        attrs: Mapping[str, object] | None = None,
    ) -> None:
        self._emit("count", name, value, attrs)

    def observe(
        self,
        name: str,
        value: float,
        attrs: Mapping[str, object] | None = None,
    ) -> None:
        self._emit("observe", name, value, attrs)

    def timer(self, name: str) -> ContextManager[None]:
        return _TimedEvent(self, "timer", name, None)

    def span(
        self, name: str, attrs: Mapping[str, object] | None = None
    ) -> ContextManager[None]:
        return _TimedEvent(self, "span", name, attrs)

    # -- writing ------------------------------------------------------------

    def _emit(
        self,
        verb: str,
        name: str,
        value: float,
        attrs: Mapping[str, object] | None,
    ) -> None:
        level = _VERB_LEVELS[verb]
        if LEVELS[level] < self._threshold:
            with self._lock:
                self.lines_dropped += 1
            return
        record = {
            "event": verb,
            "level": level,
            "name": name,
            "value": value,
            "attrs": dict(attrs) if attrs else {},
            "ts": round(time.perf_counter() - self._origin, 9),
        }
        line = json.dumps(record, sort_keys=True)
        with self._lock:
            if self._stream is None:
                self.lines_dropped += 1
                return
            self._stream.write(line + "\n")
            self.lines_written += 1

    def flush(self) -> None:
        with self._lock:
            if self._stream is not None:
                self._stream.flush()

    def close(self) -> None:
        """Flush and release the sink; further events are dropped."""
        with self._lock:
            if self._stream is None:
                return
            self._stream.flush()
            if self._owns_stream:
                self._stream.close()
            self._stream = None

    def __enter__(self) -> "JsonlRecorder":
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> bool:
        self.close()
        return False


class _TimedEvent:
    """Context manager emitting one timed event on exit."""

    __slots__ = ("_recorder", "_verb", "_name", "_attrs", "_started")

    def __init__(
        self,
        recorder: JsonlRecorder,
        verb: str,
        name: str,
        attrs: Mapping[str, object] | None,
    ):
        self._recorder = recorder
        self._verb = verb
        self._name = name
        self._attrs = attrs

    def __enter__(self) -> None:
        self._started = time.perf_counter()
        return None

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> bool:
        self._recorder._emit(
            self._verb,
            self._name,
            time.perf_counter() - self._started,
            self._attrs,
        )
        return False


def event_matches(
    event: dict,
    *,
    min_level: str = "debug",
    trace_id: str | None = None,
) -> bool:
    """Whether one logged event passes a level/trace filter.

    ``min_level`` is inclusive; unknown event levels rank below
    ``debug``.  With a ``trace_id``, the event must carry it as its
    ``trace`` attr (see :mod:`repro.obs.context`).  Drives
    ``python -m repro.obs tail``.
    """
    if min_level not in LEVELS:
        raise StorageError(
            f"unknown log level {min_level!r}; "
            f"expected one of {sorted(LEVELS)}"
        )
    if LEVELS.get(str(event.get("level")), 0) < LEVELS[min_level]:
        return False
    if trace_id is not None:
        return (event.get("attrs") or {}).get("trace") == trace_id
    return True


def read_jsonl(source: str | Path | TextIO) -> Iterator[dict]:
    """Yield the event dictionaries of a JSONL log, skipping blanks.

    Raises :class:`~repro.errors.StorageError` on a line that is not
    valid JSON — a torn write means the log cannot be trusted.
    """
    if isinstance(source, (str, Path)):
        handle: TextIO = Path(source).open("r", encoding="utf-8")
        owns = True
    else:
        handle = source
        owns = False
    try:
        for lineno, line in enumerate(handle, start=1):
            text = line.strip()
            if not text:
                continue
            try:
                yield json.loads(text)
            except json.JSONDecodeError as exc:
                raise StorageError(
                    f"invalid JSONL event at line {lineno}: {exc}"
                ) from exc
    finally:
        if owns:
            handle.close()
