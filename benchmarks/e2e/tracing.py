"""Spans recorded from outside the program, around calls into each layer.

A span is ``(id, name, start_ns, end_ns, parent, rid, thread)``; spans
of one request share ``rid``.  They stay in memory and are written once,
at the end of the run, as Chrome trace-event JSON (load it in
``chrome://tracing`` or Perfetto) next to a per-layer table of count,
p50 and p50 *self* time — a span's duration minus the part of it its
child spans cover.  Nothing here touches ``src/``: spans inside the
program are a later issue.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path

from stats import p50

_now = time.perf_counter_ns


class Tracer:
    """Collects spans from any thread; one parent stack per thread."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, int, int, int, int, int]] = []
        self._durations_ns: defaultdict[str, list[int]] = defaultdict(list)
        self._ids = itertools.count()  # next() is atomic under the GIL
        self._local = threading.local()

    def call(self, name: str, rid: int, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span; return its result.

        The clock is read immediately around the call, so the recorded
        interval excludes the tracer's own bookkeeping.
        """
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else -1
        span_id = next(self._ids)
        stack.append(span_id)
        try:
            started = _now()
            result = fn(*args, **kwargs)
            ended = _now()
        finally:
            stack.pop()
        self.spans.append(
            (span_id, name, started, ended, parent, rid, threading.get_ident())
        )
        self._durations_ns[name].append(ended - started)
        return result

    def durations_us(self, name: str) -> list[float]:
        return [ns / 1e3 for ns in self._durations_ns[name]]

    def p50_us(self, name: str) -> float:
        return p50(self.durations_us(name))

    def layer_table(self) -> list[dict]:
        """Per span name: count, p50 and p50 self time, microseconds."""
        covered: dict[int, int] = defaultdict(int)
        for _, _, started, ended, parent, _, _ in self.spans:
            if parent >= 0:
                covered[parent] += ended - started
        rows: dict[str, tuple[list[float], list[float]]] = {}
        for span_id, name, started, ended, _, _, _ in self.spans:
            total, self_ = rows.setdefault(name, ([], []))
            total.append((ended - started) / 1e3)
            self_.append((ended - started - covered.get(span_id, 0)) / 1e3)
        return [
            {
                "span": name,
                "count": len(total),
                "p50_us": p50(total),
                "self_p50_us": p50(self_),
            }
            for name, (total, self_) in sorted(rows.items())
        ]

    def write_chrome_trace(self, path: Path) -> None:
        origin = min((s[2] for s in self.spans), default=0)
        events = [
            {
                "name": name,
                "ph": "X",
                "ts": (started - origin) / 1e3,
                "dur": (ended - started) / 1e3,
                "pid": 1,
                "tid": thread,
                "args": {"rid": rid, "span": span_id, "parent": parent},
            }
            for span_id, name, started, ended, parent, rid, thread in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events}))


def render_layer_table(rows: list[dict]) -> str:
    lines = [f"{'span':<40} {'count':>8} {'p50_us':>12} {'self_p50_us':>12}"]
    for row in rows:
        lines.append(
            f"{row['span']:<40} {row['count']:>8} "
            f"{row['p50_us']:>12.2f} {row['self_p50_us']:>12.2f}"
        )
    return "\n".join(lines)
