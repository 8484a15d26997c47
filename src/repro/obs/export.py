"""Exporters: Chrome trace-event JSON and Prometheus text snapshots.

Two one-way bridges out of the in-process observability layer:

* :func:`chrome_trace` turns completed
  :class:`~repro.obs.tracing.SpanRecord`s into the Chrome trace-event
  JSON format, loadable in ``chrome://tracing`` or Perfetto, with span
  attributes surfaced as event ``args``;
* :func:`prometheus_text` renders a
  :meth:`~repro.obs.metrics.MetricsRecorder.snapshot` in the Prometheus
  text exposition format (counters as ``counter``, series as their
  ``_count`` / ``_sum`` / ``_min`` / ``_max`` / ``_dropped`` gauges).

Both outputs are deterministic given their inputs (sorted name order,
stable field order); only the timestamps inside span records vary run
to run.  :func:`diff_snapshots` compares two snapshot (or benchmark
report) dictionaries counter by counter for the
``python -m repro.obs diff-snapshots`` CLI.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .tracing import SpanRecord

__all__ = [
    "SnapshotDelta",
    "chrome_trace",
    "diff_snapshots",
    "filter_trace_events",
    "prometheus_text",
    "render_snapshot_diff",
    "write_chrome_trace",
]


# -- Chrome trace-event JSON ---------------------------------------------------


def chrome_trace(
    spans: Iterable[SpanRecord], *, process_name: str = "repro"
) -> dict:
    """Spans as a Chrome trace-event JSON document.

    Each completed span becomes one complete ("X") event; timestamps are
    microseconds relative to the earliest span, and per-run thread
    identifiers are renumbered 0, 1, 2, ... in order of first appearance
    so traces of identical runs differ only in durations.  Span
    attributes become the event's ``args``.
    """
    records = sorted(spans, key=lambda s: (s.started, s.depth))
    origin = records[0].started if records else 0.0
    thread_ids: dict[int, int] = {}
    events: list[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 0,
            "tid": 0,
            "args": {"name": process_name},
        }
    ]
    for record in records:
        tid = thread_ids.setdefault(record.thread, len(thread_ids))
        event = {
            "name": record.name,
            "cat": record.name.split(".", 1)[0],
            "ph": "X",
            "pid": 0,
            "tid": tid,
            "ts": (record.started - origin) * 1e6,
            "dur": record.elapsed * 1e6,
        }
        args = dict(record.attributes)
        args["depth"] = record.depth
        event["args"] = args
        events.append(event)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def filter_trace_events(events: Iterable[dict], trace_id: str) -> list[dict]:
    """Chrome trace-event dicts attributed to ``trace_id``.

    An event matches when its ``args`` carry the id as ``trace``.
    Metadata events (``ph`` = ``M``) are kept so the filtered document
    still names its process.
    """
    return [
        event
        for event in events
        if event.get("ph") == "M"
        or (event.get("args") or {}).get("trace") == trace_id
    ]


def write_chrome_trace(
    path: str | Path,
    spans: Iterable[SpanRecord],
    *,
    process_name: str = "repro",
) -> Path:
    """Write :func:`chrome_trace` of ``spans`` to ``path``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    document = chrome_trace(spans, process_name=process_name)
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return path


# -- Prometheus text format ----------------------------------------------------


def _prometheus_name(name: str, *, namespace: str) -> str:
    """Sanitize a dotted metric name into a Prometheus identifier."""
    flat = "".join(
        ch if ch.isalnum() or ch == "_" else "_" for ch in name
    )
    return f"{namespace}_{flat}"


def _format_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def prometheus_text(snapshot: dict, *, namespace: str = "repro") -> str:
    """A metrics snapshot in the Prometheus text exposition format.

    Counters export as ``counter`` samples; each series exports its
    aggregate view as ``<name>_count`` / ``_sum`` / ``_min`` / ``_max``
    / ``_dropped`` gauges (retention-dropped samples included, so a
    scraper can tell exact summaries from truncated ones).  Output is
    sorted by metric name and ends with a newline.
    """
    lines: list[str] = []
    counters = snapshot.get("counters", {})
    for name in sorted(counters):
        flat = _prometheus_name(name, namespace=namespace)
        lines.append(f"# HELP {flat} counter {name}")
        lines.append(f"# TYPE {flat} counter")
        lines.append(f"{flat} {_format_value(counters[name])}")
    series = snapshot.get("series", {})
    for name in sorted(series):
        flat = _prometheus_name(name, namespace=namespace)
        summary = series[name]
        lines.append(f"# HELP {flat} series {name}")
        lines.append(f"# TYPE {flat} gauge")
        for suffix, key in (
            ("count", "count"),
            ("sum", "total"),
            ("min", "min"),
            ("max", "max"),
            ("dropped", "dropped"),
        ):
            value = summary.get(key, 0)
            lines.append(f"{flat}_{suffix} {_format_value(value)}")
    return "\n".join(lines) + "\n"


# -- snapshot diffing ----------------------------------------------------------


@dataclass(frozen=True, slots=True)
class SnapshotDelta:
    """One counter's movement between two snapshots."""

    name: str
    old: float | None
    new: float | None

    @property
    def ratio(self) -> float | None:
        if self.old is None or self.new is None or self.old == 0:
            return None
        return self.new / self.old


def _counters_of(snapshot: dict) -> dict[str, float]:
    """The counter map of a snapshot *or* a ``BENCH_*.json`` report."""
    if "query_counters" in snapshot:  # a benchmark report
        return dict(snapshot["query_counters"])
    return dict(snapshot.get("counters", {}))


def diff_snapshots(old: dict, new: dict) -> list[SnapshotDelta]:
    """Counter-by-counter diff of two snapshots (or bench reports).

    Metrics present on only one side appear with the other side
    ``None``; the result is sorted by name.
    """
    old_counters = _counters_of(old)
    new_counters = _counters_of(new)
    return [
        SnapshotDelta(
            name, old_counters.get(name), new_counters.get(name)
        )
        for name in sorted(set(old_counters) | set(new_counters))
    ]


def render_snapshot_diff(deltas: Sequence[SnapshotDelta]) -> str:
    """Fixed-width table of a snapshot diff."""
    rows = [("counter", "old", "new", "ratio")]
    for delta in deltas:
        if delta.ratio is not None:
            ratio = f"{delta.ratio:.3f}x"
        elif delta.old is None:
            ratio = "added"
        elif delta.new is None:
            ratio = "removed"
        else:
            ratio = "-"
        rows.append(
            (
                delta.name,
                "-" if delta.old is None else _format_value(delta.old),
                "-" if delta.new is None else _format_value(delta.new),
                ratio,
            )
        )
    widths = [max(len(row[i]) for row in rows) for i in range(4)]
    return "\n".join(
        "  ".join(row[i].ljust(widths[i]) for i in range(4)).rstrip()
        for row in rows
    )
