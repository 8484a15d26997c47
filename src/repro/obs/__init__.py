"""repro.obs — observability: counters, tracing, explain, exporters.

The paper's headline claims are cost bounds, so the reproduction treats
counter-level observability as a first-class correctness *and*
performance tool.  Every instrumented subsystem (core build and query
paths, the paged-storage substrate, the SQL executor) takes a
:class:`Recorder`; the default :data:`NULL_RECORDER` makes every
operation a no-op, so an index built without a recorder pays nothing.

Quickstart::

    from repro import Preference, RankedJoinIndex
    from repro.obs import MetricsRecorder

    recorder = MetricsRecorder()
    index = RankedJoinIndex.build(tuples, k=50, recorder=recorder)
    index.query(Preference(0.7, 0.3), k=10)
    recorder.counter("rji.queries")           # -> 1
    recorder.series("rji.tuples_evaluated")   # -> SeriesSummary(...)
    recorder.snapshot()                       # -> JSON-ready dict

    print(render_explain(index.explain(Preference(0.7, 0.3), k=10)))

Beyond aggregation, the layer explains and exports: ``index.explain``
captures one structured :class:`QueryExplain` per query,
:func:`chrome_trace` / :func:`prometheus_text` export spans and
snapshots to standard tooling, :class:`JsonlRecorder` streams every
event to a JSONL log, and :mod:`repro.obs.names` registers the one
metric vocabulary all subsystems emit from (``python -m repro.obs
lint-names`` checks call sites against it).

Observability must never change answers: recorders only *watch*.  The
counter glossary and the recorder protocol live in
``docs/OBSERVABILITY.md``.
"""

from .context import (
    ContextRecorder,
    RequestCapture,
    TraceIdGenerator,
    current_trace_id,
    trace_scope,
)
from .explain import (
    ExplainRecorder,
    PhaseTiming,
    QueryExplain,
    RecordedEvent,
    render_explain,
    sort_comparison_budget,
)
from .export import (
    chrome_trace,
    diff_snapshots,
    filter_trace_events,
    prometheus_text,
    render_snapshot_diff,
    write_chrome_trace,
)
from .flight import FlightRecord, FlightRecorder
from .log import JsonlRecorder, read_jsonl
from .metrics import MetricsRecorder, SeriesSummary
from .recorder import NULL_RECORDER, NullRecorder, Recorder, TeeRecorder
from .tracing import SpanRecord, TraceBuffer
from .window import RollingWindow

__all__ = [
    "ContextRecorder",
    "ExplainRecorder",
    "FlightRecord",
    "FlightRecorder",
    "JsonlRecorder",
    "MetricsRecorder",
    "NULL_RECORDER",
    "NullRecorder",
    "PhaseTiming",
    "QueryExplain",
    "RecordedEvent",
    "Recorder",
    "RequestCapture",
    "RollingWindow",
    "SeriesSummary",
    "SpanRecord",
    "TeeRecorder",
    "TraceBuffer",
    "TraceIdGenerator",
    "chrome_trace",
    "current_trace_id",
    "diff_snapshots",
    "filter_trace_events",
    "prometheus_text",
    "read_jsonl",
    "render_explain",
    "render_snapshot_diff",
    "sort_comparison_budget",
    "trace_scope",
    "write_chrome_trace",
]
