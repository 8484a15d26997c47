"""Per-query EXPLAIN: one structured cost record per answered query.

The paper's query bound ``O(log2(n*K) + k*log2 k)`` decomposes into
three structural phases — locate the angular region (binary descent),
materialize its K tuples, evaluate and partially sort — and the
aggregate counters of :class:`~repro.obs.metrics.MetricsRecorder` only
report those phases *summed over a run*.  :class:`QueryExplain` is the
per-query view: which region one query landed in, how deep the descent
went, how many tuples it scored against its ``k``, and how long each
phase took, captured by ``RankedJoinIndex.explain(preference, k)`` and
rendered by the SQL layer's ``EXPLAIN SELECT``.

Every quantity in a :class:`QueryExplain` that is also an aggregate
metric (descent depth, region size, tuples evaluated) is emitted through
the capturing :class:`ExplainRecorder` with *the same names and values*
the normal query path records, so an explained query and a plain query
are indistinguishable in a metrics snapshot — the property tests hold
the two views equal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ContextManager, Mapping

from .recorder import NULL_RECORDER, Recorder

__all__ = [
    "ExplainRecorder",
    "PhaseTiming",
    "QueryExplain",
    "RecordedEvent",
    "render_explain",
    "sort_comparison_budget",
]


@dataclass(frozen=True, slots=True)
class PhaseTiming:
    """Wall-clock seconds spent in one phase of a query."""

    name: str
    seconds: float


@dataclass(frozen=True, slots=True)
class RecordedEvent:
    """One recorder event captured while explaining a query."""

    verb: str
    name: str
    value: float
    attributes: Mapping[str, object] = field(default_factory=dict)


@dataclass(frozen=True, slots=True)
class QueryExplain:
    """The structural cost breakdown of one top-k query.

    ``descent_depth`` and ``tuples_evaluated`` equal the
    ``rji.descent_steps`` / ``rji.tuples_evaluated`` observations the
    metrics recorder makes for the same query; ``tuples_evaluated`` is
    the rows actually scored (the in-region cut's prefix, at most
    ``region_size``); ``descent_path`` is the
    sequence of separating-point positions the binary search probed.
    ``sort_comparisons`` is the deterministic ``n * ceil(log2 n)``
    comparison budget of the partial sort (zero for the ordered
    variant, which stores pre-sorted compositions).  ``cache_hit`` is
    always false: only the disk tier has a hot-region cache.  ``phases``
    carry measured wall time and are the only nondeterministic fields.
    """

    p1: float
    p2: float
    angle: float
    k: int
    k_bound: int
    variant: str
    n_regions: int
    region_id: int
    region_lo: float
    region_hi: float
    region_size: int
    descent_depth: int
    descent_path: tuple[int, ...]
    tuples_evaluated: int
    sort_comparisons: int
    n_results: int
    results: tuple = ()
    phases: tuple[PhaseTiming, ...] = ()
    cache_hit: bool = False
    #: The trace id active when the query was explained (the request
    #: context of :mod:`repro.obs.context`); ``None`` outside a request.
    trace_id: str | None = None

    def to_dict(self) -> dict:
        """JSON-ready dictionary (results included as ``[tid, score]``)."""
        return {
            "trace": self.trace_id,
            "preference": {"p1": self.p1, "p2": self.p2, "angle": self.angle},
            "k": self.k,
            "k_bound": self.k_bound,
            "variant": self.variant,
            "n_regions": self.n_regions,
            "region": {
                "id": self.region_id,
                "lo": self.region_lo,
                "hi": self.region_hi,
                "size": self.region_size,
            },
            "descent": {
                "depth": self.descent_depth,
                "path": list(self.descent_path),
                "cache_hit": self.cache_hit,
            },
            "tuples_evaluated": self.tuples_evaluated,
            "sort_comparisons": self.sort_comparisons,
            "n_results": self.n_results,
            "results": [[tid, score] for tid, score in self.results],
            "phases": {phase.name: phase.seconds for phase in self.phases},
        }


def sort_comparison_budget(n: int) -> int:
    """The deterministic ``n * ceil(log2 n)`` comparison estimate."""
    if n <= 1:
        return 0
    return n * math.ceil(math.log2(n))


class ExplainRecorder(Recorder):
    """A recorder that captures per-query :class:`QueryExplain` records.

    Wraps an inner recorder (the index's own, by default the null
    recorder) and *tees* every verb into it, so attaching an explain
    pass never hides events from an attached
    :class:`~repro.obs.metrics.MetricsRecorder` — the aggregate and
    per-query views stay consistent by construction.  Captured events
    land in :attr:`events`; finished records in :attr:`explains`.
    """

    enabled = True

    def __init__(self, inner: Recorder = NULL_RECORDER):
        self.inner = inner
        self.events: list[RecordedEvent] = []
        self.explains: list[QueryExplain] = []

    # -- the recorder protocol (tee + capture) ------------------------------

    def count(
        self,
        name: str,
        value: int = 1,
        attrs: Mapping[str, object] | None = None,
    ) -> None:
        self.events.append(
            RecordedEvent("count", name, value, dict(attrs) if attrs else {})
        )
        self.inner.count(name, value, attrs)

    def observe(
        self,
        name: str,
        value: float,
        attrs: Mapping[str, object] | None = None,
    ) -> None:
        self.events.append(
            RecordedEvent("observe", name, value, dict(attrs) if attrs else {})
        )
        self.inner.observe(name, value, attrs)

    def timer(self, name: str) -> ContextManager[None]:
        return self.inner.timer(name)

    def span(
        self, name: str, attrs: Mapping[str, object] | None = None
    ) -> ContextManager[None]:
        return self.inner.span(name, attrs)

    # -- capture ------------------------------------------------------------

    def record(self, explain: QueryExplain) -> None:
        """Attach one finished per-query record."""
        self.explains.append(explain)

    @property
    def last(self) -> QueryExplain | None:
        """The most recently captured record, if any."""
        return self.explains[-1] if self.explains else None


def _format_number(value: float) -> str:
    """Compact, deterministic float formatting for the renderer."""
    return f"{value:.6g}"


def _format_seconds(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.3f}s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.1f}ms"
    return f"{seconds * 1e6:.1f}us"


def render_explain(explain: QueryExplain, *, include_times: bool = False) -> str:
    """Deterministic text tree of one :class:`QueryExplain`.

    Without ``include_times`` the output depends only on the index
    structure and the query, so it is stable across runs and suitable
    for golden tests; with it, each phase line carries measured wall
    time.
    """
    fmt = _format_number
    lines = [
        f"explain: top-{explain.k} under preference "
        f"({fmt(explain.p1)}, {fmt(explain.p2)})"
        f"  [K={explain.k_bound}, variant={explain.variant}]"
        + (f"  [trace {explain.trace_id}]" if explain.trace_id else ""),
        f"├─ angle {fmt(explain.angle)} -> region {explain.region_id}"
        f" of {explain.n_regions}"
        f"  [{fmt(explain.region_lo)}, {fmt(explain.region_hi)})",
        f"├─ descent: depth {explain.descent_depth}, probes "
        + (
            "["
            + ", ".join(str(p) for p in explain.descent_path)
            + "]"
            if explain.descent_path
            else "[]"
        )
        + (" [hot-region cache hit]" if explain.cache_hit else ""),
        f"├─ materialize: {explain.region_size} tuples in region",
        f"├─ evaluate: {explain.tuples_evaluated} of {explain.region_size} "
        "tuples scored, "
        f"~{explain.sort_comparisons} sort comparisons",
        f"└─ emit: {explain.n_results} results (k={explain.k})",
    ]
    if include_times and explain.phases:
        parts = ", ".join(
            f"{phase.name} {_format_seconds(phase.seconds)}"
            for phase in explain.phases
        )
        lines.append(f"   phases: {parts}")
    return "\n".join(lines)
