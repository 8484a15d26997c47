"""The metric-name registry: one vocabulary for every recorder call.

Counter, series, and span names are part of the observability *API*: the
bench regression gate diffs them between runs, dashboards scrape them,
and a typo'd name silently forks a metric into two half-populated ones.
This module is the single source of truth — ``core``, ``storage``,
``sql`` and ``bench`` all emit from this vocabulary, and ``python -m
repro.obs lint-names`` (a CI step and a pre-commit hook) statically
checks every ``recorder.count/observe/timer/span`` call site against
it.

Names are dotted ``<subsystem>.<quantity>`` paths.  Operator-shaped
subsystems whose member set is open-ended (the SQL pipeline's per-
operator spans) register a *dynamic prefix* instead of enumerating every
member; a name is registered when it appears in one of the static sets
or extends a dynamic prefix.

The human glossary (what each name means) lives in
``docs/OBSERVABILITY.md``; keep the two in sync when adding names.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator

__all__ = [
    "ALL_NAMES",
    "COUNTERS",
    "DYNAMIC_PREFIXES",
    "MetricCall",
    "SERIES",
    "SPANS",
    "iter_metric_calls",
    "registered",
]

#: Monotone accumulating counters (``recorder.count``).
COUNTERS = frozenset(
    {
        # core build
        "dominance.input",
        "dominance.kept",
        "dominance.pruned",
        "sweep.pairs_considered",
        "sweep.events",
        "sweep.tie_groups",
        "sweep.regions",
        # core query
        "rji.queries",
        "rji.explains",
        # hot-region descent cache (repro.core.hotcache)
        "rji.cache.hits",
        "rji.cache.misses",
        "rji.cache.evictions",
        # storage
        "pager.reads",
        "pager.writes",
        "buffer.hits",
        "buffer.misses",
        "disk.queries",
        # sql
        "sql.statements",
        # faults (repro.faults injection harness)
        "faults.injected",
        # analysis (rjilint whole-program index builds)
        "analysis.files_indexed",
        "analysis.cache_hits",
        "analysis.cache_misses",
        # network serving (repro.serve)
        "serve.connections",
        "serve.requests",
        "serve.responses",
        "serve.errors",
        "serve.shed",
        "serve.bad_frames",
        "serve.untraced",
        "serve.flight_dumps",
        # durable write path (repro.storage.wal / repro.storage.durable)
        "wal.appends",
        "wal.commits",
        "wal.fsyncs",
        "wal.checkpoints",
        "wal.records_replayed",
        "wal.torn_tails",
        "wal.segments_created",
        "wal.segments_pruned",
        "delta.inserts",
        "delta.deletes",
        "delta.merged_queries",
        "compaction.runs",
        # why a triggered rebuild fired (repro.core.writepath.TRIGGERS)
        "compaction.reason.charged",
        "compaction.reason.visible",
        "compaction.reason.log",
    }
)

#: Per-operation sample series (``recorder.observe`` / ``recorder.timer``).
SERIES = frozenset(
    {
        "rji.descent_steps",
        "rji.regions_touched",
        "rji.tuples_evaluated",
        "disk.btree_nodes",
        "disk.btree_keys_compared",
        "disk.pages_read",
        "disk.tuples_evaluated",
        "sql.rows_out",
        "serve.queue_depth",
        "serve.latency",
        # buffered write-path entries outstanding after each write, and
        # how many of them hide a base row / are scored by queries
        "delta.size",
        "delta.charged",
        "delta.visible",
    }
)

#: Nested trace spans (``recorder.span``); spans also observe their
#: duration as a series under the same name.
SPANS = frozenset(
    {
        "build",
        "build.dominating",
        "build.separating",
        "build.load",
        "sql.execute",
        # one per admitted request; attrs carry its trace id
        "serve.request",
        # one delta→base merge, snapshot to swap (durable: + image save,
        # checkpoint, prune)
        "compaction",
    }
)

#: Prefixes whose extensions are registered without enumeration.  The
#: SQL pipeline emits one span (and one ``.rows`` series) per operator,
#: and the operator set grows with the dialect.
DYNAMIC_PREFIXES = ("sql.op.",)

#: Every statically registered name.
ALL_NAMES = COUNTERS | SERIES | SPANS


def registered(name: str) -> bool:
    """Whether ``name`` is a registered metric name.

    True for members of the static sets and for any extension of a
    dynamic prefix (``sql.op.sort``, ``sql.op.sort.rows``, ...).
    """
    return name in ALL_NAMES or name.startswith(DYNAMIC_PREFIXES)


#: The recorder verbs whose first argument is a metric name.
_VERBS = frozenset({"count", "observe", "timer", "span"})


@dataclass(frozen=True, slots=True)
class MetricCall:
    """One ``<recorder>.<verb>(...)`` call site found in a module."""

    verb: str
    #: The literal metric name, or ``None`` when the first argument is
    #: not a string literal (forwarding helpers inside ``repro.obs``).
    name: str | None
    line: int
    col: int


def _mentions_recorder(node: ast.expr) -> bool:
    """Whether an attribute chain passes through a recorder-ish name."""
    while isinstance(node, ast.Attribute):
        if "recorder" in node.attr.lower():
            return True
        node = node.value
    return isinstance(node, ast.Name) and "recorder" in node.id.lower()


def iter_metric_calls(tree: ast.AST) -> Iterator[MetricCall]:
    """Yield every recorder verb call site in a parsed module.

    A call counts when it invokes ``count``/``observe``/``timer``/
    ``span`` through an attribute chain that mentions a recorder
    (``recorder.count(...)``, ``self.recorder.span(...)``,
    ``self._recorder.observe(...)``).  The emitted
    :class:`MetricCall` carries the literal first argument when there is
    one, so callers can check it against :func:`registered`.
    """
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _VERBS
            and _mentions_recorder(node.func.value)
        ):
            continue
        name: str | None = None
        if (
            node.args
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
        ):
            name = node.args[0].value
        yield MetricCall(
            verb=node.func.attr,
            name=name,
            line=node.lineno,
            col=node.col_offset,
        )
