"""Report-to-report comparison and the bench regression gate.

``python -m repro.bench --compare OLD.json NEW.json`` diffs two
``BENCH_<name>.json`` reports produced by :func:`repro.bench.run_benchmark`
and decides whether NEW regressed relative to OLD.

The *gate* is counters-based by default.  Counters (pairs considered,
events, regions, per-query tuples evaluated, page reads, index bytes)
are deterministic for a seeded config — two runs of the same code
produce the same values — so a gated counter growing past the threshold
is a real algorithmic regression, not machine noise.  Wall-clock
metrics (build seconds, query percentiles) are always *reported* but
only *gated* when explicitly requested (``--gate-time``), because
shared CI runners routinely show 50%+ timing variance.

One gate is absolute rather than relative: every
``query_series.<name>.dropped`` in the NEW report must be zero.  A
dropped sample means the series summary (and any percentile computed
from it) describes a truncated sample set, so the report no longer
backs its exactness claim — that fails the gate even when the baseline
dropped samples too, and even for series the baseline predates.

Comparisons are shape-tolerant: a metric present in only one report
(e.g. a counter introduced after the baseline was captured) is listed
as added/removed and never gated.  Config keys present in both reports
must agree (``name`` excluded) — comparing different scenarios is a
usage error, not a regression.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

__all__ = [
    "ComparisonError",
    "MetricDelta",
    "ReportComparison",
    "compare_reports",
    "load_report",
    "render_comparison",
]

#: Counter metrics where growth past the threshold fails the gate.
#: Everything here is "work done" — more is strictly worse.
_GATED_PREFIXES = ("query_counters.",)

#: Per-series retention-drop counts.  A non-zero ``dropped`` means the
#: series' min/max/mean (and any percentile derived from it) summarize
#: a truncated sample set, so the report's exactness claim is void —
#: these gate at exactly zero in the NEW report, independent of the
#: ratio threshold and of whether the baseline predates the metric.
_DROPPED_PREFIX = "query_series."
_DROPPED_SUFFIX = ".dropped"
_GATED_METRICS = frozenset(
    {
        "build.pairs_considered",
        "build.n_events",
        "build.n_regions",
        "build.n_separating",
        "build.n_dominating",
        "disk.pager_reads",
        "disk.buffer_misses",
        "disk.btree_keys_compared",
        "disk.index_pages",
        "disk.index_bytes",
    }
)

#: Timing metrics, gated only under ``gate_time=True``.
_TIMED_METRICS = frozenset(
    {
        "build.wall_seconds",
        "query_latency.p50_s",
        "query_latency.p99_s",
        "query_latency.mean_s",
        "disk.query_latency.p50_s",
        "disk.query_latency.p99_s",
    }
)


class ComparisonError(Exception):
    """The two reports cannot be meaningfully compared."""


@dataclass(frozen=True)
class MetricDelta:
    """One metric's movement between the old and new report."""

    name: str
    old: float | None
    new: float | None
    gated: bool
    regressed: bool

    @property
    def ratio(self) -> float | None:
        """``new / old``; ``None`` when either side is missing or zero."""
        if self.old is None or self.new is None or self.old == 0:
            return None
        return self.new / self.old


@dataclass(frozen=True)
class ReportComparison:
    """The full diff between two benchmark reports."""

    old_name: str
    new_name: str
    deltas: tuple[MetricDelta, ...]
    threshold: float
    gate_time: bool
    time_threshold: float

    @property
    def regressions(self) -> tuple[MetricDelta, ...]:
        return tuple(d for d in self.deltas if d.regressed)

    @property
    def ok(self) -> bool:
        return not self.regressions


def load_report(path: str | Path) -> dict:
    """Read one ``BENCH_*.json`` report, validating its shape."""
    path = Path(path)
    try:
        report = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ComparisonError(f"cannot read report {path}: {exc}") from exc
    if not isinstance(report, dict) or "config" not in report:
        raise ComparisonError(f"{path} is not a benchmark report")
    return report


def _check_configs(old: dict, new: dict) -> None:
    old_config = old.get("config", {})
    new_config = new.get("config", {})
    shared = (set(old_config) & set(new_config)) - {"name"}
    mismatched = {
        key: (old_config[key], new_config[key])
        for key in sorted(shared)
        if old_config[key] != new_config[key]
    }
    if mismatched:
        details = ", ".join(
            f"{key}: {was!r} -> {now!r}"
            for key, (was, now) in mismatched.items()
        )
        raise ComparisonError(
            f"reports ran different scenarios ({details}); "
            "regenerate the baseline or compare matching configs"
        )


def _numeric_metrics(report: dict) -> dict[str, float]:
    """Flatten the comparable numeric metrics of one report."""
    metrics: dict[str, float] = {}

    def take(section: str, key: str) -> None:
        value = report.get(section, {}).get(key)
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            metrics[f"{section}.{key}"] = float(value)

    for key in (
        "wall_seconds",
        "n_dominating",
        "n_regions",
        "n_separating",
        "pairs_considered",
        "n_events",
    ):
        take("build", key)
    for key in ("p50_s", "p99_s", "mean_s"):
        take("query_latency", key)
    for key in (
        "pager_reads",
        "pager_writes",
        "buffer_hits",
        "buffer_misses",
        "btree_keys_compared",
        "index_pages",
        "index_bytes",
    ):
        take("disk", key)
    disk_latency = report.get("disk", {}).get("query_latency", {})
    for key in ("p50_s", "p99_s"):
        value = disk_latency.get(key)
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            metrics[f"disk.query_latency.{key}"] = float(value)
    for name, value in report.get("query_counters", {}).items():
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            metrics[f"query_counters.{name}"] = float(value)
    for name, summary in report.get("query_series", {}).items():
        dropped = summary.get("dropped") if isinstance(summary, dict) else None
        if isinstance(dropped, (int, float)) and not isinstance(dropped, bool):
            metrics[f"{_DROPPED_PREFIX}{name}{_DROPPED_SUFFIX}"] = float(
                dropped
            )
    return metrics


def _is_gated(name: str) -> bool:
    return name in _GATED_METRICS or name.startswith(_GATED_PREFIXES)


def _is_dropped_gate(name: str) -> bool:
    return name.startswith(_DROPPED_PREFIX) and name.endswith(_DROPPED_SUFFIX)


def compare_reports(
    old: dict,
    new: dict,
    *,
    threshold: float = 1.10,
    gate_time: bool = False,
    time_threshold: float = 2.0,
) -> ReportComparison:
    """Diff two reports; gated counters past ``threshold`` fail the gate.

    ``threshold`` is a ratio: a gated counter regresses when
    ``new > old * threshold`` (old == 0 regresses on any growth).  With
    ``gate_time=True``, wall-clock metrics additionally gate at
    ``time_threshold`` — loose by design, to only catch order-of-
    magnitude slowdowns on noisy runners.
    """
    if threshold < 1.0 or time_threshold < 1.0:
        raise ComparisonError("thresholds are ratios and must be >= 1.0")
    _check_configs(old, new)
    old_metrics = _numeric_metrics(old)
    new_metrics = _numeric_metrics(new)

    deltas: list[MetricDelta] = []
    for name in sorted(set(old_metrics) | set(new_metrics)):
        was = old_metrics.get(name)
        now = new_metrics.get(name)
        dropped_gate = _is_dropped_gate(name) and now is not None
        gated = _is_gated(name) and was is not None and now is not None
        timed = (
            gate_time
            and name in _TIMED_METRICS
            and was is not None
            and now is not None
        )
        regressed = False
        if dropped_gate:
            # Exactness, not growth: any dropped sample in NEW voids the
            # percentile claim even if the baseline dropped just as many.
            regressed = now > 0
        elif gated:
            regressed = now > was * threshold if was else now > 0
        if timed and not regressed:
            regressed = now > was * time_threshold if was else now > 0
        deltas.append(
            MetricDelta(
                name=name,
                old=was,
                new=now,
                gated=gated or timed or dropped_gate,
                regressed=regressed,
            )
        )
    return ReportComparison(
        old_name=str(old.get("config", {}).get("name", "?")),
        new_name=str(new.get("config", {}).get("name", "?")),
        deltas=tuple(deltas),
        threshold=threshold,
        gate_time=gate_time,
        time_threshold=time_threshold,
    )


def _format_value(value: float | None) -> str:
    if value is None:
        return "-"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.6g}"


def _rows(comparison: ReportComparison) -> Iterator[tuple[str, ...]]:
    yield ("metric", "old", "new", "ratio", "")
    for delta in comparison.deltas:
        if delta.ratio is None:
            ratio = "added" if delta.old is None else (
                "removed" if delta.new is None else "-"
            )
        else:
            ratio = f"{delta.ratio:.3f}x"
        flag = "REGRESSED" if delta.regressed else (
            "gated" if delta.gated else ""
        )
        yield (
            delta.name,
            _format_value(delta.old),
            _format_value(delta.new),
            ratio,
            flag,
        )


def render_comparison(comparison: ReportComparison) -> str:
    """A fixed-width table plus the gate verdict."""
    rows = list(_rows(comparison))
    widths = [max(len(row[i]) for row in rows) for i in range(4)]
    lines = [
        f"comparing {comparison.old_name} (old) -> "
        f"{comparison.new_name} (new); counter threshold "
        f"{comparison.threshold:.2f}x"
        + (
            f", time threshold {comparison.time_threshold:.2f}x"
            if comparison.gate_time
            else ", timings informational"
        )
    ]
    for row in rows:
        cells = [row[i].ljust(widths[i]) for i in range(4)]
        line = "  ".join(cells)
        if row[4]:
            line += f"  {row[4]}"
        lines.append(line.rstrip())
    if comparison.ok:
        lines.append("gate: OK")
    else:
        names = ", ".join(d.name for d in comparison.regressions)
        lines.append(f"gate: FAILED ({names})")
    return "\n".join(lines)
