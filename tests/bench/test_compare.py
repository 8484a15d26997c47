"""The report diff and its counters-based regression gate."""

import json

import pytest

from repro.bench.compare import (
    ComparisonError,
    compare_reports,
    load_report,
    render_comparison,
)
from repro.bench.__main__ import main


def make_report(name="smoke", **overrides):
    report = {
        "schema_version": 1,
        "config": {
            "name": name,
            "dataset": "uniform",
            "n_tuples": 2000,
            "k_bound": 20,
            "seed": 7,
        },
        "build": {
            "wall_seconds": 0.01,
            "n_dominating": 100,
            "n_regions": 60,
            "n_separating": 59,
            "pairs_considered": 5000,
            "n_events": 4000,
        },
        "query_latency": {"p50_s": 1e-5, "p99_s": 5e-5, "mean_s": 2e-5},
        "query_counters": {"rji.queries": 200},
        "disk": {
            "pager_reads": 10,
            "pager_writes": 0,
            "buffer_hits": 600,
            "buffer_misses": 10,
            "btree_keys_compared": 1200,
            "query_latency": {"p50_s": 2e-5, "p99_s": 6e-5},
            "index_pages": 10,
            "index_bytes": 40960,
        },
        "overhead": {"metrics_over_null": 1.2},
    }
    for dotted, value in overrides.items():
        section, key = dotted.split(".", 1)
        report[section][key] = value
    return report


class TestGate:
    def test_identical_reports_pass(self):
        comparison = compare_reports(make_report(), make_report())
        assert comparison.ok
        assert not comparison.regressions

    def test_counter_regression_fails(self):
        new = make_report(**{"build.pairs_considered": 6000})
        comparison = compare_reports(make_report(), new)
        assert not comparison.ok
        assert [d.name for d in comparison.regressions] == [
            "build.pairs_considered"
        ]

    def test_growth_below_threshold_passes(self):
        new = make_report(**{"disk.pager_reads": 11})
        assert compare_reports(make_report(), new).ok
        assert not compare_reports(
            make_report(), new, threshold=1.05
        ).ok

    def test_query_counters_are_gated(self):
        new = make_report()
        new["query_counters"]["rji.queries"] = 500
        assert not compare_reports(make_report(), new).ok

    def test_btree_keys_compared_is_gated(self):
        # A node search that went back to decoding every key (255 per
        # full leaf instead of 8) must fail CI by count.
        new = make_report(**{"disk.btree_keys_compared": 13800})
        comparison = compare_reports(make_report(), new)
        assert [d.name for d in comparison.regressions] == [
            "disk.btree_keys_compared"
        ]

    def test_disk_latency_gates_only_on_request(self):
        new = make_report()
        new["disk"]["query_latency"] = {"p50_s": 1.0, "p99_s": 1.0}
        assert compare_reports(make_report(), new).ok
        comparison = compare_reports(make_report(), new, gate_time=True)
        assert {d.name for d in comparison.regressions} == {
            "disk.query_latency.p50_s",
            "disk.query_latency.p99_s",
        }

    def test_zero_baseline_gates_any_growth(self):
        old = make_report(**{"disk.pager_reads": 0})
        new = make_report(**{"disk.pager_reads": 1})
        assert not compare_reports(old, new).ok

    def test_timings_informational_by_default(self):
        new = make_report(**{"query_latency.p50_s": 1.0})
        assert compare_reports(make_report(), new).ok

    def test_gate_time_catches_slowdowns(self):
        new = make_report(**{"query_latency.p50_s": 1.0})
        comparison = compare_reports(
            make_report(), new, gate_time=True
        )
        assert not comparison.ok
        faster = make_report(**{"query_latency.p50_s": 5e-6})
        assert compare_reports(
            make_report(), faster, gate_time=True
        ).ok

    def test_added_metric_never_gates(self):
        new = make_report()
        new["query_counters"]["sweep.chunk_scans"] = 40
        comparison = compare_reports(make_report(), new)
        assert comparison.ok
        delta = {
            d.name: d for d in comparison.deltas
        }["query_counters.sweep.chunk_scans"]
        assert delta.old is None and not delta.gated

    def test_removed_metric_never_gates(self):
        old = make_report()
        old["query_counters"]["sweep.legacy"] = 1
        assert compare_reports(old, make_report()).ok


class TestDroppedGate:
    """``query_series.*.dropped`` must be zero in NEW — exactness gate."""

    @staticmethod
    def with_series(dropped):
        report = make_report()
        report["query_series"] = {
            "rji.descent_steps": {
                "count": 200,
                "total": 1400.0,
                "min": 7,
                "max": 7,
                "mean": 7.0,
                "dropped": dropped,
            }
        }
        return report

    def test_zero_dropped_passes(self):
        comparison = compare_reports(self.with_series(0), self.with_series(0))
        assert comparison.ok
        delta = {d.name: d for d in comparison.deltas}[
            "query_series.rji.descent_steps.dropped"
        ]
        assert delta.gated

    def test_any_dropped_in_new_fails(self):
        comparison = compare_reports(self.with_series(0), self.with_series(3))
        assert not comparison.ok
        assert [d.name for d in comparison.regressions] == [
            "query_series.rji.descent_steps.dropped"
        ]

    def test_dropped_fails_even_when_baseline_also_dropped(self):
        # Not a ratio gate: 1.000x at a non-zero count still voids the
        # exactness claim of the new report.
        assert not compare_reports(self.with_series(3), self.with_series(3)).ok

    def test_dropped_fails_even_when_baseline_predates_series(self):
        assert not compare_reports(make_report(), self.with_series(1)).ok

    def test_series_absent_from_new_never_gates(self):
        assert compare_reports(self.with_series(2), make_report()).ok


class TestValidation:
    def test_mismatched_config_is_an_error(self):
        new = make_report()
        new["config"]["n_tuples"] = 5000
        with pytest.raises(ComparisonError, match="different scenarios"):
            compare_reports(make_report(), new)

    def test_name_difference_is_fine(self):
        assert compare_reports(
            make_report("baseline_smoke"), make_report("smoke")
        ).ok

    def test_extra_config_keys_tolerated(self):
        # A baseline captured before a knob existed stays comparable.
        new = make_report()
        new["config"]["new_knob"] = 4
        assert compare_reports(make_report(), new).ok

    def test_bad_threshold_rejected(self):
        with pytest.raises(ComparisonError, match=">= 1.0"):
            compare_reports(make_report(), make_report(), threshold=0.5)

    def test_load_report_rejects_garbage(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("not json")
        with pytest.raises(ComparisonError, match="cannot read"):
            load_report(path)
        path.write_text('{"no_config": true}')
        with pytest.raises(ComparisonError, match="not a benchmark"):
            load_report(path)


class TestRendering:
    def test_render_mentions_verdict_and_regressions(self):
        new = make_report(**{"build.n_events": 9000})
        text = render_comparison(compare_reports(make_report(), new))
        assert "gate: FAILED (build.n_events)" in text
        assert "REGRESSED" in text
        ok_text = render_comparison(
            compare_reports(make_report(), make_report())
        )
        assert "gate: OK" in ok_text


class TestCli:
    def _write(self, tmp_path, name, report):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(report))
        return str(path)

    def test_exit_zero_when_clean(self, tmp_path, capsys):
        old = self._write(tmp_path, "old", make_report())
        new = self._write(tmp_path, "new", make_report())
        assert main(["--compare", old, new]) == 0
        assert "gate: OK" in capsys.readouterr().out

    def test_exit_one_on_regression(self, tmp_path, capsys):
        old = self._write(tmp_path, "old", make_report())
        new = self._write(
            tmp_path, "new", make_report(**{"disk.index_bytes": 81920})
        )
        assert main(["--compare", old, new]) == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_exit_two_on_unusable_input(self, tmp_path, capsys):
        old = self._write(tmp_path, "old", make_report())
        assert main(["--compare", old, str(tmp_path / "nope.json")]) == 2
        assert "error:" in capsys.readouterr().err
