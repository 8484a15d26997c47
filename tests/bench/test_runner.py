"""The benchmark harness: report schema, determinism, CLI."""

import json

import pytest

from repro.bench import BenchConfig, run_benchmark, write_report
from repro.bench.__main__ import main
from repro.errors import ConstructionError

TINY = BenchConfig(
    name="tiny", n_tuples=250, k_bound=6, k_query=3, n_queries=40, seed=13
)


@pytest.fixture(scope="module")
def report():
    return run_benchmark(TINY)


class TestReportSchema:
    def test_top_level_sections(self, report):
        assert set(report) == {
            "schema_version",
            "config",
            "build",
            "query_latency",
            "query_counters",
            "query_series",
            "disk",
            "cold_open",
            "overhead",
        }

    def test_config_echo(self, report):
        assert report["config"]["name"] == "tiny"
        assert report["config"]["seed"] == 13

    def test_build_section(self, report):
        build = report["build"]
        assert build["wall_seconds"] > 0
        assert build["n_input"] == TINY.n_tuples
        assert 0 < build["n_dominating"] <= TINY.n_tuples
        assert build["n_regions"] >= 1
        assert build["pairs_considered"] > 0

    def test_latency_percentiles(self, report):
        latency = report["query_latency"]
        assert 0 < latency["p50_s"] <= latency["p99_s"] <= latency["max_s"]

    def test_query_counters(self, report):
        counters = report["query_counters"]
        assert counters["rji.queries"] == TINY.n_queries
        series = report["query_series"]
        assert series["rji.regions_touched"]["total"] == TINY.n_queries
        assert series["rji.descent_steps"]["count"] == TINY.n_queries

    def test_disk_section(self, report):
        disk = report["disk"]
        assert disk["btree_descent_nodes"]["count"] == TINY.n_queries
        # At most ceil(log2(255 + 1)) = 8 keys compared per node visited.
        nodes = disk["btree_descent_nodes"]["total"]
        assert nodes <= disk["btree_keys_compared"] <= 8 * nodes
        latency = disk["query_latency"]
        assert 0 < latency["p50_s"] <= latency["p99_s"] <= latency["max_s"]
        assert disk["index_pages"] > 0
        assert disk["pager_reads"] >= 0
        assert 0.0 <= disk["buffer_hit_rate"] <= 1.0

    def test_cold_open_section(self, report):
        cold = report["cold_open"]
        assert cold["file_bytes"] > 0
        assert cold["eager_open_s"] > 0
        assert cold["mmap_open_s"] > 0
        assert cold["eager_first_answer_s"] >= cold["eager_open_s"]
        assert cold["mmap_first_answer_s"] >= cold["mmap_open_s"]
        assert cold["open_speedup"] > 0

    def test_overhead_section(self, report):
        assert report["overhead"]["null_median_s"] > 0
        assert report["overhead"]["metrics_over_null"] > 0

    def test_json_serializable(self, report):
        json.dumps(report)


class TestDeterminism:
    def test_counters_reproduce(self, report):
        again = run_benchmark(TINY)
        assert again["query_counters"] == report["query_counters"]
        for key in ("pager_reads", "btree_keys_compared"):
            assert again["disk"][key] == report["disk"][key]
        for key in ("n_dominating", "n_regions", "pairs_considered"):
            assert again["build"][key] == report["build"][key]


class TestWriteReport:
    def test_writes_named_file(self, report, tmp_path):
        path = write_report(report, tmp_path)
        assert path == tmp_path / "BENCH_tiny.json"
        assert json.loads(path.read_text())["config"]["name"] == "tiny"


class TestExporters:
    def test_trace_file_has_build_and_query_spans(self, tmp_path):
        trace_path = tmp_path / "trace.json"
        run_benchmark(TINY, trace_path=trace_path)
        events = json.loads(trace_path.read_text())["traceEvents"]
        complete = [e for e in events if e.get("ph") == "X"]
        names = {e["name"] for e in complete}
        assert {"build", "build.dominating", "build.separating"} <= names
        build = next(e for e in complete if e["name"] == "build")
        assert build["args"]["k"] == TINY.k_bound
        metadata = [e for e in events if e.get("ph") == "M"]
        assert any("repro.bench:tiny" in str(e["args"]) for e in metadata)

    def test_log_file_parses_and_carries_levels(self, tmp_path):
        from repro.obs import read_jsonl

        log_path = tmp_path / "events.jsonl"
        run_benchmark(TINY, log_path=log_path)
        with log_path.open() as stream:
            events = list(read_jsonl(stream))
        assert events
        assert {e["level"] for e in events} <= {"debug", "info"}
        assert any(e["name"] == "rji.queries" for e in events)

    def test_exporters_leave_report_counters_unchanged(self, report, tmp_path):
        instrumented = run_benchmark(
            TINY,
            trace_path=tmp_path / "t.json",
            log_path=tmp_path / "l.jsonl",
        )
        assert instrumented["query_counters"] == report["query_counters"]
        assert instrumented["disk"]["pager_reads"] == report["disk"]["pager_reads"]


class TestConfigErrors:
    def test_unknown_dataset(self):
        with pytest.raises(ConstructionError, match="dataset"):
            run_benchmark(BenchConfig(dataset="nope", n_tuples=10))


class TestCLI:
    def test_custom_run(self, tmp_path, capsys):
        code = main(
            [
                "--name",
                "clitest",
                "--n-tuples",
                "200",
                "--k-bound",
                "5",
                "--k-query",
                "3",
                "--n-queries",
                "20",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["report"].endswith("BENCH_clitest.json")
        assert (tmp_path / "BENCH_clitest.json").exists()

    def test_smoke_flag_overrides_size(self, tmp_path, capsys):
        code = main(
            ["--smoke", "--name", "ci", "--out", str(tmp_path)]
        )
        assert code == 0
        written = json.loads((tmp_path / "BENCH_ci.json").read_text())
        # Smoke ignores the (large) size defaults of the custom path.
        assert written["config"]["n_tuples"] == 2000

    def test_trace_and_log_flags_write_artifacts(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        log = tmp_path / "events.jsonl"
        code = main(
            [
                "--name",
                "artifacts",
                "--n-tuples",
                "200",
                "--k-bound",
                "5",
                "--k-query",
                "3",
                "--n-queries",
                "10",
                "--out",
                str(tmp_path),
                "--trace",
                str(trace),
                "--log",
                str(log),
            ]
        )
        assert code == 0
        capsys.readouterr()
        assert json.loads(trace.read_text())
        assert log.read_text().count("\n") > 0
