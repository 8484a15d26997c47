"""The ``python -m repro.obs`` inspection CLI."""

import json

from repro.obs import JsonlRecorder, SpanRecord, write_chrome_trace
from repro.obs.cli import main


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


class TestRenderTrace:
    def test_renders_spans_with_depth_and_attrs(self, tmp_path, capsys):
        trace = write_chrome_trace(
            tmp_path / "trace.json",
            [
                SpanRecord("build", 0, 1.0, 0.5, attributes={"k": 20}),
                SpanRecord("build.load", 1, 1.1, 0.2),
            ],
        )
        assert main(["render-trace", str(trace)]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0].startswith("build ")
        assert "{k=20}" in lines[0]
        assert lines[1].startswith("  build.load")
        assert "2 spans" in lines[-1]

    def test_empty_trace(self, tmp_path, capsys):
        trace = write_chrome_trace(tmp_path / "trace.json", [])
        assert main(["render-trace", str(trace)]) == 0
        assert "(empty trace)" in capsys.readouterr().out

    def test_unreadable_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["render-trace", str(path)]) == 2
        assert "error" in capsys.readouterr().err


class TestRenderTraceFilter:
    def test_trace_id_keeps_only_attributed_spans(self, tmp_path, capsys):
        trace = write_chrome_trace(
            tmp_path / "trace.json",
            [
                SpanRecord(
                    "serve.request",
                    0,
                    1.0,
                    0.1,
                    attributes={"trace": "c-0001-aa"},
                ),
                SpanRecord(
                    "serve.request",
                    0,
                    1.2,
                    0.1,
                    attributes={"trace": "c-0002-bb"},
                ),
                SpanRecord("build", 0, 1.4, 0.1),
            ],
        )
        assert main(
            ["render-trace", str(trace), "--trace-id", "c-0001-aa"]
        ) == 0
        out = capsys.readouterr().out
        assert "serve.request" in out
        assert "build " not in out
        assert "1 spans" in out

    def test_unknown_trace_id_is_empty(self, tmp_path, capsys):
        trace = write_chrome_trace(
            tmp_path / "trace.json",
            [SpanRecord("build", 0, 1.0, 0.5)],
        )
        assert main(
            ["render-trace", str(trace), "--trace-id", "c-ffff-ff"]
        ) == 0
        assert "(empty trace)" in capsys.readouterr().out


class TestTop:
    def test_polls_live_server_and_renders_panel(self, capsys):
        import numpy as np

        from repro.core.index import RankedJoinIndex
        from repro.core.tuples import RankTupleSet
        from repro.serve import Client, QueryServer

        rng = np.random.default_rng(4)
        tuples = RankTupleSet.from_tuples(
            zip(range(200), rng.random(200), rng.random(200))
        )
        index = RankedJoinIndex.build(tuples, 8)
        with QueryServer(index, port=0, trace_seed=1) as server:
            host, port = server.address
            with Client(host, port, trace_seed=2) as client:
                for _ in range(5):
                    client.query(0.5, 3)
            assert main(["top", host, str(port), "--count", "1"]) == 0
        out = capsys.readouterr().out
        assert "qps" in out and "p99" in out
        assert "flight" in out and "queue" in out

    def test_unreachable_server_exits_2(self, capsys):
        assert (
            main(["top", "127.0.0.1", "1", "--count", "1", "--timeout", "0.2"])
            == 2
        )
        assert "cannot poll" in capsys.readouterr().err


class TestTail:
    @staticmethod
    def write_log(path):
        from repro.obs import ContextRecorder, trace_scope

        recorder = JsonlRecorder(path)
        traced = ContextRecorder(recorder)
        with trace_scope("c-0001-aa"):
            traced.count("rji.queries")
            with traced.span("serve.request", {"k": 3}):
                pass
        traced.count("rji.queries")
        recorder.close()

    def test_shows_all_events(self, tmp_path, capsys):
        log = tmp_path / "events.jsonl"
        self.write_log(log)
        assert main(["tail", str(log)]) == 0
        out = capsys.readouterr().out
        assert "3 events" in out

    def test_trace_filter(self, tmp_path, capsys):
        log = tmp_path / "events.jsonl"
        self.write_log(log)
        assert main(["tail", str(log), "--trace", "c-0001-aa"]) == 0
        out = capsys.readouterr().out
        assert "2 events" in out
        assert "trace=c-0001-aa" in out

    def test_level_filter(self, tmp_path, capsys):
        log = tmp_path / "events.jsonl"
        self.write_log(log)
        assert main(["tail", str(log), "--level", "info"]) == 0
        out = capsys.readouterr().out
        assert "1 events" in out
        assert "serve.request" in out

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["tail", str(tmp_path / "absent.jsonl")]) == 2
        assert "cannot open" in capsys.readouterr().err

    def test_corrupt_line_exits_2(self, tmp_path, capsys):
        log = tmp_path / "events.jsonl"
        log.write_text('{"event": "count"}\n{torn\n')
        assert main(["tail", str(log)]) == 2
        assert "invalid JSONL" in capsys.readouterr().err


class TestDiffSnapshots:
    def test_diff_table(self, tmp_path, capsys):
        old = write_json(tmp_path / "old.json", {"counters": {"a": 10}})
        new = write_json(tmp_path / "new.json", {"counters": {"a": 20}})
        assert main(["diff-snapshots", old, new]) == 0
        assert "2.000x" in capsys.readouterr().out

    def test_fail_over_gate(self, tmp_path, capsys):
        old = write_json(tmp_path / "old.json", {"counters": {"a": 10}})
        new = write_json(tmp_path / "new.json", {"counters": {"a": 20}})
        assert main(["diff-snapshots", old, new, "--fail-over", "1.5"]) == 1
        assert "exceeded" in capsys.readouterr().out
        assert main(["diff-snapshots", old, new, "--fail-over", "3.0"]) == 0

    def test_bench_reports_accepted(self, tmp_path, capsys):
        old = write_json(
            tmp_path / "old.json", {"query_counters": {"rji.queries": 200}}
        )
        new = write_json(
            tmp_path / "new.json", {"query_counters": {"rji.queries": 200}}
        )
        assert main(["diff-snapshots", old, new, "--fail-over", "1.0"]) == 0
        assert "1.000x" in capsys.readouterr().out

    def test_missing_file_exits_2(self, tmp_path, capsys):
        old = write_json(tmp_path / "old.json", {"counters": {}})
        assert main(["diff-snapshots", old, str(tmp_path / "nope.json")]) == 2
        capsys.readouterr()


class TestLintNames:
    def test_clean_file(self, tmp_path, capsys):
        path = tmp_path / "mod.py"
        path.write_text("recorder.count('rji.queries')\n")
        assert main(["lint-names", str(path)]) == 0
        assert "0 unregistered" in capsys.readouterr().out

    def test_unregistered_name_exits_1(self, tmp_path, capsys):
        path = tmp_path / "mod.py"
        path.write_text("recorder.count('rji.querys')\n")
        assert main(["lint-names", str(path)]) == 1
        out = capsys.readouterr().out
        assert "rji.querys" in out
        assert "names.py" in out

    def test_fires_on_every_verb(self, tmp_path, capsys):
        path = tmp_path / "mod.py"
        path.write_text(
            "recorder.count('no.such.count', 1)\n"
            "recorder.observe('no.such.observe', 1)\n"
            "recorder.timer('no.such.timer')\n"
            "recorder.span('no.such.span')\n"
        )
        assert main(["lint-names", str(path)]) == 1
        out = capsys.readouterr().out
        for verb in ("count", "observe", "timer", "span"):
            assert f"'no.such.{verb}' in recorder.{verb}(...)" in out
        assert "4 unregistered" in out

    def test_fires_on_typoed_counter_name(self, tmp_path, capsys):
        path = tmp_path / "mod.py"
        path.write_text(
            "def query(recorder):\n"
            "    \"\"\"Doc.\"\"\"\n"
            "    recorder.count('rji.querys')\n"
        )
        assert main(["lint-names", str(path)]) == 1
        out = capsys.readouterr().out
        assert f"{path}:3:4: unregistered metric name 'rji.querys'" in out
        assert "1 unregistered" in out

    def test_silent_on_registered_names(self, tmp_path, capsys):
        path = tmp_path / "mod.py"
        path.write_text(
            "def query(recorder):\n"
            "    \"\"\"Doc.\"\"\"\n"
            "    recorder.count('rji.queries')\n"
            "    recorder.observe('rji.descent_steps', 3)\n"
            "    with recorder.span('build.separating'):\n"
            "        pass\n"
        )
        assert main(["lint-names", str(path)]) == 0
        assert "checked 3 literal metric call sites: 0 unregistered" in (
            capsys.readouterr().out
        )

    def test_silent_on_non_recorder_objects(self, tmp_path, capsys):
        path = tmp_path / "mod.py"
        path.write_text(
            "def tally(words):\n"
            "    \"\"\"Doc.\"\"\"\n"
            "    return words.count('made.up.name')\n"
        )
        assert main(["lint-names", str(path)]) == 0
        assert "checked 0 literal metric call sites" in capsys.readouterr().out

    def test_silent_on_dynamic_prefix_extensions(self, tmp_path, capsys):
        path = tmp_path / "mod.py"
        path.write_text(
            "with recorder.span('sql.op.window'):\n"
            "    recorder.observe('sql.op.window.rows', 5)\n"
        )
        assert main(["lint-names", str(path)]) == 0
        assert "checked 2 literal metric call sites: 0 unregistered" in (
            capsys.readouterr().out
        )

    def test_silent_on_non_literal_names(self, tmp_path, capsys):
        path = tmp_path / "mod.py"
        path.write_text("self._recorder.observe(name, value)\n")
        assert main(["lint-names", str(path)]) == 0
        assert "checked 0 literal metric call sites" in capsys.readouterr().out

    def test_directory_scan(self, tmp_path, capsys):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "a.py").write_text(
            "recorder.observe('sql.op.sort.rows', 3)\n"
        )
        (tmp_path / "pkg" / "b.py").write_text(
            "recorder.span('no.such.span')\n"
        )
        assert main(["lint-names", str(tmp_path / "pkg")]) == 1
        assert "no.such.span" in capsys.readouterr().out

    def test_repository_sources_are_clean(self, capsys):
        assert main(["lint-names", "src"]) == 0
        capsys.readouterr()

    def test_syntax_error_exits_2(self, tmp_path, capsys):
        path = tmp_path / "broken.py"
        path.write_text("def broken(:\n")
        assert main(["lint-names", str(path)]) == 2
        assert "cannot parse" in capsys.readouterr().err
