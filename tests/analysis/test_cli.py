"""CLI contract: exit codes, reporters, the merge gate on the real tree."""

import json
import subprocess
from pathlib import Path

from repro.analysis import lint_paths, render_json, render_text
from repro.analysis.cli import build_parser, main
from repro.analysis.registry import Finding

REPO_ROOT = Path(__file__).resolve().parents[2]


class TestReporters:
    def test_text_clean(self):
        assert render_text([]) == "rjilint: clean"

    def test_text_with_findings(self):
        finding = Finding(
            path="src/repro/core/x.py",
            line=3,
            col=0,
            rule="RJI003",
            message="bad",
        )
        text = render_text([finding])
        assert "src/repro/core/x.py:3:0: RJI003 bad" in text
        assert "1 finding(s) in 1 file(s)" in text

    def test_json_roundtrip(self):
        finding = Finding(
            path="src/repro/core/x.py",
            line=3,
            col=0,
            rule="RJI003",
            message="bad",
        )
        payload = json.loads(render_json([finding]))
        assert payload["total"] == 1
        assert payload["counts"] == {"RJI003": 1}
        assert payload["findings"][0]["rule"] == "RJI003"


class TestCli:
    def test_clean_file_exits_zero(self, tmp_path, capsys):
        target = tmp_path / "ok.py"
        target.write_text("X = 1\n")
        assert main([str(target)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_findings_exit_one(self, tmp_path, capsys):
        target = tmp_path / "src" / "repro" / "core" / "bad.py"
        target.parent.mkdir(parents=True)
        target.write_text("import random\n__all__ = []\n")
        assert main([str(target)]) == 1
        assert "RJI003" in capsys.readouterr().out

    def test_json_format(self, tmp_path, capsys):
        target = tmp_path / "ok.py"
        target.write_text("X = 1\n")
        assert main(["--format", "json", str(target)]) == 0
        assert json.loads(capsys.readouterr().out)["total"] == 0

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("RJI001", "RJI006"):
            assert rule_id in out

    def test_list_rules_includes_project_scope(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("RJI011", "RJI012", "RJI013"):
            assert rule_id in out
        assert "[project]" in out

    def test_unknown_rule_is_usage_error(self, capsys):
        assert main(["--select", "RJI999"]) == 2

    def test_missing_path_is_usage_error(self, capsys):
        assert main(["/no/such/dir/nope.py"]) == 2
        assert "no such path" in capsys.readouterr().err

    def test_no_cache_flag_accepted(self, tmp_path, capsys):
        target = tmp_path / "ok.py"
        target.write_text("X = 1\n")
        assert main(["--no-cache", str(target)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_default_paths_are_the_ci_gate(self):
        assert build_parser().parse_args([]).paths == ["src", "tests", "examples"]


def _git(*args, cwd):
    subprocess.run(
        ["git", *args],
        cwd=cwd,
        check=True,
        capture_output=True,
        env={
            "GIT_AUTHOR_NAME": "t",
            "GIT_AUTHOR_EMAIL": "t@t",
            "GIT_COMMITTER_NAME": "t",
            "GIT_COMMITTER_EMAIL": "t@t",
            "HOME": str(cwd),
            "PATH": "/usr/bin:/bin:/usr/local/bin",
        },
    )


class TestChangedMode:
    def _repo(self, tmp_path):
        _git("init", "-q", cwd=tmp_path)
        kept = tmp_path / "kept.py"
        kept.write_text("X = 1\n")
        doomed = tmp_path / "doomed.py"
        doomed.write_text("Y = 2\n")
        _git("add", ".", cwd=tmp_path)
        _git("commit", "-q", "-m", "seed", cwd=tmp_path)
        return kept, doomed

    def test_deleted_file_noted_and_skipped(self, tmp_path, capsys, monkeypatch):
        kept, doomed = self._repo(tmp_path)
        kept.write_text("X = 3\n")
        doomed.unlink()
        monkeypatch.chdir(tmp_path)
        assert main(["--changed"]) == 0
        out = capsys.readouterr().out
        assert "skipping deleted/renamed path: doomed.py" in out
        assert "clean" in out

    def test_nothing_changed_exits_zero(self, tmp_path, capsys, monkeypatch):
        self._repo(tmp_path)
        monkeypatch.chdir(tmp_path)
        assert main(["--changed"]) == 0
        assert "no python files changed" in capsys.readouterr().out

    def test_only_deletions_exits_zero(self, tmp_path, capsys, monkeypatch):
        _, doomed = self._repo(tmp_path)
        doomed.unlink()
        monkeypatch.chdir(tmp_path)
        assert main(["--changed"]) == 0
        out = capsys.readouterr().out
        assert "skipping deleted/renamed path: doomed.py" in out
        assert "no python files changed" in out


class TestMergeGate:
    def test_whole_tree_is_clean(self):
        """The permanent CI gate: src, tests and examples lint clean."""
        findings = lint_paths(["src", "tests", "examples"], root=REPO_ROOT)
        rendered = "\n".join(f.render() for f in findings)
        assert findings == [], f"rjilint regressions:\n{rendered}"
