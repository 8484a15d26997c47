"""Engine behavior: suppressions, scoping, registry, context detection."""

import subprocess

import pytest

from repro.analysis import (
    LAYER_DAG,
    ModuleContext,
    changed_files,
    lint_paths,
    lint_source,
)
from repro.analysis.registry import all_rules, get_rule, select_rules

BAD_IMPORT = "from ..storage.diskindex import DiskRankedJoinIndex\n__all__ = []\n"
CORE = "src/repro/core/snippet.py"


class TestSuppressions:
    def test_line_suppression_silences_one_rule(self):
        source = (
            "from ..storage.diskindex import X  # rjilint: disable=RJI001\n"
            "__all__ = []\n"
        )
        assert lint_source(source, CORE) == []

    def test_suppression_is_rule_specific(self):
        source = (
            "from ..storage.diskindex import X  # rjilint: disable=RJI003\n"
            "__all__ = []\n"
        )
        assert {f.rule for f in lint_source(source, CORE)} == {"RJI001"}

    def test_file_level_suppression(self):
        source = (
            "# rjilint: disable-file=RJI005\n"
            "def public_fn():\n    \"\"\"Doc.\"\"\"\n"
        )
        assert lint_source(source, CORE) == []

    def test_directive_inside_string_is_ignored(self):
        source = (
            "__all__ = ['NOTE']\n"
            "NOTE = '# rjilint: disable-file=RJI001'\n"
            + BAD_IMPORT.splitlines()[0]
            + "\n"
        )
        assert {f.rule for f in lint_source(source, CORE)} == {"RJI001"}

    def test_multiple_rules_in_one_directive(self):
        source = (
            "import random  # rjilint: disable=RJI003,RJI001\n"
            "__all__ = []\n"
        )
        assert lint_source(source, CORE) == []


class TestContext:
    def test_package_detection(self):
        ctx = ModuleContext.from_source("", "src/repro/core/sweep.py")
        assert ctx.package == "core"
        assert ctx.package_path == ("core",)
        assert ctx.is_library and not ctx.is_test

    def test_nested_package_detection(self):
        ctx = ModuleContext.from_source(
            "", "src/repro/analysis/rules/layering.py"
        )
        assert ctx.package == "analysis"
        assert ctx.package_path == ("analysis", "rules")

    def test_root_and_errors_layers(self):
        assert ModuleContext.from_source("", "src/repro/cli.py").package == "root"
        assert (
            ModuleContext.from_source("", "src/repro/errors.py").package
            == "errors"
        )

    def test_test_detection(self):
        ctx = ModuleContext.from_source("", "tests/core/test_sweep.py")
        assert ctx.is_test and not ctx.is_library

    def test_syntax_error_becomes_parse_finding(self):
        findings = lint_source("def broken(:\n", CORE)
        assert [f.rule for f in findings] == ["RJI000"]


class TestRegistry:
    def test_all_rules_registered(self):
        ids = [rule.id for rule in all_rules()]
        assert ids == [
            "RJI001",
            "RJI003",
            "RJI004",
            "RJI005",
            "RJI006",
            "RJI007",
            "RJI008",
            "RJI011",
            "RJI012",
            "RJI013",
        ]

    def test_descriptions_and_scopes(self):
        for rule in all_rules():
            assert rule.description
            assert rule.scope in ("library", "all", "project")

    def test_select_and_ignore(self):
        assert [r.id for r in select_rules(["RJI004"], None)] == ["RJI004"]
        remaining = [r.id for r in select_rules(None, ["RJI004"])]
        assert "RJI004" not in remaining and len(remaining) == 9
        with pytest.raises(KeyError):
            select_rules(["RJI999"], None)
        assert get_rule("RJI001").name == "layering"

    def test_dag_shape(self):
        assert LAYER_DAG["core"] == frozenset({"errors", "obs"})
        assert LAYER_DAG["obs"] == frozenset({"errors"})
        assert "sql" not in LAYER_DAG["core"]
        for package, allowed in LAYER_DAG.items():
            assert package not in allowed  # self-imports are implicit
            for dep in allowed:
                assert dep in LAYER_DAG


class TestChangedFiles:
    def test_changed_files_in_fresh_repo(self, tmp_path):
        def git(*args):
            subprocess.run(
                ["git", *args],
                cwd=tmp_path,
                check=True,
                capture_output=True,
                env={
                    "GIT_AUTHOR_NAME": "t",
                    "GIT_AUTHOR_EMAIL": "t@t",
                    "GIT_COMMITTER_NAME": "t",
                    "GIT_COMMITTER_EMAIL": "t@t",
                    "HOME": str(tmp_path),
                    "PATH": "/usr/bin:/bin:/usr/local/bin",
                },
            )

        git("init", "-q")
        (tmp_path / "a.py").write_text("A = 1\n")
        (tmp_path / "b.txt").write_text("not python\n")
        git("add", "a.py", "b.txt")
        git("commit", "-q", "-m", "seed")
        (tmp_path / "a.py").write_text("A = 2\n")
        (tmp_path / "new.py").write_text("B = 1\n")
        (tmp_path / "b.txt").write_text("still not python\n")
        assert changed_files(tmp_path) == ["a.py", "new.py"]

    def test_findings_cache_follows_the_rule_code(self, tmp_path, monkeypatch):
        from repro.analysis import runner

        target = tmp_path / "src" / "repro" / "core" / "bad.py"
        target.parent.mkdir(parents=True)
        target.write_text("import random\n__all__ = []\n")
        assert [f.rule for f in lint_paths([target], root=tmp_path)] == ["RJI003"]
        # Edit the rule: it stops firing, and rjilint's sources change.
        rule = type(get_rule("RJI003"))
        monkeypatch.setattr(rule, "check", lambda self, ctx: iter(()))
        monkeypatch.setattr(runner, "tool_digest", lambda: "edited")
        assert lint_paths([target], root=tmp_path) == []

    def test_lint_paths_on_files(self, tmp_path):
        target = tmp_path / "src" / "repro" / "core" / "bad.py"
        target.parent.mkdir(parents=True)
        target.write_text("import random\n__all__ = []\n")
        findings = lint_paths([target], root=tmp_path)
        assert [f.rule for f in findings] == ["RJI003"]
        assert findings[0].path == "src/repro/core/bad.py"
