"""RJI011 (lock discipline) and RJI012 (lock order) on seeded fixtures."""

from pathlib import Path

from repro.analysis import lint_source, run_project_rules
from repro.analysis.registry import get_rule

FIXTURES = Path(__file__).resolve().parent / "fixtures"
REPO_ROOT = Path(__file__).resolve().parents[2]


def _fixture_findings(case):
    return run_project_rules(FIXTURES / case, use_cache=False)


class TestLockDisciplineFixture:
    def test_all_seeded_bugs_fire(self):
        findings = _fixture_findings("lockdiscipline")
        rji011 = [f for f in findings if f.rule == "RJI011"]
        assert len(rji011) == 3
        messages = "\n".join(f.message for f in rji011)
        assert "'_count' of RacyCounter" in messages  # unguarded read
        assert "'_log' of RacyCounter" in messages  # guarded-by annotation
        assert "blocking call time.sleep()" in messages

    def test_findings_point_into_fixture_tree(self):
        for finding in _fixture_findings("lockdiscipline"):
            assert finding.path == "src/repro/core/racy.py"


class TestLockOrderFixture:
    def test_cycle_and_self_deadlocks_fire(self):
        findings = _fixture_findings("lockorder")
        rji012 = [f for f in findings if f.rule == "RJI012"]
        assert len(rji012) == 3
        messages = "\n".join(f.message for f in rji012)
        assert "lock-order cycle" in messages
        assert "acquired while already held" in messages
        assert "may re-acquire non-reentrant lock" in messages


class TestLockRulesOnSnippets:
    def test_unguarded_read_flagged(self):
        findings = lint_source(
            "import threading\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._x = 0\n"
            "    def a(self):\n"
            "        with self._lock:\n"
            "            self._x += 1\n"
            "    def b(self):\n"
            "        with self._lock:\n"
            "            self._x += 1\n"
            "    def c(self):\n"
            "        return self._x\n",
            rules=[get_rule("RJI011")],
        )
        assert [f.rule for f in findings] == ["RJI011"]
        assert findings[0].line == 13

    def test_suppression_comment_silences_project_finding(self):
        findings = lint_source(
            "import threading\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._x = 0\n"
            "    def a(self):\n"
            "        with self._lock:\n"
            "            self._x += 1\n"
            "    def b(self):\n"
            "        with self._lock:\n"
            "            self._x += 1\n"
            "    def c(self):\n"
            "        return self._x  # rjilint: disable=RJI011\n",
            rules=[get_rule("RJI011")],
        )
        assert findings == []

    def test_reentrant_kinds_exempt_from_self_deadlock(self):
        findings = lint_source(
            "import threading\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self._m = threading.RLock()\n"
            "    def outer(self):\n"
            "        with self._m:\n"
            "            with self._m:\n"
            "                pass\n",
            rules=[get_rule("RJI012")],
        )
        assert findings == []

    def test_private_helper_inherits_caller_locks(self):
        findings = lint_source(
            "import threading\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._x = 0\n"
            "    def a(self):\n"
            "        with self._lock:\n"
            "            self._x += 1\n"
            "            self._peek()\n"
            "    def b(self):\n"
            "        with self._lock:\n"
            "            self._x += 1\n"
            "            self._peek()\n"
            "    def _peek(self):\n"
            "        return self._x\n",
            rules=[get_rule("RJI011")],
        )
        assert findings == []


class TestRealTreeStaysClean:
    def test_concurrency_sensitive_modules_clean_without_baseline(self):
        """The acceptance bar: the real library is clean, not baselined."""
        findings = run_project_rules(REPO_ROOT, use_cache=False)
        concurrent = [
            f
            for f in findings
            if f.rule in ("RJI011", "RJI012")
            or f.path
            in (
                "src/repro/core/writepath.py",
                "src/repro/obs/metrics.py",
                "src/repro/obs/log.py",
                "src/repro/storage/buffer.py",
                "src/repro/storage/resilient.py",
                "src/repro/faults/inject.py",
            )
        ]
        rendered = "\n".join(f.render() for f in concurrent)
        assert concurrent == [], f"lock-rule regressions:\n{rendered}"
