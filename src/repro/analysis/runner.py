"""Collect files, run rules, filter suppressions.

The runner is the programmatic face of rjilint: :func:`lint_paths` for
directories/files, :func:`lint_source` for in-memory snippets (used by
the rule tests), and :func:`changed_files` for the fast ``--changed``
pre-commit mode.

Per-file rules (scope ``library``/``all``) run on every collected file.
Project-scope rules (RJI011–RJI013) run once per invocation over the
whole-program index of the ``src/repro`` tree — they are triggered when
the lint set touches that tree, regardless of which subset of its files
was passed, because a cross-module property cannot be checked on a
slice.  Their findings pass through the same per-line suppression
filter as everything else.
"""

from __future__ import annotations

import hashlib
import pickle
import subprocess
from pathlib import Path

from . import rules as _builtin_rules  # noqa: F401 - populates the registry
from .context import ModuleContext, tool_digest
from .registry import Finding, ProjectRule, Rule, all_rules, known_rule_ids

__all__ = [
    "changed_files",
    "changed_python_files",
    "collect_files",
    "lint_context",
    "lint_paths",
    "lint_source",
    "run_project_rules",
]

#: ``fixtures`` hides the deliberately-broken rule-test packages under
#: ``tests/analysis/fixtures`` from normal lint runs.
_SKIP_DIRS = {"__pycache__", ".git", ".venv", "build", "dist", "fixtures"}


def _findings_cache_path(root: Path) -> Path:
    return root / ".rjilint_cache" / "findings.pkl"


def _load_findings_cache(path: Path) -> dict:
    try:
        with path.open("rb") as handle:
            payload = pickle.load(handle)
        if payload.get("format") != tool_digest():
            return {}
        entries = payload.get("entries", {})
        return entries if isinstance(entries, dict) else {}
    except Exception:  # noqa: BLE001 - the cache is advisory; relint on any damage
        return {}


def _store_findings_cache(path: Path, entries: dict) -> None:
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        with tmp.open("wb") as handle:
            pickle.dump({"format": tool_digest(), "entries": entries}, handle)
        tmp.replace(path)
    except OSError:
        pass  # read-only checkout: run uncached


def collect_files(paths: list[str | Path], root: Path) -> list[Path]:
    """Every ``.py`` file under the given paths, stable order."""
    out: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if not path.is_absolute():
            path = root / path
        if path.is_dir():
            for candidate in sorted(path.rglob("*.py")):
                parts = set(candidate.parts)
                if parts & _SKIP_DIRS:
                    continue
                if any(part.endswith(".egg-info") for part in candidate.parts):
                    continue
                out.append(candidate)
        elif path.suffix == ".py":
            out.append(path)
    return out


def lint_context(
    ctx: ModuleContext, rules: list[Rule] | None = None
) -> list[Finding]:
    """Run (a subset of) the registry over one parsed module."""
    chosen = all_rules() if rules is None else rules
    findings: list[Finding] = _unknown_suppressions(ctx)
    for rule in chosen:
        if not rule.applies_to(ctx):
            continue
        for finding in rule.check(ctx):
            if ctx.suppressions.active(finding.rule, finding.line):
                continue
            findings.append(finding)
    return sorted(findings)


def _unknown_suppressions(ctx: ModuleContext) -> list[Finding]:
    """RJI000 findings for suppression comments naming unknown rules.

    A typo'd ``# rjilint: disable=RJI0011`` would otherwise silently
    suppress nothing while looking like it suppressed something.
    """
    known = known_rule_ids()
    out: list[Finding] = []
    for line, ids in sorted(ctx.suppressions.by_line.items()):
        for rule_id in sorted(ids - known):
            out.append(
                Finding(
                    path=ctx.relpath,
                    line=line,
                    col=0,
                    rule="RJI000",
                    message=f"unknown rule id {rule_id} in suppression comment",
                )
            )
    for rule_id in sorted(ctx.suppressions.whole_file - known):
        out.append(
            Finding(
                path=ctx.relpath,
                line=1,
                col=0,
                rule="RJI000",
                message=f"unknown rule id {rule_id} in disable-file directive",
            )
        )
    return out


def lint_source(
    source: str,
    relpath: str = "src/repro/core/snippet.py",
    rules: list[Rule] | None = None,
) -> list[Finding]:
    """Lint an in-memory snippet as if it lived at ``relpath``.

    Project-scope rules run only when passed explicitly in ``rules``;
    the snippet then forms a one-module project of its own.  With the
    default ``rules=None`` only the per-file registry runs, so existing
    per-file rule tests see no cross-module noise.
    """
    try:
        ctx = ModuleContext.from_source(source, relpath)
    except SyntaxError as exc:
        return [_parse_error(relpath, exc)]
    chosen = [] if rules is None else rules
    findings = lint_context(ctx, rules)
    project_rules = [r for r in chosen if isinstance(r, ProjectRule)]
    if project_rules:
        from .model import ProjectIndex, extract_module

        summary = extract_module(ctx)
        index = ProjectIndex({summary.module: summary})
        findings.extend(_project_findings(project_rules, index))
    return sorted(findings)


def lint_paths(
    paths: list[str | Path],
    root: Path | None = None,
    rules: list[Rule] | None = None,
    *,
    project: bool = True,
    use_cache: bool = True,
) -> list[Finding]:
    """Lint every python file under ``paths``; findings sorted.

    When the collected set touches ``<root>/src/repro`` and any
    project-scope rules are selected, the whole-program pass runs once
    on top of the per-file pass (disable with ``project=False``).

    Per-file results are cached under ``.rjilint_cache/`` keyed on the
    file's content hash and the selected rule ids, and dropped whole when
    rjilint's own sources change, so a warm run re-lints only edited
    files.  Like the project-index cache, the
    findings cache is advisory: any load failure falls back to a full
    re-lint.
    """
    base = Path.cwd() if root is None else root
    chosen = all_rules() if rules is None else rules
    per_file_key = tuple(
        sorted(r.id for r in chosen if not isinstance(r, ProjectRule))
    )
    cache_file = _findings_cache_path(base)
    cached = _load_findings_cache(cache_file) if use_cache else {}
    fresh: dict[str, tuple[str, tuple[str, ...], list[Finding]]] = {}
    misses = 0
    findings: list[Finding] = []
    files = collect_files(paths, base)
    for path in files:
        rel = _relativize(path, base)
        try:
            raw = path.read_bytes()
        except OSError:
            continue  # vanished between collection and read (e.g. rename)
        digest = hashlib.sha256(raw).hexdigest()
        entry = cached.get(rel)
        if (
            entry is not None
            and entry[0] == digest
            and entry[1] == per_file_key
        ):
            file_findings = entry[2]
        else:
            try:
                ctx = ModuleContext.from_source(raw.decode("utf-8"), rel)
            except SyntaxError as exc:
                file_findings = [_parse_error(rel, exc)]
            else:
                file_findings = lint_context(ctx, chosen)
            misses += 1
        fresh[rel] = (digest, per_file_key, file_findings)
        findings.extend(file_findings)
    if use_cache and misses:
        _store_findings_cache(cache_file, {**cached, **fresh})
    project_rules = [r for r in chosen if isinstance(r, ProjectRule)]
    if project and project_rules and _touches_library(files, base):
        findings.extend(
            run_project_rules(base, project_rules, use_cache=use_cache)
        )
    return sorted(findings)


def run_project_rules(
    root: Path,
    rules: list[Rule] | None = None,
    *,
    use_cache: bool = True,
) -> list[Finding]:
    """Run the project-scope rules over ``<root>/src/repro``.

    Returns ``[]`` when there is no library tree or no project rules are
    selected.  Findings are filtered through the suppression index of
    the module each one lands in.
    """
    chosen = [
        rule
        for rule in (all_rules() if rules is None else rules)
        if isinstance(rule, ProjectRule)
    ]
    if not chosen:
        return []
    from .model import build_project_index

    index = build_project_index(root, use_cache=use_cache)
    if index is None:
        return []
    return sorted(_project_findings(chosen, index))


def _project_findings(rules: list[ProjectRule], index) -> list[Finding]:
    suppressions = {
        module.relpath: module.suppressions
        for module in index.modules.values()
    }
    findings: list[Finding] = []
    for rule in rules:
        for finding in rule.check_project(index):
            supp = suppressions.get(finding.path)
            if supp is not None and supp.active(finding.rule, finding.line):
                continue
            findings.append(finding)
    return findings


def _touches_library(files: list[Path], root: Path) -> bool:
    tree = (root / "src" / "repro").resolve()
    for path in files:
        try:
            path.resolve().relative_to(tree)
        except ValueError:
            continue
        return True
    return False


def changed_files(root: Path) -> list[str]:
    """Python files modified vs ``HEAD`` plus untracked ones.

    The fast path for local iteration (``--changed``): lints only what a
    commit would actually touch.  Returns repo-relative paths; deleted
    or renamed-away files are dropped (see :func:`changed_python_files`).
    """
    existing, _missing = changed_python_files(root)
    return existing


def changed_python_files(root: Path) -> tuple[list[str], list[str]]:
    """``(existing, missing)`` python files modified vs ``HEAD``.

    ``missing`` holds paths git reports as changed that no longer exist
    on disk — deletions and the old halves of renames.  Callers note
    and skip them rather than failing the run.  Outside a git checkout
    (or without a ``git`` binary) both lists are empty.
    """
    names: set[str] = set()
    for args in (
        ["git", "diff", "--name-only", "HEAD", "--"],
        ["git", "ls-files", "--others", "--exclude-standard"],
    ):
        try:
            proc = subprocess.run(
                args, cwd=root, capture_output=True, text=True, check=True
            )
        except (OSError, subprocess.CalledProcessError):
            return ([], [])
        names.update(line.strip() for line in proc.stdout.splitlines())
    python = sorted(name for name in names if name.endswith(".py"))
    existing = [name for name in python if (root / name).exists()]
    missing = [name for name in python if not (root / name).exists()]
    return (existing, missing)


def _relativize(path: Path, root: Path) -> str:
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def _parse_error(relpath: str, exc: SyntaxError) -> Finding:
    return Finding(
        path=relpath,
        line=exc.lineno or 1,
        col=(exc.offset or 1) - 1,
        rule="RJI000",
        message=f"syntax error: {exc.msg}",
    )
