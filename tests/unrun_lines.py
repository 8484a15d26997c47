"""Pytest plugin: which served lines does the suite never execute?

Load it explicitly, it is never auto-loaded::

    PYTHONPATH=src python -m pytest -p tests.unrun_lines --hypothesis-seed=0

(the property tests draw new examples on every run unless the seed is
fixed, and a few lines are reached only by some of them; a local
``.hypothesis/`` database replays more, so the budget is counted as CI
runs it, from a fresh checkout).  It traces
the run with :func:`sys.settrace` (and :func:`threading.settrace`, so
server threads count) and, at the end, prints every statement inside a
function body of ``repro.core``, ``repro.storage`` or ``repro.serve``
that never ran, then the line ``unrun served lines: N``.  CI compares
``N`` with ``[tool.repro] unrun_budget``.

A statement counts once, at its first line, however many lines it
spans.  ``# pragma: no cover`` is honoured as coverage.py honours it:
the marked line is excluded and, when that line opens a block (ends
with ``:``), so is every more-indented line after it.  Only this
process is traced: code that runs only in a child process (a crash
harness kill, a spawned server) counts as unrun.
"""

from __future__ import annotations

import ast
import os
import re
import sys
import threading
import types
from pathlib import Path

import pytest

_PACKAGES = ("core", "storage", "serve")
_PRAGMA = re.compile(r"#\s*(pragma|PRAGMA)[:\s]?\s*(no|NO)\s*(cover|COVER)")


class _Tracer:
    """Records, per code object of a served file, the executable lines
    not yet seen to run.  A code object whose lines have all run is no
    longer traced, which keeps hot loops cheap."""

    def __init__(self, files: set[str]):
        self.files = files
        #: id(code) -> (code, lines not yet run, its line tracer).
        self.pending: dict[int, tuple[types.CodeType, set[int], object]] = {}
        self._wanted: dict[str, bool] = {}

    def start(self) -> None:
        threading.settrace(self._call)
        sys.settrace(self._call)

    def stop(self) -> None:
        sys.settrace(None)
        threading.settrace(None)  # type: ignore[arg-type]

    def _call(self, frame, event, arg):
        code = frame.f_code
        entry = self.pending.get(id(code))
        if entry is None:
            name = code.co_filename
            wanted = self._wanted.get(name)
            if wanted is None:
                wanted = self._wanted[name] = os.path.realpath(name) in self.files
            if not wanted:
                return None
            lines = {line for _, _, line in code.co_lines() if line}
            entry = self.pending[id(code)] = (code, lines, _line_tracer(lines))
        return entry[2] if entry[1] else None

    def ran(self) -> dict[str, set[int]]:
        """Real path -> the lines seen to run there."""
        out: dict[str, set[int]] = {}
        for code, lines, _ in self.pending.values():
            done = {line for _, _, line in code.co_lines() if line} - lines
            out.setdefault(os.path.realpath(code.co_filename), set()).update(done)
        return out


def _line_tracer(lines: set[int]):
    discard = lines.discard

    def trace(frame, event, arg):
        if event == "line":
            discard(frame.f_lineno)
        return trace

    return trace


def _excluded(lines: list[str]) -> set[int]:
    """1-based line numbers under a ``pragma: no cover`` comment."""
    out: set[int] = set()
    for number, text in enumerate(lines, 1):
        if not _PRAGMA.search(text):
            continue
        out.add(number)
        if not text.split("#", 1)[0].rstrip().endswith(":"):
            continue
        indent = len(text) - len(text.lstrip())
        for later, body in enumerate(lines[number:], number + 1):
            if body.strip() and len(body) - len(body.lstrip()) <= indent:
                break
            out.add(later)
    return out


def _executable(code: types.CodeType) -> set[int]:
    lines: set[int] = set()
    stack = [code]
    while stack:
        current = stack.pop()
        lines.update(line for _, _, line in current.co_lines() if line)
        stack.extend(c for c in current.co_consts if isinstance(c, types.CodeType))
    return lines


def unrun_statements(path: Path, ran: set[int]) -> list[int]:
    """First lines of the function-body statements of ``path`` that no
    line in ``ran`` belongs to, pragma-excluded ones left out.

    A statement owns its header lines (a compound statement's lines up
    to its body, decorators included) or all its lines (a simple one);
    one that owns no executable line, such as a docstring, is skipped.
    """
    source = path.read_text()
    executable = _executable(compile(source, str(path), "exec"))
    excluded = _excluded(source.splitlines())
    owner: dict[int, ast.stmt] = {}
    candidates: list[ast.stmt] = []

    def own_lines(node: ast.stmt) -> range:
        decorators = getattr(node, "decorator_list", [])
        start = min([node.lineno] + [d.lineno for d in decorators])
        body = getattr(node, "body", None)
        if isinstance(body, list) and body and isinstance(body[0], ast.stmt):
            return range(start, max(node.lineno, body[0].lineno - 1) + 1)
        return range(start, (node.end_lineno or node.lineno) + 1)

    def visit(node: ast.AST, in_function: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt):
                span = own_lines(child)
                owner.update(dict.fromkeys(span, child))
                if (
                    in_function
                    and child.lineno not in excluded
                    and executable.intersection(span)
                ):
                    candidates.append(child)
            visit(
                child,
                in_function
                or isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
                ),
            )

    visit(ast.parse(source), False)
    hit = {id(owner[line]) for line in ran if line in owner}
    return sorted(node.lineno for node in candidates if id(node) not in hit)


def _served_files(root: Path) -> list[Path]:
    return sorted(
        path
        for package in _PACKAGES
        for path in (root / "src" / "repro" / package).glob("*.py")
    )


_TRACER = pytest.StashKey[_Tracer]()


@pytest.hookimpl(tryfirst=True)
def pytest_load_initial_conftests(early_config, parser, args):
    root = early_config.rootpath
    tracer = _Tracer({str(path.resolve()) for path in _served_files(root)})
    early_config.stash[_TRACER] = tracer
    tracer.start()


def pytest_sessionfinish(session, exitstatus):
    session.config.stash[_TRACER].stop()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    ran = config.stash[_TRACER].ran()
    root = config.rootpath
    total = 0
    for path in _served_files(root):
        lines = path.read_text().splitlines()
        for number in unrun_statements(path, ran.get(str(path.resolve()), set())):
            terminalreporter.write_line(
                f"{path.relative_to(root)}:{number}: {lines[number - 1].strip()}"
            )
            total += 1
    terminalreporter.write_line(f"unrun served lines: {total}")
