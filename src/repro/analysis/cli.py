"""The ``python -m repro.analysis`` command line.

Exit codes: ``0`` clean, ``1`` findings reported, ``2`` usage error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .registry import all_rules, select_rules
from .reporters import render_json, render_text
from .runner import changed_python_files, lint_paths

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "rjilint: repository-specific static analysis for the Ranked "
            "Join Indices reproduction (layering DAG, seeded randomness, "
            "exception hygiene, __all__ consistency, frozen constants, the "
            "k bound, storage I/O counters, and the whole-program lock "
            "discipline / lock order / error contract checks)"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src", "tests", "examples"],
        help="files or directories to lint (default: src tests examples, as CI)",
    )
    parser.add_argument(
        "--changed",
        action="store_true",
        help="lint only files modified vs HEAD (plus untracked files)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--select",
        metavar="RULES",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--ignore",
        metavar="RULES",
        help="comma-separated rule ids to skip",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="ignore and do not update the whole-program index cache",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule registry and exit",
    )
    return parser


def _split(value: str | None) -> list[str] | None:
    if value is None:
        return None
    return [part.strip().upper() for part in value.split(",") if part.strip()]


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.id}  {rule.name} [{rule.scope}]")
            print(f"        {rule.description}")
        return 0

    try:
        rules = select_rules(_split(args.select), _split(args.ignore))
    except KeyError as exc:
        print(f"rjilint: {exc.args[0]}", file=sys.stderr)
        return 2

    root = Path.cwd()
    paths: list[str | Path] = list(args.paths)
    if args.changed:
        existing, missing = changed_python_files(root)
        for name in missing:
            print(f"rjilint: skipping deleted/renamed path: {name}")
        paths = list(existing)
        if not paths:
            print("rjilint: no python files changed vs HEAD")
            return 0
    else:
        bad = [p for p in paths if not Path(p).exists()]
        if bad:
            for p in bad:
                print(f"rjilint: no such path: {p}", file=sys.stderr)
            return 2

    findings = lint_paths(
        paths, root=root, rules=rules, use_cache=not args.no_cache
    )

    render = render_json if args.format == "json" else render_text
    print(render(findings))
    return 1 if findings else 0
