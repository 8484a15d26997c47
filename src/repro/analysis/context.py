"""Parsed-module context shared by every rule.

One :class:`ModuleContext` bundles a file's source, its AST, its place
in the package layering (which ``repro`` subpackage, library vs test),
and the suppression directives found in its comments, so each rule gets
everything it needs without re-parsing.

Suppression syntax (comment anywhere on the offending line)::

    risky_expression()  # rjilint: disable=RJI003
    other_thing()       # rjilint: disable=RJI003,RJI004

and, in the first comment block of a file, a whole-file directive::

    # rjilint: disable-file=RJI005
"""

from __future__ import annotations

import ast
import functools
import hashlib
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path, PurePosixPath

__all__ = ["ModuleContext", "SuppressionIndex", "comment_lines", "tool_digest"]

_DIRECTIVE = re.compile(
    r"rjilint:\s*(?P<kind>disable(?:-file)?)\s*=\s*(?P<rules>[A-Za-z0-9_,\s]+)"
)


@functools.lru_cache(maxsize=None)
def tool_digest() -> str:
    """SHA-256 over rjilint's own sources.

    Both on-disk caches (per-file findings, project summaries) key on
    it, so editing a rule or the model invalidates what they hold.
    """
    digest = hashlib.sha256()
    for path in sorted(Path(__file__).parent.rglob("*.py")):
        digest.update(path.read_bytes())
    return digest.hexdigest()


def comment_lines(source: str) -> dict[int, str]:
    """Map of ``line -> comment text`` using the tokenizer.

    Tokenizing (rather than regex over raw lines) keeps ``#`` characters
    inside string literals from being mistaken for comments.  A file
    that fails to tokenize yields no comments; the parse error is
    reported separately by the runner.
    """
    comments: dict[int, str] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type == tokenize.COMMENT:
                comments[token.start[0]] = token.string
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return {}
    return comments


@dataclass(frozen=True)
class SuppressionIndex:
    """Per-line and whole-file rule suppressions for one module."""

    by_line: dict[int, frozenset[str]] = field(default_factory=dict)
    whole_file: frozenset[str] = frozenset()

    @classmethod
    def from_comments(cls, comments: dict[int, str]) -> "SuppressionIndex":
        by_line: dict[int, frozenset[str]] = {}
        whole_file: set[str] = set()
        for line, text in comments.items():
            match = _DIRECTIVE.search(text)
            if match is None:
                continue
            rules = frozenset(
                part.strip().upper()
                for part in match.group("rules").split(",")
                if part.strip()
            )
            if match.group("kind") == "disable-file":
                whole_file |= rules
            else:
                by_line[line] = by_line.get(line, frozenset()) | rules
        return cls(by_line=by_line, whole_file=frozenset(whole_file))

    def active(self, rule_id: str, line: int) -> bool:
        """Whether ``rule_id`` is suppressed at ``line``."""
        if rule_id in self.whole_file:
            return True
        return rule_id in self.by_line.get(line, frozenset())


@dataclass(frozen=True)
class ModuleContext:
    """Everything a rule needs to know about one parsed module."""

    relpath: str
    source: str
    tree: ast.Module
    comments: dict[int, str]
    suppressions: SuppressionIndex
    package: str | None
    package_path: tuple[str, ...] | None
    is_library: bool
    is_test: bool

    @classmethod
    def from_source(cls, source: str, relpath: str) -> "ModuleContext":
        """Build a context from source text (raises ``SyntaxError``)."""
        posix = PurePosixPath(relpath).as_posix()
        tree = ast.parse(source, filename=posix)
        comments = comment_lines(source)
        return cls(
            relpath=posix,
            source=source,
            tree=tree,
            comments=comments,
            suppressions=SuppressionIndex.from_comments(comments),
            package=_package_of(posix),
            package_path=_package_path_of(posix),
            is_library=_is_library(posix),
            is_test=_is_test(posix),
        )

    @classmethod
    def from_path(cls, path: Path, root: Path) -> "ModuleContext":
        """Build a context for a file, with paths reported ``root``-relative."""
        try:
            rel = path.resolve().relative_to(root.resolve())
        except ValueError:
            rel = path
        source = path.read_text(encoding="utf-8")
        return cls.from_source(source, rel.as_posix())


def _repro_parts(posix: str) -> tuple[str, ...] | None:
    """Path components below ``src/repro``, or ``None`` outside it."""
    parts = PurePosixPath(posix).parts
    for i in range(len(parts) - 1):
        if parts[i] == "src" and parts[i + 1] == "repro":
            return parts[i + 2 :]
    return None


def _package_of(posix: str) -> str | None:
    """The ``repro`` subpackage a file belongs to.

    ``src/repro/core/sweep.py`` -> ``core``; a module directly under
    ``src/repro`` is the unrestricted ``root`` layer, except
    ``errors.py`` which is the bottom ``errors`` layer.
    """
    below = _repro_parts(posix)
    if below is None or not below:
        return None
    if len(below) == 1:
        return "errors" if below[0] == "errors.py" else "root"
    return below[0]


def _package_path_of(posix: str) -> tuple[str, ...] | None:
    """Directory components between ``src/repro`` and the file itself.

    ``src/repro/analysis/rules/layering.py`` -> ``("analysis", "rules")``;
    a module directly under ``src/repro`` -> ``()``.  Used to resolve
    relative imports: a ``from ..x import`` at nesting depth two stays
    inside its own package rather than reaching the ``repro`` root.
    """
    below = _repro_parts(posix)
    if below is None or not below:
        return None
    return below[:-1]


def _is_library(posix: str) -> bool:
    return _repro_parts(posix) is not None


def _is_test(posix: str) -> bool:
    parts = PurePosixPath(posix).parts
    stem = PurePosixPath(posix).stem
    return "tests" in parts or stem.startswith("test_") or stem == "conftest"
