"""RJI004 — exception hygiene.

A bare ``except:`` (which also swallows ``KeyboardInterrupt``) is never
acceptable.  Catching ``Exception``/``BaseException`` is allowed only
when the handler demonstrably *handles* the failure: it re-raises, or it
uses the bound exception object (logging, reporting, wrapping), or the
line carries an explicit ``# noqa`` annotation acknowledging the broad
catch.  Anything else silently discards errors that the verification
layer (``repro.bench.verify``) exists to surface.

Bad::

    try:
        index.check_invariants()
    except Exception:
        pass

Good::

    try:
        index.check_invariants()
    except Exception as exc:  # noqa: BLE001 - reported, not raised
        report.structural_errors.append(str(exc))
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..context import ModuleContext
from ..registry import Finding, Rule, register

__all__ = ["ExceptionHygieneRule"]

_BROAD = ("Exception", "BaseException")


def _is_broad(annotation: ast.expr | None) -> bool:
    if isinstance(annotation, ast.Name):
        return annotation.id in _BROAD
    if isinstance(annotation, ast.Tuple):
        return any(_is_broad(element) for element in annotation.elts)
    return False


def _handler_handles(handler: ast.ExceptHandler) -> bool:
    """True when the handler re-raises or uses the bound exception."""
    for stmt in handler.body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Raise):
                return True
            if (
                handler.name is not None
                and isinstance(node, ast.Name)
                and node.id == handler.name
            ):
                return True
    return False


@register
class ExceptionHygieneRule(Rule):
    """No bare ``except:``; broad catches must report or re-raise."""

    id = "RJI004"
    name = "exception-hygiene"
    description = (
        "bare 'except:' is banned; 'except Exception' must re-raise, use "
        "the bound exception, or carry a # noqa annotation"
    )
    scope = "all"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self.finding(
                    ctx,
                    node.lineno,
                    node.col_offset,
                    "bare 'except:' swallows KeyboardInterrupt/SystemExit; "
                    "catch a specific exception type",
                )
                continue
            if not _is_broad(node.type):
                continue
            if _handler_handles(node):
                continue
            if "noqa" in ctx.comments.get(node.lineno, ""):
                continue
            yield self.finding(
                ctx,
                node.lineno,
                node.col_offset,
                "broad exception catch swallows the error; re-raise, use "
                "the bound exception, or annotate with # noqa",
            )
