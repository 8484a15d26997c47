"""rjilint: repository-specific static analysis for the reproduction.

Generic linters cannot see the invariants this codebase lives on: the
package layering DAG that keeps the paper's algorithms (``core``) free
of engine concerns, deterministic seeded randomness in everything that
produces published numbers, frozen paper constants, and the ``k <= K``
bound every query path must check (Lemma 2).  This package is a small
pluggable AST linter enforcing them at review time, complementing the
runtime oracle in :mod:`repro.bench.verify`.

Since v2 the tool is whole-program: :mod:`repro.analysis.model` parses
the full ``src/repro`` tree once into a content-hash-cached
:class:`~repro.analysis.model.ProjectIndex` (symbol tables, import
resolution, class attribute maps, a best-effort call graph), and
project-scope rules check cross-module properties — lock discipline,
global lock ordering, and the interprocedural error contract of the
public entry points.

Run it as ``python -m repro.analysis [paths]``; suppress a finding with
a ``# rjilint: disable=RULE`` comment on the offending line.  Rules:

========  ============================================================
RJI001    imports must follow the declared package layering DAG
RJI003    no unseeded or process-global randomness in library code
RJI004    no bare ``except:`` / silently swallowed broad catches
RJI005    public modules declare a consistent literal ``__all__``
RJI006    frozen paper constants are never mutated
RJI007    query paths validate ``k`` against the construction bound
RJI008    storage I/O counters are mirrored into the recorder
RJI011    lock-guarded fields are never touched outside their lock
RJI012    the lock-acquisition-order graph stays acyclic
RJI013    public entry points raise only the typed error taxonomy
========  ============================================================

RJI002, RJI009 and RJI010 are retired; docs/ANALYSIS.md records the
audit behind that and the checks that cover their bug classes.
"""

from .context import ModuleContext, SuppressionIndex
from .dag import LAYER_DAG
from .registry import (
    Finding,
    ProjectRule,
    Rule,
    all_rules,
    get_rule,
    known_rule_ids,
    register,
)
from .reporters import render_json, render_text
from .runner import (
    changed_files,
    changed_python_files,
    collect_files,
    lint_context,
    lint_paths,
    lint_source,
    run_project_rules,
)

__all__ = [
    "Finding",
    "LAYER_DAG",
    "ModuleContext",
    "ProjectRule",
    "Rule",
    "SuppressionIndex",
    "all_rules",
    "changed_files",
    "changed_python_files",
    "collect_files",
    "get_rule",
    "known_rule_ids",
    "lint_context",
    "lint_paths",
    "lint_source",
    "register",
    "render_json",
    "render_text",
    "run_project_rules",
]
