"""Whole-program model for rjilint's cross-module rules.

Three layers, bottom up:

* :mod:`~repro.analysis.model.summary` — per-module fact extraction
  into picklable :class:`ModuleSummary` objects (symbol tables, import
  resolution, class attribute maps, lock-held regions, call and raise
  sites);
* :mod:`~repro.analysis.model.project` — :class:`ProjectIndex`, the
  stitched view: method resolution over base chains, a best-effort call
  graph, the interprocedural exception-escape fixpoint, and the global
  lock-acquisition-order graph;
* :mod:`~repro.analysis.model.cache` — content-hash-keyed incremental
  caching so warm runs only re-extract changed files.

The per-file rules (RJI001 and RJI003–RJI008) never touch this
package; the project-scope rules (RJI011–RJI013) receive a
:class:`ProjectIndex` from the runner.
"""

from .cache import build_project_index, cache_path, file_digest
from .project import LockEdge, ProjectIndex, RaiseOrigin
from .summary import (
    BlockingOp,
    CallSite,
    ClassSummary,
    FieldAccess,
    FunctionSummary,
    LockAcquire,
    ModuleSummary,
    RaiseSite,
    extract_module,
    module_name_for,
)

__all__ = [
    "BlockingOp",
    "CallSite",
    "ClassSummary",
    "FieldAccess",
    "FunctionSummary",
    "LockAcquire",
    "LockEdge",
    "ModuleSummary",
    "ProjectIndex",
    "RaiseOrigin",
    "RaiseSite",
    "build_project_index",
    "cache_path",
    "extract_module",
    "file_digest",
    "module_name_for",
]
