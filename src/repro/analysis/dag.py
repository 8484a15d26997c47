"""The declared package-layering DAG of the ``repro`` codebase.

Edges point downward: a package may import only from the packages it
maps to (plus itself).  ``core`` holds the paper's algorithms and must
stay free of engine concerns — it sees only ``errors`` and the ``obs``
recorder surface — while
``experiments`` at the top may reach every substrate it benchmarks.
Modules directly under ``src/repro`` (``cli.py``, ``__init__.py``) form
the unrestricted ``root`` application layer.

RJI001 checks every import in library code against this table, so
adding a new package means declaring its dependencies here first.
"""

from __future__ import annotations

__all__ = ["LAYER_DAG", "allowed_imports"]

#: package -> packages it may import from (itself is always allowed).
LAYER_DAG: dict[str, frozenset[str]] = {
    "errors": frozenset(),
    # ``obs`` carries the request-tracing context the serving tier
    # threads through core/storage, yet depends only on ``errors``:
    # even ``python -m repro.obs top`` keeps this edge clean by
    # speaking the length-prefixed wire protocol over a raw socket
    # instead of importing ``serve``.
    "obs": frozenset({"errors"}),
    # ``analysis.model.cache`` reports index builds through an ``obs``
    # recorder; ``obs`` has no analysis dependency, so the edge cannot
    # cycle.
    "analysis": frozenset({"errors", "obs"}),
    "core": frozenset({"errors", "obs"}),
    # ``faults`` wraps storage objects via duck-typed ``.faults`` hooks,
    # so it needs no storage import (and storage needs no faults import).
    "faults": frozenset({"errors", "obs"}),
    "baselines": frozenset({"core", "errors"}),
    "relalg": frozenset({"core", "errors"}),
    # The zero-copy interaction rides the existing storage -> core edge:
    # ``storage.diskindex`` imports ``core.hotcache`` (the descent
    # cache), ``core.regionstore.reach`` (the in-region cut, derived
    # from read-only mapping views) and ``core.index.top_k_scored``;
    # ``core`` never learns that mmap-backed callers exist, so no
    # reverse edge is needed.
    "storage": frozenset({"core", "errors", "obs"}),
    "rtree": frozenset({"core", "errors", "storage"}),
    "datagen": frozenset({"core", "errors", "relalg"}),
    "sql": frozenset({"core", "errors", "obs", "relalg"}),
    # ``serve`` wraps any IndexService; it needs only the core contract
    # types, the error taxonomy, and the recorder surface.
    "serve": frozenset({"core", "errors", "obs"}),
    "bench": frozenset(
        {"core", "datagen", "errors", "faults", "obs", "serve", "storage"}
    ),
    # ``experiments.construct_rji`` (the paper's all-pairs ConstructRJI,
    # the oracle the build is tested against) reaches only ``core``.
    "experiments": frozenset(
        {
            "baselines",
            "core",
            "datagen",
            "errors",
            "relalg",
            "rtree",
            "sql",
            "storage",
        }
    ),
}


def allowed_imports(package: str) -> frozenset[str] | None:
    """Packages ``package`` may import from, or ``None`` if unrestricted.

    ``root`` (modules directly under ``src/repro``) and packages absent
    from the DAG are unrestricted — the latter so that a brand-new
    package fails loudly in tests for the DAG table rather than silently
    linting every import as a violation.
    """
    if package == "root":
        return None
    return LAYER_DAG.get(package)
