"""The whole-program index: modules, classes, call graph, fixpoints.

:class:`ProjectIndex` stitches the per-module summaries of
:mod:`repro.analysis.model.summary` into project-wide views:

* a class table with base-class resolution (method lookup walks the
  linearized base chain, project classes only);
* best-effort call resolution — ``self.method()``, ``self.attr.method()``
  through inferred attribute types, imported functions and classes
  (constructor calls resolve to ``__init__`` + ``__post_init__``), and
  ``@property`` reads;
* an interprocedural *escape* analysis: which exception types each
  function can surface, propagated through the call graph to a fixpoint
  with ``except`` absorption by subclass (RJI013);
* the global lock-acquisition-order graph: an edge ``L1 -> L2`` means
  some path acquires ``L2`` while holding ``L1`` (RJI012).

Resolution is deliberately conservative: an unresolvable call or raise
contributes nothing, so every reported finding traces to code the model
actually understood.
"""

from __future__ import annotations

import builtins
from dataclasses import dataclass

from .summary import CallSite, ClassSummary, FunctionSummary, ModuleSummary

__all__ = ["LockEdge", "ProjectIndex", "RaiseOrigin"]

#: External callables modelled as raising outside their signature.  The
#: struct pack/unpack family is matched by call *tail* so precompiled
#: ``struct.Struct`` instances are covered too.
_STRUCT_TAILS = frozenset({"unpack", "unpack_from", "pack", "pack_into"})
_STRUCT_ERROR = "struct.error"

#: Hierarchy facts for exception types the AST cannot see.
_KNOWN_EXTERNAL_BASES: dict[str, tuple[str, ...]] = {
    "struct.error": ("builtins.Exception", "builtins.BaseException"),
    "json.JSONDecodeError": (
        "builtins.ValueError",
        "builtins.Exception",
        "builtins.BaseException",
    ),
}


@dataclass(frozen=True)
class RaiseOrigin:
    """Where an escaping exception type was first introduced."""

    relpath: str
    line: int


@dataclass(frozen=True)
class LockEdge:
    """One observed ordering: ``held`` was held while taking ``acquired``."""

    held: str
    acquired: str
    relpath: str
    line: int


class ProjectIndex:
    """Cross-module views over a set of :class:`ModuleSummary` objects."""

    def __init__(self, summaries: dict[str, ModuleSummary]):
        #: module dotted name -> summary
        self.modules = dict(sorted(summaries.items()))
        #: class qualname -> (owning module, class summary)
        self.classes: dict[str, tuple[ModuleSummary, ClassSummary]] = {}
        #: function qualname -> (owning module, class qual or None, summary)
        self.functions: dict[
            str, tuple[ModuleSummary, str | None, FunctionSummary]
        ] = {}
        for module in self.modules.values():
            for cls in module.classes.values():
                self.classes[cls.qualname] = (module, cls)
                for fn in cls.methods.values():
                    self.functions[fn.qualname] = (module, cls.qualname, fn)
            for fn in module.functions.values():
                self.functions[fn.qualname] = (module, None, fn)
        self._ancestor_cache: dict[str, frozenset[str]] = {}
        self._escape_cache: dict[str, dict[str, RaiseOrigin]] | None = None
        self._acquire_cache: dict[str, frozenset[str]] = {}

    @property
    def relpaths(self) -> dict[str, ModuleSummary]:
        return {m.relpath: m for m in self.modules.values()}

    # -- exception hierarchy ------------------------------------------------

    def ancestors(self, qual: str) -> frozenset[str]:
        """The type itself plus every base we can resolve."""
        cached = self._ancestor_cache.get(qual)
        if cached is not None:
            return cached
        self._ancestor_cache[qual] = frozenset({qual})  # cycle guard
        out = {qual}
        if qual in _KNOWN_EXTERNAL_BASES:
            out.update(_KNOWN_EXTERNAL_BASES[qual])
        elif qual.startswith("builtins."):
            obj = getattr(builtins, qual.partition(".")[2], None)
            if isinstance(obj, type):
                out.update(f"builtins.{base.__name__}" for base in obj.__mro__)
        elif qual in self.classes:
            _, cls = self.classes[qual]
            for base in cls.bases:
                out.update(self.ancestors(base))
        result = frozenset(out)
        self._ancestor_cache[qual] = result
        return result

    def is_caught(self, raised: str, catch_set: frozenset[str]) -> bool:
        return bool(self.ancestors(raised) & catch_set)

    # -- method / call resolution -------------------------------------------

    def resolve_method(
        self, class_qual: str, name: str
    ) -> FunctionSummary | None:
        """Look ``name`` up on a class, walking project base classes."""
        seen: set[str] = set()
        queue = [class_qual]
        while queue:
            current = queue.pop(0)
            if current in seen or current not in self.classes:
                continue
            seen.add(current)
            _, cls = self.classes[current]
            if name in cls.methods:
                return cls.methods[name]
            queue.extend(cls.bases)
        return None

    def _attr_class(self, owner: ClassSummary, attr: str) -> str | None:
        for candidate in owner.attr_types.get(attr, ()):
            if candidate in self.classes:
                return candidate
        return None

    def resolve_call(
        self,
        module: ModuleSummary,
        class_qual: str | None,
        site: CallSite,
    ) -> list[FunctionSummary]:
        """Callee summaries for one call site (possibly empty)."""
        path = site.path
        owner = self.classes[class_qual][1] if class_qual else None
        if path[0] == "self" and owner is not None:
            if len(path) == 2:
                if site.is_property:
                    return []
                found = self.resolve_method(class_qual, path[1])
                return [found] if found else []
            if len(path) == 3:
                target = self._attr_class(owner, path[1])
                if target is None:
                    return []
                found = self.resolve_method(target, path[2])
                if found is None:
                    return []
                if site.is_property:
                    target_cls = self.classes[target][1]
                    if path[2] not in target_cls.properties:
                        return []
                return [found]
            return []
        if site.is_property:
            return []
        resolved = module.resolve(".".join(path))
        return self._resolve_qual(resolved)

    def _resolve_qual(self, qual: str) -> list[FunctionSummary]:
        if qual in self.classes:  # constructor call
            out = []
            for init in ("__init__", "__post_init__"):
                found = self.resolve_method(qual, init)
                if found is not None:
                    out.append(found)
            return out
        if qual in self.functions:
            return [self.functions[qual][2]]
        # ``Class.method`` (classmethod via the class name).
        head, _, tail = qual.rpartition(".")
        if head in self.classes:
            found = self.resolve_method(head, tail)
            return [found] if found else []
        return []

    # -- escape analysis (RJI013) -------------------------------------------

    def escapes(self, qualname: str) -> dict[str, RaiseOrigin]:
        """Exception types that may escape ``qualname``, with origins."""
        if self._escape_cache is None:
            self._compute_escapes()
        assert self._escape_cache is not None
        return self._escape_cache.get(qualname, {})

    def _compute_escapes(self) -> None:
        escapes: dict[str, dict[str, RaiseOrigin]] = {
            qual: {} for qual in self.functions
        }
        callers: dict[str, set[str]] = {qual: set() for qual in self.functions}
        sites: dict[str, list[tuple[CallSite, list[str]]]] = {}
        for qual, (module, class_qual, fn) in self.functions.items():
            resolved_sites: list[tuple[CallSite, list[str]]] = []
            for site in fn.calls:
                callees = self.resolve_call(module, class_qual, site)
                names = [callee.qualname for callee in callees]
                for name in names:
                    callers.setdefault(name, set()).add(qual)
                if names or site.path[-1] in _STRUCT_TAILS:
                    resolved_sites.append((site, names))
            sites[qual] = resolved_sites
        worklist = list(self.functions)
        in_worklist = set(worklist)
        while worklist:
            qual = worklist.pop()
            in_worklist.discard(qual)
            module, _, fn = self.functions[qual]
            current: dict[str, RaiseOrigin] = {}
            for raise_site in fn.raises:
                for raw in raise_site.types:
                    if not self._is_exception_type(raw):
                        continue
                    if self._absorbed(raw, raise_site.guards):
                        continue
                    current.setdefault(
                        raw, RaiseOrigin(module.relpath, raise_site.line)
                    )
            for site, names in sites[qual]:
                incoming: dict[str, RaiseOrigin] = {}
                for name in names:
                    incoming.update(escapes.get(name, {}))
                if site.path[-1] in _STRUCT_TAILS and self._is_struct_call(
                    module, site
                ):
                    incoming.setdefault(
                        _STRUCT_ERROR, RaiseOrigin(module.relpath, site.line)
                    )
                for raw, origin in incoming.items():
                    if self._absorbed(raw, site.guards):
                        continue
                    current.setdefault(raw, origin)
            if current != escapes[qual]:
                escapes[qual] = current
                for caller in callers.get(qual, ()):
                    if caller not in in_worklist:
                        worklist.append(caller)
                        in_worklist.add(caller)
        self._escape_cache = escapes

    def _is_struct_call(self, module: ModuleSummary, site: CallSite) -> bool:
        """Whether a pack/unpack-tailed call plausibly targets ``struct``."""
        head = site.path[0]
        if head == "struct" or module.resolve(head) == "struct":
            return True
        # Precompiled ``struct.Struct`` held in a module-level constant.
        return head in module.toplevel or (
            site.path[0] == "self" and len(site.path) == 3
        )

    def _is_exception_type(self, qual: str) -> bool:
        """Whether ``qual`` demonstrably derives from ``BaseException``."""
        return "builtins.BaseException" in self.ancestors(qual)

    def _absorbed(self, raised: str, guards) -> bool:
        return any(self.is_caught(raised, guard) for guard in guards)

    # -- lock model (RJI011 / RJI012) ---------------------------------------

    def lock_qual(self, class_qual: str, attr: str) -> str:
        return f"{class_qual}.{attr}"

    def may_acquire(self, qualname: str) -> frozenset[str]:
        """Locks a function may take, directly or through callees."""
        cached = self._acquire_cache.get(qualname)
        if cached is not None:
            return cached
        self._acquire_cache[qualname] = frozenset()  # recursion guard
        entry = self.functions.get(qualname)
        if entry is None:
            return frozenset()
        module, class_qual, fn = entry
        out: set[str] = set()
        if class_qual is not None:
            for acquire in fn.acquires:
                out.add(self.lock_qual(class_qual, acquire.attr))
        for site in fn.calls:
            for callee in self.resolve_call(module, class_qual, site):
                out.update(self.may_acquire(callee.qualname))
        result = frozenset(out)
        self._acquire_cache[qualname] = result
        return result

    def lock_order_edges(self) -> list[LockEdge]:
        """Every held-while-acquiring ordering observed in the project."""
        edges: dict[tuple[str, str], LockEdge] = {}

        def add(held: str, acquired: str, relpath: str, line: int) -> None:
            key = (held, acquired)
            if key not in edges:
                edges[key] = LockEdge(held, acquired, relpath, line)

        for qual, (module, class_qual, fn) in sorted(self.functions.items()):
            if class_qual is None:
                continue
            for acquire in fn.acquires:
                acquired = self.lock_qual(class_qual, acquire.attr)
                for held_attr in acquire.held:
                    if held_attr == acquire.attr:
                        continue  # re-entry is RJI011/self-loop territory
                    add(
                        self.lock_qual(class_qual, held_attr),
                        acquired,
                        module.relpath,
                        acquire.line,
                    )
            for site in fn.calls:
                if not site.held:
                    continue
                for callee in self.resolve_call(module, class_qual, site):
                    for acquired in self.may_acquire(callee.qualname):
                        for held_attr in site.held:
                            held_qual = self.lock_qual(class_qual, held_attr)
                            if held_qual == acquired:
                                continue
                            add(held_qual, acquired, module.relpath, site.line)
        return list(edges.values())

    def lock_cycles(self) -> list[list[LockEdge]]:
        """Cycles in the acquisition-order graph, deterministically."""
        edges = self.lock_order_edges()
        graph: dict[str, list[LockEdge]] = {}
        for edge in edges:
            graph.setdefault(edge.held, []).append(edge)
        for outgoing in graph.values():
            outgoing.sort(key=lambda e: e.acquired)
        cycles: list[list[LockEdge]] = []
        seen_cycles: set[tuple[str, ...]] = set()
        for start in sorted(graph):
            stack: list[LockEdge] = []
            on_path: set[str] = {start}

            def dfs(node: str) -> None:
                for edge in graph.get(node, ()):
                    if edge.acquired == start:
                        nodes = tuple(
                            sorted([e.held for e in stack] + [edge.held])
                        )
                        if nodes not in seen_cycles:
                            seen_cycles.add(nodes)
                            cycles.append(stack + [edge])
                    elif edge.acquired not in on_path:
                        on_path.add(edge.acquired)
                        stack.append(edge)
                        dfs(edge.acquired)
                        stack.pop()
                        on_path.discard(edge.acquired)

            dfs(start)
        return cycles
