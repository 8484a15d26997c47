"""RJI012 — lock-order: the acquisition graph must stay acyclic.

The project index records an edge ``A -> B`` whenever some code path
acquires lock ``B`` while holding lock ``A`` — either directly (nested
``with`` blocks) or through the call graph (a method called under ``A``
that may take ``B``, including ``@property`` reads).  Two threads taking
the same pair of locks in opposite orders can deadlock, so any cycle in
this graph is reported at the acquisition site that closes it.

The rule also flags *self*-deadlock: re-acquiring a plain
(non-reentrant) ``threading.Lock`` that is already held, directly or
through a callee.  Reentrant kinds are exempt — ``RLock`` and
``Condition`` (whose default lock is an ``RLock``).

Bad::

    class A:
        def step(self):
            with self._x:
                with self._y: ...
        def other(self):
            with self._y:
                with self._x: ...   # opposite order -> cycle

Good: pick one global order (document it) and acquire in that order on
every path, or restructure so no path holds both locks.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from ..registry import Finding, ProjectRule, register

if TYPE_CHECKING:  # pragma: no cover
    from ..model import ProjectIndex

__all__ = ["LockOrderRule"]

#: Lock kinds that may be taken again by the thread already holding them.
_REENTRANT_KINDS = frozenset({"rlock", "condition"})


@register
class LockOrderRule(ProjectRule):
    """Cycle and self-deadlock detection on the lock-order graph."""

    id = "RJI012"
    name = "lock-order"
    description = (
        "the global lock-acquisition-order graph must be acyclic, and a "
        "non-reentrant lock must never be re-acquired while held"
    )
    scope = "project"

    def check_project(self, project: "ProjectIndex") -> Iterator[Finding]:
        yield from self._cycles(project)
        yield from self._self_deadlocks(project)

    def _cycles(self, project: "ProjectIndex") -> Iterator[Finding]:
        for cycle in project.lock_cycles():
            closing = cycle[-1]
            chain = " -> ".join([edge.held for edge in cycle] + [cycle[0].held])
            witnesses = "; ".join(
                f"{edge.held} then {edge.acquired} at "
                f"{edge.relpath}:{edge.line}"
                for edge in cycle
            )
            yield self.project_finding(
                closing.relpath,
                closing.line,
                0,
                f"lock-order cycle {chain} — opposite-order acquisition "
                f"can deadlock ({witnesses})",
            )

    def _self_deadlocks(self, project: "ProjectIndex") -> Iterator[Finding]:
        for qual, (module, class_qual, fn) in sorted(project.functions.items()):
            if class_qual is None:
                continue
            cls = project.classes[class_qual][1]
            for acquire in fn.acquires:
                kind = cls.lock_attrs.get(acquire.attr)
                if kind in _REENTRANT_KINDS:
                    continue
                if acquire.attr in acquire.held:
                    yield self.project_finding(
                        module.relpath,
                        acquire.line,
                        acquire.col,
                        f"lock '{acquire.attr}' of {cls.name} is acquired "
                        "while already held; threading.Lock is not "
                        "reentrant, this blocks forever",
                    )
            for site in fn.calls:
                if not site.held:
                    continue
                held_quals = {
                    project.lock_qual(class_qual, attr): attr
                    for attr in site.held
                    if cls.lock_attrs.get(attr) not in _REENTRANT_KINDS
                }
                if not held_quals:
                    continue
                for callee in project.resolve_call(module, class_qual, site):
                    if callee.qualname.rsplit(".", 1)[0] != class_qual:
                        continue  # other-instance locks are distinct objects
                    taken = project.may_acquire(callee.qualname)
                    for lock_qual, attr in sorted(held_quals.items()):
                        if lock_qual in taken:
                            yield self.project_finding(
                                module.relpath,
                                site.line,
                                site.col,
                                f"call {'.'.join(site.path)}() may re-acquire "
                                f"non-reentrant lock '{attr}' of {cls.name} "
                                "already held here; threading.Lock "
                                "self-deadlocks",
                            )
