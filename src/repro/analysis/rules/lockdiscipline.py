"""RJI011 — lock discipline: guarded fields stay guarded.

For every class that owns a lock (``threading.Lock``/``RLock``/
``Condition``), the rule infers which instance fields the lock guards:
a field *mutated* outside ``__init__`` is guarded by lock ``L`` when
the majority of its accesses happen while ``L`` is held (``with
self._lock:`` or the ``try/finally: release`` discipline), or when the
field carries an explicit annotation::

    self._table = {}  # rjilint: guarded-by(_lock)

It then flags:

* any read or write of a guarded field outside its lock;
* blocking operations (``sleep``, ``open``, ``fsync``, byte-file I/O)
  performed while holding any lock — latency under a recorder or
  metrics lock serializes every instrumented thread behind it.

Private helpers (``_name``) called only from lock-held sites inherit
the held set of their callers, so the ``_peek_state``-style pattern
(helper that asserts "caller holds the lock") needs no annotation.

Bad::

    class Pool:
        def __init__(self):
            self._lock = threading.Lock()
            self._frames = {}
        def get(self, k):
            return self._frames[k]        # unguarded read
        def put(self, k, v):
            with self._lock:
                self._frames[k] = v

Good: take the lock on both paths, or annotate a deliberately
unguarded field with ``# rjilint: disable=RJI011`` where it is read.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from ..registry import Finding, ProjectRule, register

if TYPE_CHECKING:  # pragma: no cover
    from ..model import ClassSummary, ModuleSummary, ProjectIndex

__all__ = ["LockDisciplineRule"]


def _entry_held(cls: "ClassSummary") -> dict[str, frozenset[str]]:
    """Locks every internal call site of a private method holds.

    Fixpoint over the class-internal call graph: a ``_private`` method
    called only while ``L`` is held is analyzed as if it held ``L``.
    """
    held: dict[str, frozenset[str]] = {name: frozenset() for name in cls.methods}
    for _ in range(len(cls.methods) + 1):
        changed = False
        callers: dict[str, list[frozenset[str]]] = {}
        for name, fn in cls.methods.items():
            base = held[name]
            for site in fn.calls:
                if (
                    len(site.path) == 2
                    and site.path[0] == "self"
                    and site.path[1] in cls.methods
                    and not site.is_property
                ):
                    site_held = frozenset(site.held) | base
                    callers.setdefault(site.path[1], []).append(site_held)
        for name, fn in cls.methods.items():
            if not name.startswith("_") or name.startswith("__"):
                continue
            sites = callers.get(name)
            if not sites:
                continue
            common = frozenset.intersection(*sites)
            if common and common != held[name]:
                held[name] = common
                changed = True
        if not changed:
            return held
    return held


@register
class LockDisciplineRule(ProjectRule):
    """Guarded-by inference + unguarded-access and blocking-op checks."""

    id = "RJI011"
    name = "lock-discipline"
    description = (
        "fields majority-accessed (or annotated guarded-by) under a class's "
        "lock must never be touched outside it; no blocking calls while "
        "holding a lock"
    )
    scope = "project"

    def check_project(self, project: "ProjectIndex") -> Iterator[Finding]:
        for module in project.modules.values():
            for cls in module.classes.values():
                yield from self._check_class(project, module, cls)

    def _check_class(
        self,
        project: "ProjectIndex",
        module: "ModuleSummary",
        cls: "ClassSummary",
    ) -> Iterator[Finding]:
        if not cls.lock_attrs:
            return
        entry_held = _entry_held(cls)
        # Gather per-field access statistics outside init methods.
        accesses: dict[str, list] = {}
        for name, fn in cls.methods.items():
            if fn.is_init:
                continue
            extra = entry_held[name]
            for access in fn.accesses:
                if access.attr in cls.lock_attrs:
                    continue
                accesses.setdefault(access.attr, []).append(
                    (access, extra.union(access.held))
                )
        for attr, declared_lock in sorted(cls.guarded_annotations.items()):
            if declared_lock not in cls.lock_attrs:
                yield self.project_finding(
                    module.relpath,
                    cls.annotation_lines.get(attr, cls.lineno),
                    0,
                    f"guarded-by({declared_lock}) on field '{attr}' names no "
                    f"lock attribute of class {cls.name} "
                    f"(locks: {sorted(cls.lock_attrs) or 'none'})",
                )
        for attr in sorted(accesses):
            records = accesses[attr]
            guard = cls.guarded_annotations.get(attr)
            if guard is None:
                if not any(record.is_write for record, _ in records):
                    continue  # never mutated after construction
                guard = self._majority_lock(cls, records)
            if guard is None:
                continue
            total = len(records)
            under = sum(1 for _, held in records if guard in held)
            for record, held in records:
                if guard not in held:
                    verb = "written" if record.is_write else "read"
                    yield self.project_finding(
                        module.relpath,
                        record.line,
                        record.col,
                        f"field '{attr}' of {cls.name} is guarded by "
                        f"'{guard}' ({under} of {total} accesses hold it) "
                        f"but is {verb} here without the lock",
                    )
        # Blocking operations under any held lock.
        for name, fn in cls.methods.items():
            for op in fn.blocking:
                locks = ", ".join(sorted(set(op.held)))
                yield self.project_finding(
                    module.relpath,
                    op.line,
                    op.col,
                    f"blocking call {op.what}() while holding lock(s) "
                    f"{locks} of {cls.name}; move the slow operation "
                    "outside the critical section",
                )

    def _majority_lock(
        self, cls: "ClassSummary", records: list
    ) -> str | None:
        total = len(records)
        best: str | None = None
        for lock in sorted(cls.lock_attrs):
            under = sum(1 for _, held in records if lock in held)
            if under * 2 > total:
                best = lock if best is None else best
        return best
