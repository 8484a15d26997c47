"""Per-module fact extraction for whole-program analysis.

:func:`extract_module` walks one parsed module and distills everything
the cross-module rules (RJI011–RJI013) need into a picklable
:class:`ModuleSummary` — no AST objects survive, so summaries cache
cheaply by content hash (see :mod:`repro.analysis.model.cache`):

* class tables: bases, lock-owning attributes, best-effort attribute
  types (``self.x = ClassName(...)`` and annotated-parameter
  assignments), ``@property`` methods;
* per-function field accesses and lock acquisitions, each carrying the
  *own-class* locks syntactically held at that point (``with
  self._lock:`` and the ``try: ... finally: self._lock.release()``
  discipline);
* call sites and explicit ``raise`` sites, each carrying the stack of
  enclosing ``except`` catch-sets, so the project layer can propagate
  raised types interprocedurally;
* blocking operations (``sleep``, ``open``, ``fsync``, ...) with the
  locks held around them.

Explicit field-guard annotations are read from comments::

    self._table = {}  # rjilint: guarded-by(_lock)
"""

from __future__ import annotations

import ast
import builtins
import re
from dataclasses import dataclass, field

from ..context import ModuleContext, SuppressionIndex

__all__ = [
    "BlockingOp",
    "CallSite",
    "ClassSummary",
    "FieldAccess",
    "FunctionSummary",
    "LockAcquire",
    "ModuleSummary",
    "RaiseSite",
    "extract_module",
    "module_name_for",
]

#: Constructor names that mark an attribute as a lock, with its kind.
_LOCK_CONSTRUCTORS = {"Lock": "lock", "RLock": "rlock", "Condition": "condition"}

#: Call tails treated as blocking while a lock is held (RJI011).  Plain
#: stream ``.write``/``.flush`` are excluded on purpose: serialized line
#: emission under a lock is the JSONL recorder's documented design.
_BLOCKING_TAILS = frozenset(
    {"sleep", "open", "fsync", "read_bytes", "write_bytes", "urlopen"}
)

_GUARDED_BY = re.compile(r"rjilint:\s*guarded-by\((?P<lock>[A-Za-z_][A-Za-z0-9_]*)\)")

_INIT_METHODS = frozenset({"__init__", "__post_init__", "__new__"})


@dataclass(frozen=True)
class FieldAccess:
    """One read or write of ``self.<attr>`` inside a method."""

    attr: str
    line: int
    col: int
    is_write: bool
    held: tuple[str, ...]  # own-class lock attributes held here


@dataclass(frozen=True)
class LockAcquire:
    """One acquisition of an own-class lock (with-guard or bare call)."""

    attr: str
    line: int
    col: int
    held: tuple[str, ...]


@dataclass(frozen=True)
class CallSite:
    """One call (or possible property read) with its guard context."""

    path: tuple[str, ...]  # ("self", "breaker", "record_failure")
    line: int
    col: int
    held: tuple[str, ...]
    guards: tuple[frozenset[str], ...]  # enclosing except catch-sets
    is_property: bool = False


@dataclass(frozen=True)
class RaiseSite:
    """One explicit ``raise`` with resolved candidate exception types."""

    types: tuple[str, ...]  # qualified-ish names; empty = unresolvable
    line: int
    col: int
    guards: tuple[frozenset[str], ...]


@dataclass(frozen=True)
class BlockingOp:
    """A blocking call made while at least one lock was held."""

    what: str
    line: int
    col: int
    held: tuple[str, ...]


@dataclass(frozen=True)
class FunctionSummary:
    """Facts about one function or method body."""

    name: str
    qualname: str
    lineno: int
    is_init: bool
    accesses: tuple[FieldAccess, ...] = ()
    acquires: tuple[LockAcquire, ...] = ()
    calls: tuple[CallSite, ...] = ()
    raises: tuple[RaiseSite, ...] = ()
    blocking: tuple[BlockingOp, ...] = ()


@dataclass(frozen=True)
class ClassSummary:
    """Facts about one class (nested classes use ``Outer._Inner`` names)."""

    name: str
    qualname: str
    lineno: int
    bases: tuple[str, ...]
    lock_attrs: dict[str, str]  # attr -> kind
    attr_types: dict[str, tuple[str, ...]]  # attr -> candidate class names
    guarded_annotations: dict[str, str]  # field -> declared lock attr
    annotation_lines: dict[str, int]  # field -> annotation line
    methods: dict[str, FunctionSummary]
    properties: frozenset[str]


@dataclass
class ModuleSummary:
    """Everything the project layer keeps about one module."""

    module: str  # dotted, e.g. "repro.core.writepath"
    relpath: str
    digest: str
    package: str | None
    imports: dict[str, str] = field(default_factory=dict)
    toplevel: frozenset[str] = frozenset()
    classes: dict[str, ClassSummary] = field(default_factory=dict)
    functions: dict[str, FunctionSummary] = field(default_factory=dict)
    suppressions: SuppressionIndex = field(default_factory=SuppressionIndex)

    def resolve(self, dotted: str) -> str:
        """Best-effort qualification of a (possibly dotted) local name."""
        head, _, rest = dotted.partition(".")
        if head in self.imports:
            base = self.imports[head]
        elif head in self.toplevel:
            base = f"{self.module}.{head}"
        elif hasattr(builtins, head):
            base = f"builtins.{head}"
        else:
            return dotted
        return f"{base}.{rest}" if rest else base


def module_name_for(relpath: str) -> str | None:
    """Dotted module name of a ``src/repro`` file, else ``None``."""
    parts = relpath.split("/")
    for i in range(len(parts) - 1):
        if parts[i] == "src" and parts[i + 1] == "repro":
            below = parts[i + 1 :]
            if below[-1] == "__init__.py":
                below = below[:-1]
            else:
                below[-1] = below[-1][: -len(".py")]
            return ".".join(below)
    return None


def _dotted_path(node: ast.expr) -> tuple[str, ...] | None:
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None


def _annotation_names(annotation: ast.expr | None) -> tuple[str, ...]:
    """Candidate type names out of an annotation (handles ``A | B``)."""
    if annotation is None:
        return ()
    names: list[str] = []
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name) and node.id != "None":
            names.append(node.id)
        elif isinstance(node, ast.Attribute):
            path = _dotted_path(node)
            if path is not None:
                names.append(".".join(path))
    # An Attribute's walk also yields its base Name; keep dotted first.
    dotted = [n for n in names if "." in n]
    if dotted:
        return tuple(dict.fromkeys(dotted))
    return tuple(dict.fromkeys(names))


class _Extractor:
    """Walks one module's AST and produces its :class:`ModuleSummary`."""

    def __init__(self, ctx: ModuleContext, digest: str):
        module = module_name_for(ctx.relpath) or ctx.relpath
        self.ctx = ctx
        self.out = ModuleSummary(
            module=module,
            relpath=ctx.relpath,
            digest=digest,
            package=ctx.package,
            suppressions=ctx.suppressions,
        )

    # -- module level -------------------------------------------------------

    def run(self) -> ModuleSummary:
        toplevel: set[str] = set()
        for stmt in self.ctx.tree.body:
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                self._record_import(stmt)
            elif isinstance(stmt, ast.ClassDef):
                toplevel.add(stmt.name)
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                toplevel.add(stmt.name)
            elif isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        toplevel.add(target.id)
        self.out.toplevel = frozenset(toplevel)
        for stmt in self.ctx.tree.body:
            if isinstance(stmt, ast.ClassDef):
                self._extract_class(stmt, prefix="")
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                summary = self._extract_function(
                    stmt, lock_attrs={}, qualprefix=self.out.module
                )
                self.out.functions[stmt.name] = summary
        return self.out

    def _record_import(self, stmt: ast.Import | ast.ImportFrom) -> None:
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                local = alias.asname or alias.name.partition(".")[0]
                target = alias.name if alias.asname else local
                self.out.imports[local] = target
            return
        base: list[str]
        if stmt.level:
            parts = self.out.module.split(".")
            # ``from . import x`` in a module at depth d strips d-1+level?
            # Module "repro.core.writepath": level=1 -> "repro.core".
            base = parts[: -stmt.level] if stmt.level <= len(parts) else []
        else:
            base = []
        if stmt.module:
            base = base + stmt.module.split(".")
        prefix = ".".join(base)
        for alias in stmt.names:
            if alias.name == "*":
                continue
            local = alias.asname or alias.name
            self.out.imports[local] = (
                f"{prefix}.{alias.name}" if prefix else alias.name
            )

    # -- classes ------------------------------------------------------------

    def _extract_class(self, node: ast.ClassDef, prefix: str) -> None:
        name = f"{prefix}{node.name}"
        qualname = f"{self.out.module}.{name}"
        bases = tuple(
            self.out.resolve(".".join(path))
            for base in node.bases
            if (path := _dotted_path(base)) is not None
        )
        lock_attrs: dict[str, str] = {}
        attr_types: dict[str, tuple[str, ...]] = {}
        guarded: dict[str, str] = {}
        guarded_lines: dict[str, int] = {}
        properties: set[str] = set()
        methods = [
            stmt
            for stmt in node.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        # Pass 1: attribute discovery (locks, types, annotations).
        for method in methods:
            params = self._param_annotations(method)
            for sub in ast.walk(method):
                if not isinstance(sub, (ast.Assign, ast.AnnAssign)):
                    continue
                targets = (
                    sub.targets if isinstance(sub, ast.Assign) else [sub.target]
                )
                for target in targets:
                    path = _dotted_path(target)
                    if path is None or path[0] != "self" or len(path) != 2:
                        continue
                    attr = path[1]
                    value = sub.value
                    comment = self.ctx.comments.get(sub.lineno, "")
                    match = _GUARDED_BY.search(comment)
                    if match is not None:
                        guarded[attr] = match.group("lock")
                        guarded_lines[attr] = sub.lineno
                    if value is None:
                        continue
                    kind = self._lock_kind(value)
                    if kind is not None:
                        lock_attrs[attr] = kind
                        continue
                    candidates = self._type_candidates(value, params)
                    if candidates:
                        merged = attr_types.get(attr, ()) + candidates
                        attr_types[attr] = tuple(dict.fromkeys(merged))
        # Pass 2: per-method flow facts, knowing the lock attributes.
        extracted: dict[str, FunctionSummary] = {}
        for method in methods:
            extracted[method.name] = self._extract_function(
                method, lock_attrs=lock_attrs, qualprefix=qualname
            )
            if any(
                isinstance(dec, ast.Name)
                and dec.id in ("property", "cached_property")
                for dec in method.decorator_list
            ):
                properties.add(method.name)
        self.out.classes[name] = ClassSummary(
            name=name,
            qualname=qualname,
            lineno=node.lineno,
            bases=bases,
            lock_attrs=lock_attrs,
            attr_types=attr_types,
            guarded_annotations=guarded,
            annotation_lines=guarded_lines,
            methods=extracted,
            properties=frozenset(properties),
        )
        for stmt in node.body:
            if isinstance(stmt, ast.ClassDef):
                self._extract_class(stmt, prefix=f"{name}.")

    def _lock_kind(self, value: ast.expr) -> str | None:
        if not isinstance(value, ast.Call):
            return None
        path = _dotted_path(value.func)
        if path is None:
            return None
        return _LOCK_CONSTRUCTORS.get(path[-1])

    def _type_candidates(
        self, value: ast.expr, params: dict[str, tuple[str, ...]]
    ) -> tuple[str, ...]:
        """Candidate class names for ``self.x = <value>`` assignments."""
        if isinstance(value, ast.IfExp):
            return self._type_candidates(
                value.body, params
            ) + self._type_candidates(value.orelse, params)
        if isinstance(value, ast.Call):
            path = _dotted_path(value.func)
            if path is not None:
                return (self.out.resolve(".".join(path)),)
            return ()
        if isinstance(value, ast.Name):
            return tuple(
                self.out.resolve(name) for name in params.get(value.id, ())
            )
        return ()

    def _param_annotations(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> dict[str, tuple[str, ...]]:
        out: dict[str, tuple[str, ...]] = {}
        args = node.args
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            names = _annotation_names(arg.annotation)
            if names:
                out[arg.arg] = names
        return out

    # -- function bodies ----------------------------------------------------

    def _extract_function(
        self,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        lock_attrs: dict[str, str],
        qualprefix: str,
    ) -> FunctionSummary:
        walker = _BodyWalker(self, lock_attrs)
        walker.locals_ann.update(self._param_annotations(node))
        walker.walk(node.body, held=(), guards=(), handler=None)
        return FunctionSummary(
            name=node.name,
            qualname=f"{qualprefix}.{node.name}",
            lineno=node.lineno,
            is_init=node.name in _INIT_METHODS,
            accesses=tuple(walker.accesses),
            acquires=tuple(walker.acquires),
            calls=tuple(walker.calls),
            raises=tuple(walker.raises),
            blocking=tuple(walker.blocking),
        )


class _BodyWalker:
    """Statement walker tracking held locks and enclosing guards."""

    def __init__(self, extractor: _Extractor, lock_attrs: dict[str, str]):
        self.extractor = extractor
        self.lock_attrs = lock_attrs
        self.locals_ann: dict[str, tuple[str, ...]] = {}
        self.accesses: list[FieldAccess] = []
        self.acquires: list[LockAcquire] = []
        self.calls: list[CallSite] = []
        self.raises: list[RaiseSite] = []
        self.blocking: list[BlockingOp] = []

    def resolve(self, dotted: str) -> str:
        return self.extractor.out.resolve(dotted)

    # -- statements ---------------------------------------------------------

    def walk(self, stmts, held, guards, handler) -> None:
        for stmt in stmts:
            self._stmt(stmt, held, guards, handler)

    def _stmt(self, stmt: ast.stmt, held, guards, handler) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return  # nested scopes are out of the flow model
        if isinstance(stmt, ast.With) or isinstance(stmt, ast.AsyncWith):
            new_held = held
            for item in stmt.items:
                attr = self._lock_guard(item.context_expr)
                if attr is not None:
                    self.acquires.append(
                        LockAcquire(
                            attr=attr,
                            line=item.context_expr.lineno,
                            col=item.context_expr.col_offset,
                            held=new_held,
                        )
                    )
                    new_held = new_held + (attr,)
                else:
                    self._expr(item.context_expr, new_held, guards)
                if item.optional_vars is not None:
                    self._write_target(item.optional_vars, new_held, guards)
            self.walk(stmt.body, new_held, guards, handler)
            return
        if isinstance(stmt, ast.Try):
            catch_sets = []
            for h in stmt.handlers:
                catch_sets.append(self._catch_set(h))
            body_guards = guards + (frozenset().union(*catch_sets),) if catch_sets else guards
            extra = self._finally_held(stmt.finalbody)
            region = held + tuple(extra)
            self.walk(stmt.body, region, body_guards, handler)
            for h, caught in zip(stmt.handlers, catch_sets):
                inner = dict(self.locals_ann)
                if h.name is not None:
                    self.locals_ann[h.name] = tuple(caught)
                self.walk(h.body, region, guards, (h, tuple(caught)))
                self.locals_ann = inner
            self.walk(stmt.orelse, region, guards, handler)
            self.walk(stmt.finalbody, held, guards, handler)
            return
        if isinstance(stmt, ast.Raise):
            self._raise(stmt, guards, handler)
            if stmt.exc is not None:
                self._expr(stmt.exc, held, guards)
            if stmt.cause is not None:
                self._expr(stmt.cause, held, guards)
            return
        if isinstance(stmt, (ast.If, ast.While)):
            self._expr(stmt.test, held, guards)
            self.walk(stmt.body, held, guards, handler)
            self.walk(stmt.orelse, held, guards, handler)
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._expr(stmt.iter, held, guards)
            self._write_target(stmt.target, held, guards)
            self.walk(stmt.body, held, guards, handler)
            self.walk(stmt.orelse, held, guards, handler)
            return
        if isinstance(stmt, ast.Assign):
            self._expr(stmt.value, held, guards)
            for target in stmt.targets:
                self._write_target(target, held, guards)
            return
        if isinstance(stmt, ast.AugAssign):
            self._expr(stmt.value, held, guards)
            self._write_target(stmt.target, held, guards)
            return
        if isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._expr(stmt.value, held, guards)
            if isinstance(stmt.target, ast.Name):
                names = _annotation_names(stmt.annotation)
                if names:
                    self.locals_ann[stmt.target.id] = tuple(
                        self.resolve(n) for n in names
                    )
            self._write_target(stmt.target, held, guards)
            return
        if isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                self._write_target(target, held, guards)
            return
        if isinstance(stmt, ast.Assert):
            return  # assertion failures are out of the error-contract model
        if isinstance(stmt, (ast.Return, ast.Expr)):
            if stmt.value is not None:
                self._expr(stmt.value, held, guards)
            return
        # Generic compound fallback (match statements etc.): same state.
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.stmt):
                self._stmt(child, held, guards, handler)
            elif isinstance(child, ast.expr):
                self._expr(child, held, guards)
            elif hasattr(child, "body"):
                body = getattr(child, "body")
                if isinstance(body, list):
                    self.walk(body, held, guards, handler)

    # -- pieces -------------------------------------------------------------

    def _lock_method(self, path: tuple[str, ...] | None, verb: str) -> bool:
        """Whether ``path`` is ``self.<own lock>.<verb>``."""
        return (
            path is not None
            and len(path) == 3
            and path[0] == "self"
            and path[1] in self.lock_attrs
            and path[2] == verb
        )

    def _lock_guard(self, expr: ast.expr) -> str | None:
        """The own-class lock a ``with`` item holds, if it is one."""
        path = _dotted_path(expr)
        if (
            path is not None
            and path[0] == "self"
            and len(path) == 2
            and path[1] in self.lock_attrs
        ):
            return path[1]
        return None

    def _finally_held(self, finalbody) -> list[str]:
        """Locks released in ``finally`` — their try body is a held region."""
        out: list[str] = []
        for stmt in finalbody:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call):
                    path = _dotted_path(node.func)
                    if self._lock_method(path, "release"):
                        out.append(path[1])
        return out

    def _catch_set(self, handler: ast.ExceptHandler) -> frozenset[str]:
        if handler.type is None:
            return frozenset({"builtins.BaseException"})
        names: set[str] = set()
        annotations = (
            handler.type.elts
            if isinstance(handler.type, ast.Tuple)
            else [handler.type]
        )
        for annotation in annotations:
            path = _dotted_path(annotation)
            if path is not None:
                names.add(self.resolve(".".join(path)))
        return frozenset(names)

    def _raise(self, stmt: ast.Raise, guards, handler) -> None:
        types: tuple[str, ...] = ()
        if stmt.exc is None:
            if handler is not None:
                types = handler[1]  # bare re-raise of the caught types
        else:
            target = stmt.exc
            if isinstance(target, ast.Call):
                target = target.func
            path = _dotted_path(target)
            if path is not None:
                dotted = ".".join(path)
                if path[0] in self.locals_ann and len(path) == 1:
                    types = tuple(
                        self.resolve(n) for n in self.locals_ann[path[0]]
                    )
                else:
                    types = (self.resolve(dotted),)
        self.raises.append(
            RaiseSite(
                types=types,
                line=stmt.lineno,
                col=stmt.col_offset,
                guards=guards,
            )
        )

    def _write_target(self, target: ast.expr, held, guards) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._write_target(element, held, guards)
            return
        if isinstance(target, ast.Starred):
            self._write_target(target.value, held, guards)
            return
        node = target
        while isinstance(node, ast.Subscript):
            if isinstance(node.slice, ast.expr):
                self._expr(node.slice, held, guards)
            node = node.value
        path = _dotted_path(node)
        if path is not None and path[0] == "self" and len(path) >= 2:
            self.accesses.append(
                FieldAccess(
                    attr=path[1],
                    line=target.lineno,
                    col=target.col_offset,
                    is_write=True,
                    held=held,
                )
            )
            return
        # Reads buried in a complex target (e.g. ``obj.attr[self.i] = v``).
        if node is not target:
            self._expr(node, held, guards)

    def _expr(self, expr: ast.expr, held, guards) -> None:
        call_funcs: dict[int, ast.Call] = {}
        attribute_values: set[int] = set()
        for node in ast.walk(expr):
            if isinstance(node, ast.Call):
                call_funcs[id(node.func)] = node
            if isinstance(node, ast.Attribute):
                attribute_values.add(id(node.value))
        for node in ast.walk(expr):
            if isinstance(node, ast.Call):
                self._call(node, held, guards)
            elif isinstance(node, ast.Attribute):
                path = _dotted_path(node)
                if path is None or path[0] != "self":
                    continue
                if len(path) == 2 and isinstance(node.ctx, ast.Load):
                    self.accesses.append(
                        FieldAccess(
                            attr=path[1],
                            line=node.lineno,
                            col=node.col_offset,
                            is_write=False,
                            held=held,
                        )
                    )
                elif (
                    len(path) == 3
                    and isinstance(node.ctx, ast.Load)
                    and id(node) not in call_funcs
                    and id(node) not in attribute_values
                ):
                    # Outermost ``self.attr.name`` load: maybe a property.
                    self.calls.append(
                        CallSite(
                            path=path,
                            line=node.lineno,
                            col=node.col_offset,
                            held=held,
                            guards=guards,
                            is_property=True,
                        )
                    )

    def _call(self, node: ast.Call, held, guards) -> None:
        path = _dotted_path(node.func)
        if path is None:
            return
        self.calls.append(
            CallSite(
                path=path,
                line=node.lineno,
                col=node.col_offset,
                held=held,
                guards=guards,
            )
        )
        tail = path[-1]
        if self._lock_method(path, "acquire"):
            self.acquires.append(
                LockAcquire(
                    attr=path[1],
                    line=node.lineno,
                    col=node.col_offset,
                    held=held,
                )
            )
        if held and (tail in _BLOCKING_TAILS or path[0] == "subprocess"):
            self.blocking.append(
                BlockingOp(
                    what=".".join(path),
                    line=node.lineno,
                    col=node.col_offset,
                    held=held,
                )
            )


def extract_module(ctx: ModuleContext, digest: str = "") -> ModuleSummary:
    """Extract the cross-module facts of one parsed module."""
    return _Extractor(ctx, digest).run()
