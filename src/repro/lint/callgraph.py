"""Project-wide, syntactically-derived call graph for lardlint.

The per-file rules in :mod:`repro.lint.determinism` and
:mod:`repro.lint.concurrency` see one AST at a time; the whole-program
passes (:mod:`repro.lint.interproc`, :mod:`repro.lint.locksets`) both
consume the :class:`ProjectSummary` built here instead — one extraction pass over every file, shared by every
interprocedural rule.

Resolution model (and its deliberate limits):

* **Functions** are module-level ``def``s and methods of module-level
  classes.  Nested functions and lambdas contribute their calls and
  effects to the enclosing function; they are not graph nodes.
* **Calls** resolve through the module's import table (including
  relative imports and package ``__init__`` re-exports), ``self.method``
  (walking base classes), ``self.attr.method`` where the attribute's
  class is known from ``__init__`` (a parameter annotation, an
  ``AnnAssign`` annotation, or a ``ClassName(...)`` construction),
  annotated parameters, and locals assigned from constructions or from
  typed ``self`` attributes.  Subscripts are looked through
  (``self.nodes[i].set_costs`` resolves via the element type of
  ``Sequence[BackendNode]``), and container annotations
  (``Optional``/``Sequence``/``List``/``Tuple``/``Iterable``) unwrap to
  their element class.
* **Dynamic dispatch** is handled conservatively: a resolved method call
  also edges to every project subclass that overrides the method.  A
  call whose receiver type cannot be derived syntactically produces *no*
  edge.
* **Callback references** — ``self._cb = self._stage`` aliases declared
  in ``__init__`` (or ``= cls._stage`` / ``= type(self)._stage``: a
  stage function posted with its object), and bare ``self.method``
  loads — produce *reference* edges (``CallSite.is_ref``): the engine
  will call them, so reachability passes must follow them, but they are
  not call sites for lockset verification.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from .determinism import _Imports, _collect_set_names, _is_set_expr, classify_call

__all__ = [
    "CallSite",
    "SourceRecord",
    "WriteRecord",
    "FunctionSummary",
    "ClassSummary",
    "ProjectSummary",
    "build_project",
    "module_name_for",
    "package_root",
]

#: Container annotations unwrapped to their (first) element type when
#: resolving attribute/parameter classes.
_CONTAINER_HEADS = frozenset(
    {"Optional", "Sequence", "List", "Tuple", "Iterable", "MutableSequence"}
)

_ENV_READ_FUNCS = frozenset({"getenv", "get", "setdefault"})


@dataclass(frozen=True)
class CallSite:
    """One resolved edge out of a function.

    ``receiver`` is ``"self"``, the dotted receiver expression
    (``"self.dispatcher"``, ``"backend"``), or ``""`` for bare-name
    calls.  ``held`` lists the ``self`` lock attributes lexically held
    (``with self.<lock>:``) at the site.  ``is_ref`` marks callback
    references (bound-method aliases / bare method loads) rather than
    actual calls.
    """

    callee: str
    line: int
    col: int
    receiver: str
    held: Tuple[str, ...]
    is_ref: bool


@dataclass(frozen=True)
class SourceRecord:
    """A direct nondeterministic source inside a function.

    ``kind`` is a per-file rule id where one exists (``wall-clock``,
    ``global-random``, ``set-iteration``) so a per-file suppression of
    that rule also neutralizes the source; env/urandom reads have no
    per-file rule and use ``env-read`` / ``os-urandom``.
    """

    kind: str
    detail: str
    line: int
    col: int


@dataclass(frozen=True)
class WriteRecord:
    """One attribute write, with the lock context it happened under.

    ``base`` is ``"self"`` for own-instance writes, the dotted receiver
    for foreign-object writes (``"backend"``, ``"self.dispatcher"``),
    or ``""`` for writes reaching an attribute through a local alias
    whose receiver was ``self`` (the alias's base is substituted).
    ``held_ext`` lists ``(base, lock_attr)`` pairs for every
    ``with <base>.<lock>:`` lexically held at the write.  ``base_cls``
    is the receiver's class qualname when it is syntactically derivable
    (``""`` otherwise) — lockset verification uses it to tell a foreign
    object's guarded attribute from an unrelated same-named one.
    """

    attr: str
    base: str
    line: int
    col: int
    held: Tuple[str, ...]
    held_ext: Tuple[Tuple[str, str], ...]
    base_cls: str = ""


@dataclass
class FunctionSummary:
    """Extraction result for one module function or method."""

    qualname: str
    module: str
    cls: Optional[str]
    name: str
    path: str
    line: int
    calls: List[CallSite] = field(default_factory=list)
    sources: List[SourceRecord] = field(default_factory=list)
    writes: List[WriteRecord] = field(default_factory=list)


@dataclass
class ClassSummary:
    """One module-level class: methods, bases, and lock declarations."""

    qualname: str
    module: str
    name: str
    path: str
    line: int
    bases: Tuple[str, ...] = ()
    methods: Dict[str, str] = field(default_factory=dict)
    lock_attrs: FrozenSet[str] = frozenset()
    guarded: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    locked_helpers: Tuple[str, ...] = ()


@dataclass
class ProjectSummary:
    """The whole-program view every interprocedural pass shares."""

    functions: Dict[str, FunctionSummary] = field(default_factory=dict)
    classes: Dict[str, ClassSummary] = field(default_factory=dict)
    #: class qualname -> direct project subclasses.
    subclasses: Dict[str, List[str]] = field(default_factory=dict)

    def resolve_method(self, class_qual: str, method: str) -> Optional[str]:
        """Defining function qualname for ``method`` on ``class_qual``,
        walking project base classes (breadth-first, cycle-safe)."""
        seen: Set[str] = set()
        frontier = [class_qual]
        while frontier:
            current = frontier.pop(0)
            if current in seen:
                continue
            seen.add(current)
            cls = self.classes.get(current)
            if cls is None:
                continue
            found = cls.methods.get(method)
            if found is not None:
                return found
            frontier.extend(cls.bases)
        return None

    def override_sites(self, class_qual: str, method: str) -> List[str]:
        """Overrides of ``method`` in every transitive project subclass
        of ``class_qual`` (the conservative dynamic-dispatch edges)."""
        out: List[str] = []
        seen: Set[str] = set()
        frontier = list(self.subclasses.get(class_qual, ()))
        while frontier:
            current = frontier.pop(0)
            if current in seen:
                continue
            seen.add(current)
            cls = self.classes.get(current)
            if cls is None:
                continue
            qual = cls.methods.get(method)
            if qual is not None:
                out.append(qual)
            frontier.extend(self.subclasses.get(current, ()))
        return out


# -- module / package naming ---------------------------------------------------

_root_cache: Dict[Path, Optional[Path]] = {}


def package_root(path: Path) -> Optional[Path]:
    """Topmost package directory containing ``path`` (walks ``__init__.py``
    markers upward), or None for a file outside any package."""
    directory = path.resolve().parent
    cached = _root_cache.get(directory)
    if cached is not None or directory in _root_cache:
        return cached
    probe = directory
    root: Optional[Path] = None
    while (probe / "__init__.py").is_file():
        root = probe
        probe = probe.parent
    _root_cache[directory] = root
    return root


def module_name_for(path: Path) -> str:
    """Dotted module name for ``path``: package-rooted when inside a
    package, the bare stem otherwise (fixture files)."""
    resolved = path.resolve()
    root = package_root(resolved)
    if root is None:
        return resolved.stem
    relative = resolved.relative_to(root.parent)
    parts = list(relative.parts)
    parts[-1] = resolved.stem
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


# -- chain / annotation helpers ------------------------------------------------


def _chain_parts(expr: ast.expr) -> Optional[List[str]]:
    """Dotted attribute chain with subscripts looked through
    (``self.nodes[i].serve`` -> ``["self", "nodes", "serve"]``)."""
    parts: List[str] = []
    node: ast.expr = expr
    while True:
        if isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        elif isinstance(node, ast.Subscript):
            node = node.value
        elif isinstance(node, ast.Name):
            parts.append(node.id)
            return list(reversed(parts))
        else:
            return None


def _is_own_class_or_self(expr: ast.expr) -> bool:
    """``self``, ``cls`` or ``type(self)``: a method read off one of
    them in ``__init__`` is the object's own function."""
    if isinstance(expr, ast.Name):
        return expr.id in ("self", "cls")
    return (
        isinstance(expr, ast.Call)
        and isinstance(expr.func, ast.Name)
        and expr.func.id == "type"
        and len(expr.args) == 1
        and isinstance(expr.args[0], ast.Name)
        and expr.args[0].id == "self"
    )


def _annotation_name(annotation: ast.expr) -> Optional[str]:
    """Class name an annotation ultimately refers to, unwrapping string
    annotations and the common container heads."""
    node: ast.expr = annotation
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return None
    while isinstance(node, ast.Subscript):
        head = node.value
        head_name = (
            head.id
            if isinstance(head, ast.Name)
            else head.attr
            if isinstance(head, ast.Attribute)
            else ""
        )
        if head_name not in _CONTAINER_HEADS:
            return None
        inner = node.slice
        if isinstance(inner, ast.Tuple) and inner.elts:
            inner = inner.elts[0]
        if not isinstance(inner, ast.expr):  # pragma: no cover - py<3.9 slices
            return None
        node = inner
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                node = ast.parse(node.value, mode="eval").body
            except SyntaxError:
                return None
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _string_tuple(value: ast.expr) -> Tuple[str, ...]:
    if isinstance(value, ast.Constant) and isinstance(value.value, str):
        return (value.value,)
    if isinstance(value, ast.Tuple):
        out: List[str] = []
        for element in value.elts:
            if isinstance(element, ast.Constant) and isinstance(element.value, str):
                out.append(element.value)
        return tuple(out)
    return ()


# -- raw per-module scan -------------------------------------------------------


class _ClassScan:
    """Raw (unresolved) facts about one module-level class."""

    def __init__(self, module: str, node: ast.ClassDef) -> None:
        self.node = node
        self.name = node.name
        self.qualname = f"{module}.{node.name}"
        self.bases_raw: List[ast.expr] = list(node.bases)
        self.methods: Dict[str, ast.FunctionDef] = {}
        self.attr_types: Dict[str, str] = {}  # attr -> class qualname (resolved later)
        self.attr_annotations: Dict[str, str] = {}  # attr -> raw class name
        self.attr_ctor: Dict[str, str] = {}  # attr -> raw constructed class name
        self.attr_aliases: Dict[str, str] = {}  # attr -> own method name
        self.lock_attrs: Set[str] = set()
        self.guarded: Dict[str, Tuple[str, ...]] = {}
        self.locked_helpers: Tuple[str, ...] = ()
        for stmt in node.body:
            if isinstance(stmt, ast.FunctionDef) or isinstance(
                stmt, ast.AsyncFunctionDef
            ):
                self.methods[stmt.name] = stmt  # type: ignore[assignment]
            elif isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        if target.id == "__guarded_by__" and isinstance(
                            stmt.value, ast.Dict
                        ):
                            for key, val in zip(stmt.value.keys, stmt.value.values):
                                if isinstance(key, ast.Constant) and isinstance(
                                    key.value, str
                                ):
                                    locks = _string_tuple(val)
                                    if locks:
                                        self.guarded[key.value] = locks
                        elif target.id == "__locked_helpers__":
                            self.locked_helpers = _string_tuple(stmt.value)
        self._scan_init()

    def _scan_init(self) -> None:
        init = self.methods.get("__init__")
        if init is None:
            return
        param_annotations: Dict[str, str] = {}
        args = init.args
        for arg in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs):
            if arg.annotation is not None:
                name = _annotation_name(arg.annotation)
                if name is not None:
                    param_annotations[arg.arg] = name
        threading_names = {"threading"}
        for stmt in ast.walk(init):
            if isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Attribute
            ):
                target = stmt.target
                if isinstance(target.value, ast.Name) and target.value.id == "self":
                    name = _annotation_name(stmt.annotation)
                    if name is not None:
                        self.attr_annotations[target.attr] = name
            if not isinstance(stmt, ast.Assign) or len(stmt.targets) != 1:
                continue
            target_expr = stmt.targets[0]
            if not (
                isinstance(target_expr, ast.Attribute)
                and isinstance(target_expr.value, ast.Name)
                and target_expr.value.id == "self"
            ):
                continue
            attr = target_expr.attr
            value = stmt.value
            if isinstance(value, ast.Call):
                func = value.func
                if isinstance(func, ast.Name):
                    self.attr_ctor[attr] = func.id
                elif (
                    isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and func.value.id in threading_names
                ):
                    self.lock_attrs.add(attr)
            elif isinstance(value, ast.Name) and value.id in param_annotations:
                self.attr_annotations.setdefault(attr, param_annotations[value.id])
            elif (
                isinstance(value, ast.Attribute)
                and _is_own_class_or_self(value.value)
                and value.attr in self.methods
            ):
                self.attr_aliases[attr] = value.attr


class _ModuleScan:
    """Raw facts about one module, before cross-module resolution."""

    def __init__(self, display: str, module: str, tree: ast.Module) -> None:
        self.display = display
        self.module = module
        self.tree = tree
        self.imports_mod: Dict[str, str] = {}
        self.imports_sym: Dict[str, Tuple[str, str]] = {}
        self.functions: Dict[str, ast.FunctionDef] = {}
        self.classes: Dict[str, _ClassScan] = {}
        self.det_imports = _Imports(tree)
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.functions[stmt.name] = stmt  # type: ignore[assignment]
            elif isinstance(stmt, ast.ClassDef):
                self.classes[stmt.name] = _ClassScan(module, stmt)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.imports_mod[alias.asname or alias.name.split(".")[0]] = (
                        alias.name
                    )
            elif isinstance(node, ast.ImportFrom):
                base = self._import_base(node)
                if base is None:
                    continue
                for alias in node.names:
                    self.imports_sym[alias.asname or alias.name] = (base, alias.name)

    def _import_base(self, node: ast.ImportFrom) -> Optional[str]:
        if node.level == 0:
            return node.module
        parts = self.module.split(".")
        if node.level > len(parts):
            return None
        prefix = parts[: len(parts) - node.level]
        if node.module:
            prefix.append(node.module)
        return ".".join(prefix) if prefix else None


# -- the builder ---------------------------------------------------------------


class _Builder:
    def __init__(self, scans: Dict[str, _ModuleScan]) -> None:
        self.scans = scans
        self.project = ProjectSummary()

    # symbol resolution --------------------------------------------------------

    def resolve_symbol(
        self, module: str, name: str, _seen: Optional[Set[Tuple[str, str]]] = None
    ) -> Optional[Tuple[str, str]]:
        """Resolve ``name`` in ``module`` to ``("func"|"class"|"mod", qual)``."""
        if _seen is None:
            _seen = set()
        if (module, name) in _seen:
            return None
        _seen.add((module, name))
        scan = self.scans.get(module)
        if scan is None:
            return None
        if name in scan.functions:
            return ("func", f"{module}.{name}")
        if name in scan.classes:
            return ("class", scan.classes[name].qualname)
        submodule = f"{module}.{name}"
        if submodule in self.scans:
            return ("mod", submodule)
        imported = scan.imports_sym.get(name)
        if imported is not None:
            src_module, src_name = imported
            if src_module in self.scans:
                return self.resolve_symbol(src_module, src_name, _seen)
            return None
        module_alias = scan.imports_mod.get(name)
        if module_alias is not None and module_alias in self.scans:
            return ("mod", module_alias)
        return None

    def resolve_class_name(self, module: str, name: str) -> Optional[str]:
        resolved = self.resolve_symbol(module, name)
        if resolved is not None and resolved[0] == "class":
            return resolved[1]
        return None

    # phases -------------------------------------------------------------------

    def build(self) -> ProjectSummary:
        project = self.project
        # Classes first (method tables + resolved bases + attribute types),
        # so function extraction can resolve receivers project-wide.
        for scan in self.scans.values():
            for cls in scan.classes.values():
                bases: List[str] = []
                for base_expr in cls.bases_raw:
                    parts = _chain_parts(base_expr)
                    if parts is None:
                        continue
                    qual = self._resolve_base(scan.module, parts)
                    if qual is not None:
                        bases.append(qual)
                methods = {
                    name: f"{cls.qualname}.{name}" for name in cls.methods
                }
                project.classes[cls.qualname] = ClassSummary(
                    qualname=cls.qualname,
                    module=scan.module,
                    name=cls.name,
                    path=scan.display,
                    line=cls.node.lineno,
                    bases=tuple(bases),
                    methods=methods,
                    lock_attrs=frozenset(cls.lock_attrs),
                    guarded=dict(cls.guarded),
                    locked_helpers=cls.locked_helpers,
                )
                for qual in bases:
                    self.project.subclasses.setdefault(qual, []).append(cls.qualname)
        for scan in self.scans.values():
            for cls in scan.classes.values():
                for attr, raw in list(cls.attr_annotations.items()):
                    qual = self.resolve_class_name(scan.module, raw)
                    if qual is not None:
                        cls.attr_types[attr] = qual
                for attr, raw in cls.attr_ctor.items():
                    qual = self.resolve_class_name(scan.module, raw)
                    if qual is not None:
                        cls.attr_types.setdefault(attr, qual)
        for scan in self.scans.values():
            for name, func in scan.functions.items():
                self._extract(scan, None, name, func)
            for cls in scan.classes.values():
                for name, method in cls.methods.items():
                    self._extract(scan, cls, name, method)
        return project

    def _resolve_base(self, module: str, parts: List[str]) -> Optional[str]:
        if len(parts) == 1:
            return self.resolve_class_name(module, parts[0])
        if len(parts) == 2:
            scan = self.scans.get(module)
            if scan is None:
                return None
            target_module = scan.imports_mod.get(parts[0])
            if target_module is not None:
                return self.resolve_class_name(target_module, parts[1])
        return None

    def _extract(
        self,
        scan: _ModuleScan,
        cls: Optional[_ClassScan],
        name: str,
        func: ast.FunctionDef,
    ) -> None:
        qualname = (
            f"{cls.qualname}.{name}" if cls is not None else f"{scan.module}.{name}"
        )
        summary = FunctionSummary(
            qualname=qualname,
            module=scan.module,
            cls=cls.qualname if cls is not None else None,
            name=name,
            path=scan.display,
            line=func.lineno,
        )
        _FunctionExtractor(self, scan, cls, func, summary).run()
        self.project.functions[qualname] = summary


class _FunctionExtractor:
    """Single ordered walk over one function body: call/ref edges,
    nondeterministic sources, effect tokens, and lock-contextual writes."""

    def __init__(
        self,
        builder: _Builder,
        scan: _ModuleScan,
        cls: Optional[_ClassScan],
        func: ast.FunctionDef,
        summary: FunctionSummary,
    ) -> None:
        self.builder = builder
        self.scan = scan
        self.cls = cls
        self.func = func
        self.summary = summary
        self.local_types: Dict[str, str] = {}
        #: local name -> (dotted receiver base, attribute) alias.
        self.aliases: Dict[str, Tuple[str, str]] = {}
        self.set_names = _collect_set_names(func)
        self._call_funcs: Set[int] = set()
        args = func.args
        for arg in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs):
            if arg.annotation is not None:
                raw = _annotation_name(arg.annotation)
                if raw is not None:
                    qual = builder.resolve_class_name(scan.module, raw)
                    if qual is not None:
                        self.local_types[arg.arg] = qual

    def run(self) -> None:
        for stmt in self.func.body:
            self._visit(stmt, (), ())

    # -- traversal -------------------------------------------------------------

    def _visit(
        self,
        node: ast.AST,
        held: Tuple[str, ...],
        held_ext: Tuple[Tuple[str, str], ...],
    ) -> None:
        if isinstance(node, ast.With):
            for item in node.items:
                self._visit(item.context_expr, held, held_ext)
                expr = item.context_expr
                parts = _chain_parts(expr) if isinstance(expr, ast.expr) else None
                if parts is not None and len(parts) >= 2:
                    base, attr = ".".join(parts[:-1]), parts[-1]
                    if base == "self":
                        held = held + (attr,)
                    else:
                        held_ext = held_ext + ((base, attr),)
            for child in node.body:
                self._visit(child, held, held_ext)
            return
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            value = node.value
            if value is not None:
                self._visit(value, held, held_ext)
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                self._record_write(target, node, held, held_ext)
                self._visit_target_subexprs(target, held, held_ext)
            if isinstance(node, ast.Assign) and value is not None:
                self._track_alias(node, value)
            return
        if isinstance(node, ast.Delete):
            for target in node.targets:
                self._record_write(target, node, held, held_ext)
                self._visit_target_subexprs(target, held, held_ext)
            return
        if isinstance(node, ast.Call):
            self._record_call(node, held)
            self._call_funcs.add(id(node.func))
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            if id(node) not in self._call_funcs:
                self._record_ref(node, held)
        elif isinstance(node, ast.For):
            self._record_set_iteration(node.iter)
        elif isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp, ast.SetComp)):
            for gen in node.generators:
                self._record_set_iteration(gen.iter)
        elif isinstance(node, ast.Subscript):
            self._record_env_subscript(node)
        if isinstance(node, ast.Call):
            # Visit the func expression *after* registering it, so the
            # Attribute it may be is not double-counted as a reference.
            for child in ast.iter_child_nodes(node):
                self._visit(child, held, held_ext)
            return
        for child in ast.iter_child_nodes(node):
            self._visit(child, held, held_ext)

    def _visit_target_subexprs(
        self,
        target: ast.expr,
        held: Tuple[str, ...],
        held_ext: Tuple[Tuple[str, str], ...],
    ) -> None:
        # Subscript indices etc. may contain calls; the target chain
        # itself was already consumed by _record_write.
        if isinstance(target, ast.Subscript):
            self._visit(target.slice, held, held_ext)
            self._visit_target_subexprs(target.value, held, held_ext)
        elif isinstance(target, ast.Attribute):
            self._visit_target_subexprs(target.value, held, held_ext)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._visit_target_subexprs(element, held, held_ext)

    # -- writes / aliases ------------------------------------------------------

    def _write_target(self, target: ast.expr) -> Optional[Tuple[str, str]]:
        """(base, attr) a write ultimately lands on, through subscripts
        and local aliases; None for plain locals/tuples."""
        node: ast.expr = target
        while isinstance(node, ast.Subscript):
            node = node.value
        if isinstance(node, ast.Attribute):
            parts = _chain_parts(node)
            if parts is None or len(parts) < 2:
                return None
            return (".".join(parts[:-1]), parts[-1])
        if isinstance(node, ast.Name):
            alias = self.aliases.get(node.id)
            if alias is not None and isinstance(target, ast.Subscript):
                return alias
        return None

    def _record_write(
        self,
        target: ast.expr,
        node: ast.AST,
        held: Tuple[str, ...],
        held_ext: Tuple[Tuple[str, str], ...],
    ) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._record_write(element, node, held, held_ext)
            return
        resolved = self._write_target(target)
        if resolved is None:
            return
        base, attr = resolved
        base_cls = self._receiver_class(base.split(".")) or ""
        self.summary.writes.append(
            WriteRecord(
                attr=attr,
                base=base,
                line=getattr(node, "lineno", self.func.lineno),
                col=getattr(node, "col_offset", 0),
                held=held,
                held_ext=held_ext,
                base_cls=base_cls,
            )
        )

    def _track_alias(self, node: ast.Assign, value: ast.expr) -> None:
        target = node.targets[0] if len(node.targets) == 1 else None
        if not isinstance(target, ast.Name):
            return
        local = target.id
        # `x = ClassName(...)` / `x = a if c else ClassName(...)` typing.
        ctor = self._ctor_class(value)
        if ctor is not None:
            self.local_types[local] = ctor
            return
        parts = _chain_parts(value) if not isinstance(value, ast.Call) else None
        if parts is not None and len(parts) >= 2:
            base = ".".join(parts[:-1])
            self.aliases[local] = (base, parts[-1])
            # `fp = self.fp` where self.fp has a known class: type the local.
            if (
                len(parts) == 2
                and parts[0] == "self"
                and self.cls is not None
                and parts[1] in self.cls.attr_types
            ):
                self.local_types[local] = self.cls.attr_types[parts[1]]

    def _ctor_class(self, value: ast.expr) -> Optional[str]:
        if isinstance(value, ast.IfExp):
            return self._ctor_class(value.body) or self._ctor_class(value.orelse)
        if isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
            return self.builder.resolve_class_name(self.scan.module, value.func.id)
        return None

    # -- calls / references ----------------------------------------------------

    def _add_edges(
        self,
        callees: Sequence[str],
        node: ast.AST,
        receiver: str,
        held: Tuple[str, ...],
        is_ref: bool,
    ) -> None:
        for callee in callees:
            self.summary.calls.append(
                CallSite(
                    callee=callee,
                    line=getattr(node, "lineno", self.func.lineno),
                    col=getattr(node, "col_offset", 0),
                    receiver=receiver,
                    held=held,
                    is_ref=is_ref,
                )
            )

    def _method_edges(self, class_qual: str, method: str) -> List[str]:
        project = self.builder.project
        out: List[str] = []
        defined = project.resolve_method(class_qual, method)
        if defined is not None:
            out.append(defined)
        out.extend(project.override_sites(class_qual, method))
        return out

    def _receiver_class(self, parts: List[str]) -> Optional[str]:
        """Class of the receiver expression ``parts`` (all but the final
        attribute), using self-attribute types, locals, and aliases."""
        if parts[0] == "self" and self.cls is not None:
            if len(parts) == 1:
                return self.cls.qualname
            if len(parts) == 2:
                return self.cls.attr_types.get(parts[1])
            return None
        if len(parts) == 1:
            known = self.local_types.get(parts[0])
            if known is not None:
                return known
            alias = self.aliases.get(parts[0])
            if (
                alias is not None
                and alias[0] == "self"
                and self.cls is not None
            ):
                return self.cls.attr_types.get(alias[1])
        return None

    def _record_call(self, node: ast.Call, held: Tuple[str, ...]) -> None:
        func = node.func
        parts = _chain_parts(func)
        if parts is None:
            return
        terminal = parts[-1]
        if len(parts) == 1:
            alias = self.aliases.get(terminal)
            if alias is not None:
                # Calling through a local bound-method alias.
                receiver_cls = self._receiver_class(alias[0].split("."))
                if receiver_cls is not None:
                    self._add_edges(
                        self._method_edges(receiver_cls, alias[1]),
                        node,
                        alias[0],
                        held,
                        False,
                    )
                self._record_source_call(node, parts)
                return
        self._record_source_call(node, parts)
        builder = self.builder
        module = self.scan.module
        if len(parts) == 1:
            resolved = builder.resolve_symbol(module, parts[0])
            if resolved is not None:
                kind, qual = resolved
                if kind == "func":
                    self._add_edges([qual], node, "", held, False)
                elif kind == "class":
                    init = builder.project.resolve_method(qual, "__init__")
                    if init is not None:
                        self._add_edges([init], node, "", held, False)
            return
        receiver = ".".join(parts[:-1])
        receiver_cls = self._receiver_class(parts[:-1])
        if receiver_cls is not None:
            method = terminal
            if self.cls is not None and parts == ["self", method]:
                # self.method() may also be an __init__-declared callback
                # alias for another of our own methods.
                aliased = self.cls.attr_aliases.get(method)
                if aliased is not None:
                    self._add_edges(
                        self._method_edges(self.cls.qualname, aliased),
                        node,
                        "self",
                        held,
                        False,
                    )
                    return
            self._add_edges(
                self._method_edges(receiver_cls, method), node, receiver, held, False
            )
            return
        resolved = builder.resolve_symbol(module, parts[0])
        if resolved is None:
            return
        kind, qual = resolved
        if kind == "mod" and len(parts) == 2:
            target = builder.resolve_symbol(qual, parts[1])
            if target is not None:
                t_kind, t_qual = target
                if t_kind == "func":
                    self._add_edges([t_qual], node, receiver, held, False)
                elif t_kind == "class":
                    init = builder.project.resolve_method(t_qual, "__init__")
                    if init is not None:
                        self._add_edges([init], node, receiver, held, False)
        elif kind == "mod" and len(parts) == 3:
            target = builder.resolve_symbol(qual, parts[1])
            if target is not None and target[0] == "class":
                self._add_edges(
                    self._method_edges(target[1], parts[2]),
                    node,
                    receiver,
                    held,
                    False,
                )
        elif kind == "class" and len(parts) == 2:
            self._add_edges(
                self._method_edges(qual, parts[1]), node, receiver, held, False
            )

    def _record_ref(self, node: ast.Attribute, held: Tuple[str, ...]) -> None:
        parts = _chain_parts(node)
        if parts is None or len(parts) != 2:
            return
        receiver_cls = self._receiver_class(parts[:1])
        if receiver_cls is None:
            return
        scan_cls = self._class_scan(receiver_cls)
        method = parts[1]
        if scan_cls is not None and method in scan_cls.attr_aliases:
            method = scan_cls.attr_aliases[method]
        edges = self._method_edges(receiver_cls, method)
        if edges:
            self._add_edges(edges, node, parts[0], held, True)

    def _class_scan(self, class_qual: str) -> Optional[_ClassScan]:
        cls = self.builder.project.classes.get(class_qual)
        if cls is None:
            return None
        scan = self.builder.scans.get(cls.module)
        if scan is None:
            return None
        return scan.classes.get(cls.name)

    # -- nondeterministic sources ----------------------------------------------

    def _add_source(self, kind: str, detail: str, node: ast.AST) -> None:
        self.summary.sources.append(
            SourceRecord(
                kind=kind,
                detail=detail,
                line=getattr(node, "lineno", self.func.lineno),
                col=getattr(node, "col_offset", 0),
            )
        )

    def _record_source_call(self, node: ast.Call, parts: List[str]) -> None:
        imports = self.scan.det_imports
        chain = ".".join(parts)
        root_module = imports.module_of(parts[0])
        source = classify_call(parts, imports)
        if source is not None:
            kind, origin = source
            detail = f"{chain}() ({origin})" if len(parts) == 1 else f"{chain}()"
            self._add_source(kind, detail, node)
        elif root_module == "os":
            if len(parts) == 2 and parts[1] == "urandom":
                self._add_source("os-urandom", f"{chain}()", node)
            elif len(parts) == 2 and parts[1] == "getenv":
                self._add_source("env-read", f"{chain}()", node)
            elif (
                len(parts) == 3
                and parts[1] == "environ"
                and parts[2] in _ENV_READ_FUNCS
            ):
                self._add_source("env-read", f"{chain}()", node)
        elif len(parts) <= 2 and self._os_symbol(parts[0]) in ("getenv", "urandom"):
            symbol = self._os_symbol(parts[0])
            kind = "os-urandom" if symbol == "urandom" else "env-read"
            self._add_source(kind, f"{chain}()", node)
        elif (
            len(parts) == 2
            and parts[1] in _ENV_READ_FUNCS
            and self._os_symbol(parts[0]) == "environ"
        ):
            self._add_source("env-read", f"{chain}()", node)

    def _os_symbol(self, name: str) -> Optional[str]:
        imported = self.scan.imports_sym.get(name)
        if imported is not None and imported[0] == "os":
            return imported[1]
        return None

    def _record_env_subscript(self, node: ast.Subscript) -> None:
        if not isinstance(node.ctx, ast.Load):
            return
        parts = _chain_parts(node.value)
        if parts is None:
            return
        imports = self.scan.det_imports
        if (
            len(parts) == 2
            and imports.module_of(parts[0]) == "os"
            and parts[1] == "environ"
        ) or (len(parts) == 1 and self._os_symbol(parts[0]) == "environ"):
            self._add_source("env-read", f"{'.'.join(parts)}[...]", node)

    def _record_set_iteration(self, iter_expr: ast.expr) -> None:
        if _is_set_expr(iter_expr, self.set_names):
            self._add_source("set-iteration", "iteration over an unordered set", iter_expr)


# -- public entry points -------------------------------------------------------


def build_project(units: Sequence[Tuple[Path, str, ast.Module]]) -> ProjectSummary:
    """Build the whole-program summary from parsed files.

    ``units`` is ``(path, display, tree)`` per file.
    """
    scans: Dict[str, _ModuleScan] = {}
    for path, display, tree in units:
        module = module_name_for(path)
        scans[module] = _ModuleScan(display, module, tree)
    return _Builder(scans).build()
