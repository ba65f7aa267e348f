"""Per-file analysis context handed to every lardlint rule.

:class:`ModuleScan` is the one reader of the facts both lardlint layers
need — the import table, each class's lock declarations and the places
a module iterates an unordered set.  The runner builds it once per file;
the per-file rules read it through :class:`FileContext` and the call
graph (:mod:`repro.lint.callgraph`) is built from the same scans.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import PurePath
from typing import (
    AbstractSet,
    Dict,
    FrozenSet,
    List,
    Optional,
    Set,
    Tuple,
    Type,
    TypeVar,
    cast,
)

from .findings import Finding

__all__ = [
    "FileContext",
    "ModuleScan",
    "ClassScan",
    "self_attribute_root",
    "call_chain",
]

_Node = TypeVar("_Node", bound=ast.AST)

_LOCK_FACTORIES = frozenset(
    {"Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore"}
)
#: Container annotations unwrapped to their (first) element type when
#: resolving attribute/parameter classes.
_CONTAINER_HEADS = frozenset(
    {"Optional", "Sequence", "List", "Tuple", "Iterable", "MutableSequence"}
)


class _Imports:
    """Every local name a module's imports bind, wherever they sit."""

    def __init__(self, scan: ModuleScan) -> None:
        self.modules: Dict[str, str] = {}  # local alias -> real module name
        #: local name -> (absolute source module, imported name)
        self.symbols: Dict[str, Tuple[str, str]] = {}
        for node in scan.nodes(ast.Import):
            for alias in node.names:
                self.modules[alias.asname or alias.name.split(".")[0]] = alias.name
        for node in scan.nodes(ast.ImportFrom):
            base = _import_base(scan.package, node)
            if base is None:
                continue
            for alias in node.names:
                self.symbols[alias.asname or alias.name] = (base, alias.name)

    def module_of(self, alias: str) -> str:
        return self.modules.get(alias, "")

    def source_of(self, name: str) -> Tuple[str, str]:
        """``(module, name)`` a from-import bound ``name`` to, or ``("", "")``."""
        return self.symbols.get(name, ("", ""))


def _import_base(package: str, node: ast.ImportFrom) -> Optional[str]:
    """Absolute module a from-import reads, resolving relative levels
    against ``package`` (level 1 is ``package`` itself); None when the
    level climbs above the root."""
    if node.level == 0:
        return node.module
    parts = package.split(".") if package else []
    up = node.level - 1
    if up > len(parts):
        return None
    prefix = parts[: len(parts) - up]
    if node.module:
        prefix.append(node.module)
    return ".".join(prefix) if prefix else None


def _string_tuple(value: ast.expr) -> Optional[Tuple[str, ...]]:
    """A string literal or tuple-of-strings literal, else None."""
    if isinstance(value, ast.Constant) and isinstance(value.value, str):
        return (value.value,)
    if isinstance(value, ast.Tuple):
        out: List[str] = []
        for element in value.elts:
            if not (isinstance(element, ast.Constant) and isinstance(element.value, str)):
                return None
            out.append(element.value)
        return tuple(out)
    return None


class ClassScan:
    """One class's methods, ``__init__`` facts and lock declarations.

    ``lock_attrs`` are the ``self`` attributes ``__init__`` binds to a
    :mod:`threading` lock factory (through any alias of the module).
    ``guarded`` / ``locked_helpers`` hold only the declaration entries
    that validate; each rejected one is in ``problems`` as ``(node,
    message)``, which the concurrency rules report as ``guard-decl``.
    The ``attr_*`` tables type ``self`` attributes for the call graph.
    """

    def __init__(self, module: str, node: ast.ClassDef, imports: _Imports) -> None:
        self.node = node
        self.name = node.name
        self.qualname = f"{module}.{node.name}"
        self.methods: Dict[str, ast.FunctionDef] = {}
        self.attr_types: Dict[str, str] = {}  # attr -> class qualname (resolved later)
        self.attr_annotations: Dict[str, str] = {}  # attr -> raw class name
        self.attr_ctor: Dict[str, str] = {}  # attr -> raw constructed class name
        self.attr_aliases: Dict[str, str] = {}  # attr -> own method name
        self.lock_attrs: Set[str] = set()
        self.guarded: Dict[str, Tuple[str, ...]] = {}
        self.locked_helpers: Tuple[str, ...] = ()
        self.declared = False
        self.problems: List[Tuple[ast.AST, str]] = []
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.methods[stmt.name] = stmt  # type: ignore[assignment]
        self._scan_init(imports)
        for stmt in node.body:
            if not isinstance(stmt, (ast.Assign, ast.AnnAssign)) or stmt.value is None:
                continue
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            for target in targets:
                if not isinstance(target, ast.Name):
                    continue
                if target.id == "__guarded_by__":
                    self.declared = True
                    self._parse_guarded(stmt.value)
                elif target.id == "__locked_helpers__":
                    self._parse_helpers(stmt.value)

    def _scan_init(self, imports: _Imports) -> None:
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
        for stmt in ast.walk(init):
            if isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Attribute
            ):
                target = stmt.target
                if isinstance(target.value, ast.Name) and target.value.id == "self":
                    name = _annotation_name(stmt.annotation)
                    if name is not None:
                        self.attr_annotations[target.attr] = name
            if not isinstance(stmt, ast.Assign):
                continue
            value = stmt.value
            if (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Attribute)
                and isinstance(value.func.value, ast.Name)
                and imports.module_of(value.func.value.id) == "threading"
                and value.func.attr in _LOCK_FACTORIES
            ):
                for lock_target in stmt.targets:
                    attr = self_attribute_root(lock_target)
                    if attr:
                        self.lock_attrs.add(attr)
            target_expr = stmt.targets[0]
            if not (
                len(stmt.targets) == 1
                and isinstance(target_expr, ast.Attribute)
                and isinstance(target_expr.value, ast.Name)
                and target_expr.value.id == "self"
            ):
                continue
            attr = target_expr.attr
            if isinstance(value, ast.Call):
                if isinstance(value.func, ast.Name):
                    self.attr_ctor[attr] = value.func.id
            elif isinstance(value, ast.Name) and value.id in param_annotations:
                self.attr_annotations.setdefault(attr, param_annotations[value.id])
            elif (
                isinstance(value, ast.Attribute)
                and _is_own_class_or_self(value.value)
                and value.attr in self.methods
            ):
                self.attr_aliases[attr] = value.attr

    def _parse_guarded(self, value: ast.expr) -> None:
        if not isinstance(value, ast.Dict):
            self.problems.append((value, "__guarded_by__ must be a dict literal"))
            return
        for key, val in zip(value.keys, value.values):
            if not (isinstance(key, ast.Constant) and isinstance(key.value, str)):
                self.problems.append(
                    (value, "__guarded_by__ keys must be string literals")
                )
                continue
            locks = _string_tuple(val)
            if not locks:
                self.problems.append(
                    (
                        val,
                        f"__guarded_by__[{key.value!r}] must name a lock attribute "
                        "(string or tuple of strings)",
                    )
                )
                continue
            unknown = [name for name in locks if name not in self.lock_attrs]
            if unknown:
                self.problems.append(
                    (
                        val,
                        f"__guarded_by__[{key.value!r}] names unknown lock(s) "
                        f"{', '.join(unknown)} (locks found in __init__: "
                        f"{', '.join(sorted(self.lock_attrs)) or 'none'})",
                    )
                )
                continue
            self.guarded[key.value] = locks

    def _parse_helpers(self, value: ast.expr) -> None:
        names = _string_tuple(value)
        if names is None:
            self.problems.append(
                (value, "__locked_helpers__ must be a tuple of method names")
            )
            return
        self.locked_helpers += names


class ModuleScan:
    """Everything read off one module's tree that both lardlint layers use.

    The tree is walked once, into an index by node type (:meth:`nodes`)
    that the import table, the class reader and the per-file rules read
    instead of walking again.  ``functions`` and ``classes`` are the
    module-level definitions (the call graph's nodes); ``all_classes``
    is every class, nested ones included, in walk order (the per-file
    concurrency rules check each).  ``package`` is what the module's
    relative imports resolve against: the module itself for a package
    ``__init__``, else the package that contains it.
    """

    def __init__(self, path: str, module: str, tree: ast.Module) -> None:
        self.path = path
        self.module = module
        self.package = (
            module if PurePath(path).name == "__init__.py" else module.rpartition(".")[0]
        )
        self.tree = tree
        self._by_type: Dict[type, List[ast.AST]] = {}
        for node in ast.walk(tree):
            self._by_type.setdefault(type(node), []).append(node)
        self.imports = _Imports(self)
        by_node = {
            node: ClassScan(module, node, self.imports)
            for node in self.nodes(ast.ClassDef)
        }
        self.all_classes: List[ClassScan] = list(by_node.values())
        self.functions: Dict[str, ast.FunctionDef] = {}
        self.classes: Dict[str, ClassScan] = {}
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.functions[stmt.name] = stmt  # type: ignore[assignment]
            elif isinstance(stmt, ast.ClassDef):
                self.classes[stmt.name] = by_node[stmt]
        #: Every node that iterates an unordered set in an order-sensitive
        #: way (see :func:`_set_iteration_anchors`), as an insertion-ordered
        #: set.  The ``set-iteration`` rule reports these and the call graph
        #: seeds its taint sources from them, so the two cannot disagree.
        self.set_iterations: Dict[ast.AST, None] = {}
        self._find_set_iterations(tree, frozenset())

    def nodes(self, kind: Type[_Node]) -> List[_Node]:
        """Every node of exactly type ``kind``, in :func:`ast.walk` order."""
        return cast(List[_Node], self._by_type.get(kind, []))

    def _find_set_iterations(self, node: ast.AST, set_names: FrozenSet[str]) -> None:
        # Each node is judged with the set-typed local names of its
        # nearest enclosing function.
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            set_names = _collect_set_names(node)
        else:
            for anchor in _set_iteration_anchors(node, set_names):
                self.set_iterations[anchor] = None
        for child in ast.iter_child_nodes(node):
            self._find_set_iterations(child, set_names)


@dataclass
class FileContext:
    """Everything a rule needs to analyze one file.

    ``scopes`` is the set of rule families that apply; ``lock_hierarchy``
    is the declared lock order (outermost first) for concurrency-scope
    files.
    """

    scan: ModuleScan
    scopes: FrozenSet[str]
    lock_hierarchy: Tuple[str, ...] = ()
    findings: List[Finding] = field(default_factory=list)

    @property
    def path(self) -> str:
        return self.scan.path

    def report(self, node: ast.AST, rule: str, message: str) -> None:
        """Record one finding anchored at ``node``."""
        self.findings.append(
            Finding(
                path=self.path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0),
                rule=rule,
                message=message,
            )
        )


# -- set iteration -------------------------------------------------------------


def _is_set_expr(node: ast.expr, set_names: AbstractSet[str]) -> bool:
    """Syntactically-certainly-a-set expressions (plus tracked local names)."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    ):
        return True
    if isinstance(node, ast.Name) and node.id in set_names:
        return True
    return False


def _annotation_is_set(annotation: ast.expr) -> bool:
    target = annotation
    if isinstance(target, ast.Subscript):
        target = target.value
    if isinstance(target, ast.Name):
        return target.id in ("set", "frozenset", "Set", "FrozenSet")
    if isinstance(target, ast.Attribute):
        return target.attr in ("Set", "FrozenSet")
    return False


def _collect_set_names(func: ast.AST) -> FrozenSet[str]:
    """Local names assigned from set-typed expressions within ``func``."""
    names: Set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and _is_set_expr(node.value, names):
                names.add(target.id)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            if _annotation_is_set(node.annotation):
                names.add(node.target.id)
    return frozenset(names)


def _set_iteration_anchors(node: ast.AST, set_names: FrozenSet[str]) -> List[ast.AST]:
    """Where ``node`` itself iterates a set in an order-sensitive way: a
    ``for`` over it, a list / generator / dict comprehension over it, or
    ``list()`` / ``tuple()`` of it.  Set-to-set comprehensions and the
    order-insensitive consumers (``sorted``, ``min``, ``len``...) are
    not iteration order anyone can observe."""
    if isinstance(node, ast.For):
        return [node.iter] if _is_set_expr(node.iter, set_names) else []
    if isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
        return [gen.iter for gen in node.generators if _is_set_expr(gen.iter, set_names)]
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("list", "tuple")
        and node.args
        and _is_set_expr(node.args[0], set_names)
    ):
        return [node]
    return []


# -- expression helpers --------------------------------------------------------


def self_attribute_root(node: ast.expr) -> str:
    """Name of the ``self`` attribute an assignment target ultimately hits.

    Resolves ``self.x``, ``self.x[i]``, ``self.x.y`` (and deeper chains)
    to ``"x"``; returns ``""`` for anything not rooted at ``self``.
    """
    while isinstance(node, (ast.Subscript, ast.Attribute)):
        parent = node.value
        if (
            isinstance(node, ast.Attribute)
            and isinstance(parent, ast.Name)
            and parent.id == "self"
        ):
            return node.attr
        node = parent
    return ""


def call_chain(func: ast.expr) -> str:
    """Dotted name of a call target (``"time.monotonic"``), or ``""``."""
    parts: List[str] = []
    while isinstance(func, ast.Attribute):
        parts.append(func.attr)
        func = func.value
    if isinstance(func, ast.Name):
        parts.append(func.id)
        return ".".join(reversed(parts))
    return ""


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
