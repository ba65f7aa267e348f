"""Determinism rules (simulator-facing packages).

The simulator's contract is *identical trace in, identical metrics out*;
these rules ban the constructs that silently break it:

* ``wall-clock`` — calls into :mod:`time`/:mod:`datetime` make results
  depend on the host's clock instead of the simulated one.
* ``global-random`` — the module-level :mod:`random` functions (and
  numpy's legacy ``np.random.*`` globals) share interpreter-wide state;
  only explicitly seeded generator objects (``random.Random(seed)``,
  ``np.random.default_rng(seed)``) are reproducible.
* ``set-iteration`` — iterating an unordered ``set`` lets hash order (which
  varies across processes for str keys) reach event scheduling.  Iterate
  ``sorted(...)`` or an ordered container instead.  Order-insensitive
  consumers (``min``/``max``/``sorted``/``any``/``len``/set-to-set
  comprehensions) are not flagged.
* ``mutable-default`` — a mutable default argument carries state between
  calls, so a second simulation in the same process diverges from a fresh
  one.
* ``raw-heapq`` — event timestamps are floats; pushing them into a heap
  without the engine's ``(time, seq)`` insertion-order tie-break makes
  same-time events pop in float-comparison (i.e. accumulation-noise)
  order.  All event queues go through :class:`repro.sim.engine.Engine`;
  non-event heaps (the cache credit heaps) carry their own seq tie-break
  and say so with a documented suppression.
* ``event-queue`` — reaching into another object's event-queue internals
  (``engine._queue``, ``engine._nowq``) bypasses the sequence counter
  and the same-instant staging discipline entirely: an entry inserted
  behind the engine's back carries no fresh seq, so ties resolve
  arbitrarily and byte-identical reruns break.  Only
  :mod:`repro.sim.engine` may touch these (its own accesses are
  ``self.``-rooted and exempt); everyone else schedules through
  ``Engine.schedule``/``schedule_at``.
"""

from __future__ import annotations

import ast
from typing import Dict, Set, Tuple

from .context import FileContext, call_chain

__all__ = ["RULES", "check"]

RULES: Tuple[str, ...] = (
    "wall-clock",
    "global-random",
    "set-iteration",
    "mutable-default",
    "raw-heapq",
    "event-queue",
)

#: Engine event-queue internals owned by repro.sim.engine.
#: Accessing them through any expression other than ``self`` means some
#: outside code is manipulating an engine's queue directly.
_EVENT_QUEUE_ATTRS = frozenset({"_queue", "_nowq"})

_TIME_FUNCTIONS = frozenset(
    {
        "time",
        "time_ns",
        "monotonic",
        "monotonic_ns",
        "perf_counter",
        "perf_counter_ns",
        "process_time",
        "process_time_ns",
        "localtime",
        "gmtime",
    }
)
_DATETIME_FUNCTIONS = frozenset({"now", "utcnow", "today"})
_RANDOM_SAFE = frozenset({"Random", "SystemRandom"})
_NP_RANDOM_SAFE = frozenset(
    {"default_rng", "Generator", "SeedSequence", "BitGenerator", "PCG64", "Philox"}
)


class _Imports:
    """Module aliases and from-imports that the call rules key off."""

    def __init__(self, tree: ast.Module) -> None:
        self.modules: Dict[str, str] = {}  # local alias -> real module name
        self.from_time: Set[str] = set()  # local names bound to time.* functions
        self.from_random: Set[str] = set()
        self.datetime_class: Set[str] = set()  # local names bound to datetime.datetime
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.modules[alias.asname or alias.name.split(".")[0]] = alias.name
            elif isinstance(node, ast.ImportFrom) and node.module is not None:
                for alias in node.names:
                    local = alias.asname or alias.name
                    if node.module == "time" and alias.name in _TIME_FUNCTIONS:
                        self.from_time.add(local)
                    elif node.module == "random" and alias.name not in _RANDOM_SAFE:
                        self.from_random.add(local)
                    elif node.module == "datetime" and alias.name == "datetime":
                        self.datetime_class.add(local)

    def module_of(self, alias: str) -> str:
        return self.modules.get(alias, "")


def _is_set_expr(node: ast.expr, set_names: Set[str]) -> bool:
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


def _collect_set_names(func: ast.AST) -> Set[str]:
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
    return names


def _check_calls(ctx: FileContext, imports: _Imports) -> None:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        chain = call_chain(node.func)
        if not chain:
            continue
        parts = chain.split(".")
        root_module = imports.module_of(parts[0])
        # wall-clock ---------------------------------------------------------
        if root_module == "time" and len(parts) == 2 and parts[1] in _TIME_FUNCTIONS:
            ctx.report(
                node,
                "wall-clock",
                f"call to {chain}() reads the host clock; simulator code must "
                "use the engine's simulated time",
            )
        elif len(parts) == 1 and parts[0] in imports.from_time:
            ctx.report(
                node,
                "wall-clock",
                f"call to {parts[0]}() (imported from time) reads the host clock",
            )
        elif (
            root_module == "datetime"
            and len(parts) == 3
            and parts[1] == "datetime"
            and parts[2] in _DATETIME_FUNCTIONS
        ) or (
            len(parts) == 2
            and parts[0] in imports.datetime_class
            and parts[1] in _DATETIME_FUNCTIONS
        ):
            ctx.report(
                node,
                "wall-clock",
                f"call to {chain}() reads the host clock; simulator code must "
                "use the engine's simulated time",
            )
        # global-random ------------------------------------------------------
        elif root_module == "random" and len(parts) == 2 and parts[1] not in _RANDOM_SAFE:
            ctx.report(
                node,
                "global-random",
                f"call to {chain}() uses the shared module-level RNG; pass a "
                "seeded random.Random instance instead",
            )
        elif len(parts) == 1 and parts[0] in imports.from_random:
            ctx.report(
                node,
                "global-random",
                f"call to {parts[0]}() (imported from random) uses the shared "
                "module-level RNG; pass a seeded random.Random instead",
            )
        elif (
            root_module == "numpy"
            and len(parts) == 3
            and parts[1] == "random"
            and parts[2] not in _NP_RANDOM_SAFE
        ):
            ctx.report(
                node,
                "global-random",
                f"call to {chain}() uses numpy's legacy global RNG; use "
                "np.random.default_rng(seed)",
            )
        # raw-heapq ----------------------------------------------------------
        elif root_module == "heapq" or (len(parts) == 1 and _from_heapq(ctx, parts[0])):
            ctx.report(
                node,
                "raw-heapq",
                f"call to {chain}(): float-keyed heaps need the engine's "
                "(time, seq) tie-break; schedule through repro.sim.Engine, or "
                "document the tie-break with a suppression",
            )


def _from_heapq(ctx: FileContext, name: str) -> bool:
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.ImportFrom) and node.module == "heapq":
            for alias in node.names:
                if (alias.asname or alias.name) == name:
                    return True
    return False


def _check_set_iteration(ctx: FileContext) -> None:
    # Recursive traversal so each statement is checked exactly once, with
    # the set-typed local names of its nearest enclosing function.
    def visit(node: ast.AST, set_names: Set[str]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = _collect_set_names(node)
            for child in ast.iter_child_nodes(node):
                visit(child, inner)
            return
        _check_one_iteration(ctx, node, set_names)
        for child in ast.iter_child_nodes(node):
            visit(child, set_names)

    visit(ctx.tree, set())


def _check_one_iteration(ctx: FileContext, node: ast.AST, set_names: Set[str]) -> None:
    message = (
        "iteration order over an unordered set can reach event scheduling; "
        "iterate sorted(...) or an ordered container"
    )
    if isinstance(node, ast.For) and _is_set_expr(node.iter, set_names):
        ctx.report(node.iter, "set-iteration", message)
    elif isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
        for gen in node.generators:
            if _is_set_expr(gen.iter, set_names):
                ctx.report(gen.iter, "set-iteration", message)
    elif (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("list", "tuple")
        and node.args
        and _is_set_expr(node.args[0], set_names)
    ):
        ctx.report(node, "set-iteration", message)


def _check_event_queue(ctx: FileContext) -> None:
    """Flag ``<expr>._queue`` / ``._nowq`` where the base expression is
    anything but ``self``.  A class's *own* attribute of the same name
    is a different namespace (e.g. a worker's thread-safe
    ``self._queue``), so self-rooted accesses stay clean; the engine
    module itself only ever uses self-rooted access."""
    for node in ast.walk(ctx.tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr in _EVENT_QUEUE_ATTRS
            and not (isinstance(node.value, ast.Name) and node.value.id == "self")
        ):
            ctx.report(
                node,
                "event-queue",
                f"direct access to an engine's {node.attr!r} bypasses the "
                "(time, seq) tie-break and the same-instant staging FIFO; "
                "schedule through Engine.schedule/schedule_at",
            )


def _check_mutable_defaults(ctx: FileContext) -> None:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            mutable = isinstance(default, (ast.List, ast.Dict, ast.Set)) or (
                isinstance(default, ast.Call)
                and isinstance(default.func, ast.Name)
                and default.func.id in ("list", "dict", "set", "bytearray")
            )
            if mutable:
                ctx.report(
                    default,
                    "mutable-default",
                    f"mutable default argument in {node.name}() is shared "
                    "between calls; default to None and construct inside",
                )


def check(ctx: FileContext) -> None:
    """Run every determinism rule over ``ctx``."""
    imports = _Imports(ctx.tree)
    _check_calls(ctx, imports)
    _check_set_iteration(ctx)
    _check_mutable_defaults(ctx)
    _check_event_queue(ctx)
