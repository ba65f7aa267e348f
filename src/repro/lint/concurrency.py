"""Concurrency rules (the threaded hand-off layer, ``repro.handoff``).

The hand-off prototype shares dispatcher state, statistics, and connection
tables across accept threads, handler pools, worker threads, heartbeat
monitors, and fault-injection timers.  These rules turn the locking
discipline into a checked declaration instead of a convention:

* ``guard-decl`` — any class that creates a :mod:`threading` lock must
  declare ``__guarded_by__``: a dict literal mapping each shared-mutable
  attribute to the lock (or locks) that protect it.  Helper methods that
  require the caller to already hold a lock are listed in
  ``__locked_helpers__`` — the declaration *is* the documentation.
* ``unguarded-write`` — an assignment (plain, augmented, or through a
  subscript, including ``self.stats.counter += 1``) to a declared
  attribute outside ``__init__`` must sit lexically inside
  ``with self.<declared lock>:``.
* ``lock-order`` — when lock acquisitions nest, the nesting must follow
  the hierarchy declared in the package's ``locks.py``
  (:data:`repro.handoff.locks.LOCK_HIERARCHY`, outermost first).  A
  consistent global order is the classic deadlock-freedom argument.
* ``blocking-call-in-lock`` — no blocking call (socket I/O, connect,
  ``time.sleep``, thread joins, queue puts) while holding a lock: a slow
  or dead peer must never be able to wedge the dispatcher.  Waiting on
  the held lock's own condition variable is allowed — that releases it.
"""

from __future__ import annotations

import ast
from typing import List, Sequence, Set, Tuple

from .context import ClassScan, FileContext, call_chain, self_attribute_root

__all__ = ["RULES", "check"]

RULES: Tuple[str, ...] = (
    "guard-decl",
    "unguarded-write",
    "lock-order",
    "blocking-call-in-lock",
)

_BLOCKING_METHODS = frozenset(
    {
        "recv",
        "recv_into",
        "recvfrom",
        "accept",
        "connect",
        "connect_ex",
        "send",
        "sendall",
        "sendto",
        "sleep",
        "join",
        "put",
        "select",
        "create_connection",
    }
)
#: Methods of the *held* lock itself that are exempt: Condition.wait
#: releases the lock while blocked, and notify/notify_all never block.
_HELD_LOCK_METHODS = frozenset({"wait", "wait_for", "notify", "notify_all"})


def _with_lock_names(node: ast.With, lock_attrs: Set[str]) -> List[str]:
    """Locks acquired by one ``with`` statement (``with self.<lock>:``)."""
    names: List[str] = []
    for item in node.items:
        expr = item.context_expr
        # Allow `with self._lock:` and `with self._cond: ...` forms; a
        # `.acquire()` call is not a scoped hold and is not credited.
        if (
            isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
            and expr.value.id == "self"
            and expr.attr in lock_attrs
        ):
            names.append(expr.attr)
    return names


def _check_method(ctx: FileContext, info: ClassScan, method: ast.FunctionDef) -> None:
    hierarchy = ctx.lock_hierarchy

    def visit(node: ast.AST, held: Tuple[str, ...]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return  # nested callables run later, under their caller's locks
        if isinstance(node, ast.With):
            acquired = _with_lock_names(node, info.lock_attrs)
            for lock in acquired:
                if held:
                    _check_order(ctx, node, held[-1], lock, hierarchy)
                held = held + (lock,)
            for child in node.body:
                visit(child, held)
            return
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                attr = self_attribute_root(target)
                locks = info.guarded.get(attr)
                if locks is not None and not set(locks) & set(held):
                    ctx.report(
                        node,
                        "unguarded-write",
                        f"write to {info.node.name}.{attr} outside "
                        f"'with self.{locks[0]}' (declared in __guarded_by__); "
                        "hold the lock, or list the method in __locked_helpers__",
                    )
        if isinstance(node, ast.Call) and held:
            _check_blocking(ctx, node, held)
        for child in ast.iter_child_nodes(node):
            visit(child, held)

    for stmt in method.body:
        visit(stmt, ())


def _check_order(
    ctx: FileContext,
    node: ast.AST,
    outer: str,
    inner: str,
    hierarchy: Sequence[str],
) -> None:
    if inner == outer:
        return  # re-entering the same (R)Lock; not an ordering question
    if not hierarchy:
        ctx.report(
            node,
            "lock-order",
            f"nested acquisition {outer} -> {inner} but no LOCK_HIERARCHY is "
            "declared in this package's locks.py",
        )
        return
    missing = [name for name in (outer, inner) if name not in hierarchy]
    if missing:
        ctx.report(
            node,
            "lock-order",
            f"lock(s) {', '.join(missing)} are not in the declared "
            "LOCK_HIERARCHY; add them in acquisition order",
        )
        return
    if hierarchy.index(outer) >= hierarchy.index(inner):
        ctx.report(
            node,
            "lock-order",
            f"acquiring {inner} while holding {outer} violates the declared "
            f"hierarchy ({' -> '.join(hierarchy)})",
        )


def _check_blocking(ctx: FileContext, node: ast.Call, held: Tuple[str, ...]) -> None:
    func = node.func
    if isinstance(func, ast.Attribute):
        method = func.attr
        if method not in _BLOCKING_METHODS and method not in _HELD_LOCK_METHODS:
            return
        receiver = func.value
        # Condition-variable operations on a lock we hold are exempt.
        if (
            isinstance(receiver, ast.Attribute)
            and isinstance(receiver.value, ast.Name)
            and receiver.value.id == "self"
            and receiver.attr in held
        ):
            return
        if method in _HELD_LOCK_METHODS:
            return  # wait/notify on something we don't hold: not blocking I/O
        # str.join / b"".join on literals is string plumbing, not blocking.
        if method == "join" and isinstance(receiver, (ast.Constant, ast.JoinedStr)):
            return
        chain = call_chain(func) or method
        ctx.report(
            node,
            "blocking-call-in-lock",
            f"blocking call {chain}() while holding lock(s) "
            f"{', '.join(held)}; a slow peer could wedge every thread "
            "waiting on the lock",
        )


def check(ctx: FileContext) -> None:
    """Run every concurrency rule over ``ctx``."""
    for info in ctx.scan.all_classes:
        node = info.node
        for anchor, message in info.problems:
            ctx.report(anchor, "guard-decl", message)
        if info.lock_attrs and not info.declared:
            ctx.report(
                node,
                "guard-decl",
                f"class {node.name} creates lock(s) "
                f"{', '.join(sorted(info.lock_attrs))} but declares no "
                "__guarded_by__ mapping of shared attributes to locks",
            )
        for method in node.body:
            if not isinstance(method, ast.FunctionDef):
                continue
            if method.name == "__init__" or method.name in info.locked_helpers:
                continue
            _check_method(ctx, info, method)
