"""API-hygiene rules (applied repo-wide).

* ``bare-except`` — ``except:`` catches ``SystemExit`` and
  ``KeyboardInterrupt``, turning Ctrl-C into a swallowed event; name the
  exception (``except Exception:`` at minimum).  A bare handler whose
  body re-raises is allowed: it observes but does not swallow.
* ``runtime-assert`` — ``assert`` vanishes under ``python -O``, so using
  it to validate runtime state (arguments, invariants the caller can
  violate) makes the check optional.  Raise an explicit exception.
  ``assert`` stays legal in ``tests/`` — this rule only runs on ``src/``.
"""

from __future__ import annotations

import ast
from typing import Tuple

from .context import FileContext

__all__ = ["RULES", "check"]

RULES: Tuple[str, ...] = ("bare-except", "runtime-assert")


def _body_reraises(handler: ast.ExceptHandler) -> bool:
    for stmt in handler.body:
        if isinstance(stmt, ast.Raise) and stmt.exc is None:
            return True
    return False


def check(ctx: FileContext) -> None:
    """Run every hygiene rule over ``ctx``."""
    for handler in ctx.scan.nodes(ast.ExceptHandler):
        if handler.type is None and not _body_reraises(handler):
            ctx.report(
                handler,
                "bare-except",
                "bare 'except:' swallows SystemExit/KeyboardInterrupt; "
                "catch a named exception class",
            )
    for node in ctx.scan.nodes(ast.Assert):
        ctx.report(
            node,
            "runtime-assert",
            "assert is stripped under 'python -O'; raise an explicit "
            "exception for runtime validation",
        )
