"""Suppression and directive comments for lardlint.

Three directives, all carried in ordinary ``#`` comments:

* ``# lardlint: disable=rule-a,rule-b -- reason`` — suppress the named
  rules **on this line only**.  The reason is mandatory: a suppression
  without one is itself reported (``bad-suppression``), so every
  exception in the tree documents why it is safe.
* ``# lardlint: disable-file=rule-a -- reason`` — suppress the named
  rules for the whole file (e.g. the simulation engine legitimately owns
  the raw ``heapq`` event queue its own rule forbids elsewhere).
* ``# lardlint: scope=determinism,concurrency`` — force the rule scopes
  applied to this file, overriding the path-based defaults.  Used by the
  lint fixture corpus, which cannot live inside ``repro.sim``.

Comments are found with :mod:`tokenize`, so directives inside string
literals are never misread as suppressions.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from .findings import Finding

__all__ = ["Suppressions", "parse_suppressions"]

_DIRECTIVE_RE = re.compile(r"#\s*lardlint:\s*(?P<body>.*)$")
_DISABLE_RE = re.compile(
    r"^(?P<kind>disable|disable-file)\s*=\s*(?P<rules>[\w,\s-]+?)"
    r"(?:\s*--\s*(?P<reason>.*))?$"
)
_SCOPE_RE = re.compile(r"^scope\s*=\s*(?P<scopes>[\w,\s-]+)$")


@dataclass
class Suppressions:
    """Parsed directives for one file."""

    #: line -> rules suppressed on that line.
    by_line: Dict[int, Set[str]] = field(default_factory=dict)
    #: Rules suppressed for the whole file.
    file_wide: Set[str] = field(default_factory=set)
    #: Scopes forced by a ``scope=`` directive (None = use path defaults).
    forced_scopes: Optional[FrozenSet[str]] = None
    #: Malformed directives, reported as findings in their own right.
    errors: List[Finding] = field(default_factory=list)

    def is_suppressed(self, rule: str, line: int) -> bool:
        """Whether ``rule`` is silenced at ``line``."""
        if rule in self.file_wide:
            return True
        return rule in self.by_line.get(line, ())


def _split_names(raw: str) -> List[str]:
    return [name.strip() for name in raw.split(",") if name.strip()]


def parse_suppressions(
    source: str, path: str, known_rules: FrozenSet[str], known_scopes: FrozenSet[str]
) -> Suppressions:
    """Extract every lardlint directive from ``source``.

    Unknown rule names, unknown scopes, and reason-less suppressions all
    produce ``bad-suppression`` findings — a typo'd suppression that
    silently matched nothing would otherwise defeat the linter.
    """
    result = Suppressions()

    def bad(line: int, col: int, message: str) -> None:
        result.errors.append(
            Finding(path=path, line=line, col=col, rule="bad-suppression", message=message)
        )

    if "lardlint" not in source:
        return result  # every directive names lardlint; skip the costly tokenize
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, SyntaxError, IndentationError):
        return result  # the runner reports the parse failure separately
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        match = _DIRECTIVE_RE.search(token.string)
        if match is None:
            continue
        line, col = token.start
        body = match.group("body").strip()
        scope_match = _SCOPE_RE.match(body)
        if scope_match is not None:
            scopes = _split_names(scope_match.group("scopes"))
            unknown = [s for s in scopes if s not in known_scopes]
            if unknown or not scopes:
                bad(line, col, f"unknown scope(s) {unknown or body!r} in scope directive")
                continue
            result.forced_scopes = frozenset(scopes)
            continue
        disable_match = _DISABLE_RE.match(body)
        if disable_match is None:
            bad(line, col, f"unrecognized lardlint directive: {body!r}")
            continue
        reason = (disable_match.group("reason") or "").strip()
        if not reason:
            bad(
                line,
                col,
                "suppression without a reason; write "
                "'# lardlint: disable=<rule> -- <why this is safe>'",
            )
            continue
        rules = _split_names(disable_match.group("rules"))
        unknown = [r for r in rules if r not in known_rules]
        if unknown:
            bad(line, col, f"unknown rule(s) in suppression: {', '.join(unknown)}")
            continue
        if disable_match.group("kind") == "disable-file":
            result.file_wide.update(rules)
        else:
            result.by_line.setdefault(line, set()).update(rules)
    return result
