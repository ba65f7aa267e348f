"""Interprocedural lockset verification.

The per-file concurrency rules *trust* ``__locked_helpers__``: a method
named there may write guarded attributes without a lexical ``with``
because its callers promise to hold the lock.  This pass verifies the
promise across function and module boundaries:

* ``unverified-locked-helper`` — every real call site of a declared
  lock-held helper must lexically hold one of the locks documenting the
  guarded attributes the helper writes.  Calls from other locked helpers
  of the same class (or a subclass) are exempt — their own call sites
  carry the obligation — as is ``__init__``, which runs before the
  object is shared.  A helper that writes guarded state but has *no*
  verifiable call site at all is flagged at its definition: nothing
  proves it is ever called under the documented lock.  Cross-object
  calls (``other._helper()``) are flagged too: a lexical ``with
  self._lock`` says nothing about *other*'s lock.

* ``cross-module-unguarded-write`` — a write through a foreign receiver
  (``backend.stats``, ``self.dispatcher._slots``) to an attribute some
  concurrency-scoped class declares in ``__guarded_by__`` must happen
  under ``with <receiver>.<declared lock>:``.  Matching is by attribute
  *name* (the receiver's class is not always derivable syntactically),
  which is deliberately conservative; a false positive on an unrelated
  same-named attribute takes a reasoned suppression.

Both rules only report in concurrency-scoped files (``repro.handoff``,
``repro.obs``); findings are suppressible like any other rule.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Mapping, Set, Tuple

from .callgraph import ClassSummary, FunctionSummary, ProjectSummary
from .findings import Finding

__all__ = ["RULES", "check"]

RULES: Tuple[str, ...] = ("unverified-locked-helper", "cross-module-unguarded-write")


def _helper_locks(cls: ClassSummary, helper: FunctionSummary) -> FrozenSet[str]:
    """Locks documenting the guarded attributes ``helper`` writes on self."""
    locks: Set[str] = set()
    for write in helper.writes:
        if write.base != "self":
            continue
        declared = cls.guarded.get(write.attr)
        if declared is not None:
            locks.update(declared)
    return frozenset(locks)


def _check_locked_helpers(
    project: ProjectSummary,
    scopes: Mapping[str, FrozenSet[str]],
    findings: List[Finding],
) -> None:
    for cls in sorted(project.classes.values(), key=lambda c: c.qualname):
        if not cls.locked_helpers:
            continue
        if "concurrency" not in scopes.get(cls.path, frozenset()):
            continue
        family = set(project.subclass_family(cls.qualname))
        declared = set(cls.locked_helpers)
        for helper_name in cls.locked_helpers:
            helper_qual = project.resolve_method(cls.qualname, helper_name)
            helper = (
                project.functions.get(helper_qual) if helper_qual is not None else None
            )
            if helper is None:
                findings.append(
                    Finding(
                        path=cls.path,
                        line=cls.line,
                        col=0,
                        rule="unverified-locked-helper",
                        message=(
                            f"__locked_helpers__ declares {helper_name!r} but "
                            f"{cls.name} defines no such method"
                        ),
                    )
                )
                continue
            required = _helper_locks(cls, helper)
            verified_sites = 0
            for caller in project.functions.values():
                for site in caller.calls:
                    if site.is_ref or site.callee != helper_qual:
                        continue
                    same_object = site.receiver == "self" and caller.cls in family
                    if same_object and (
                        caller.name in declared or caller.name == "__init__"
                    ):
                        continue  # obligation sits with *their* callers
                    if not required:
                        verified_sites += 1
                        continue
                    if same_object and set(site.held) & required:
                        verified_sites += 1
                        continue
                    findings.append(
                        Finding(
                            path=caller.path,
                            line=site.line,
                            col=site.col,
                            rule="unverified-locked-helper",
                            message=(
                                f"call to lock-held helper {cls.name}."
                                f"{helper_name}() does not hold any of "
                                f"{sorted(required)}"
                                + (
                                    ""
                                    if same_object
                                    else " (cross-object call: the caller's "
                                    "lexical locks belong to a different "
                                    "instance)"
                                )
                            ),
                        )
                    )
            if required and verified_sites == 0 and not _has_any_site(
                project, helper_qual
            ):
                findings.append(
                    Finding(
                        path=helper.path,
                        line=helper.line,
                        col=0,
                        rule="unverified-locked-helper",
                        message=(
                            f"{cls.name}.{helper_name}() writes guarded state "
                            f"({sorted(required)} documented) but no call site "
                            "holding the lock was found"
                        ),
                    )
                )


def _has_any_site(project: ProjectSummary, helper_qual: str) -> bool:
    for caller in project.functions.values():
        for site in caller.calls:
            if not site.is_ref and site.callee == helper_qual:
                return True
    return False


def _guarded_attr_index(
    project: ProjectSummary, scopes: Mapping[str, FrozenSet[str]]
) -> Dict[str, List[ClassSummary]]:
    """attr name -> concurrency-scoped classes declaring it guarded."""
    index: Dict[str, List[ClassSummary]] = {}
    for cls in sorted(project.classes.values(), key=lambda c: c.qualname):
        if "concurrency" not in scopes.get(cls.path, frozenset()):
            continue
        for attr in cls.guarded:
            index.setdefault(attr, []).append(cls)
    return index


def _check_cross_writes(
    project: ProjectSummary,
    scopes: Mapping[str, FrozenSet[str]],
    findings: List[Finding],
) -> None:
    index = _guarded_attr_index(project, scopes)
    if not index:
        return
    for func in project.functions.values():
        if "concurrency" not in scopes.get(func.path, frozenset()):
            continue
        for write in func.writes:
            # Own-instance writes belong to the per-file unguarded-write
            # rule (which knows the class's own declarations).
            if write.base in ("self", ""):
                continue
            owners = index.get(write.attr)
            if owners is None:
                continue
            # A receiver whose class is derivable and is *not* one of the
            # declaring classes (or their subclasses) merely shares the
            # attribute name — e.g. FrontEndStats.failovers vs the
            # Dispatcher's guarded failovers counter.  Unknown receiver
            # types stay conservative.
            if write.base_cls:
                families: Set[str] = set()
                for cls in owners:
                    families.update(project.subclass_family(cls.qualname))
                if write.base_cls not in families:
                    continue
            declared_locks = {
                lock for cls in owners for lock in cls.guarded[write.attr]
            }
            held_for_base = {attr for base, attr in write.held_ext if base == write.base}
            if held_for_base & declared_locks:
                continue
            owner_names = ", ".join(cls.name for cls in owners)
            findings.append(
                Finding(
                    path=func.path,
                    line=write.line,
                    col=write.col,
                    rule="cross-module-unguarded-write",
                    message=(
                        f"write to {write.base}.{write.attr} (guarded state of "
                        f"{owner_names}) without holding "
                        f"`with {write.base}.<{ '|'.join(sorted(declared_locks)) }>:`"
                    ),
                )
            )


def check(
    project: ProjectSummary, scopes: Mapping[str, FrozenSet[str]]
) -> List[Finding]:
    """All lockset-verification findings for the project."""
    findings: List[Finding] = []
    _check_locked_helpers(project, scopes, findings)
    _check_cross_writes(project, scopes, findings)
    return findings
