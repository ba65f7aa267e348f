"""Twin-drift auditing (rule ``twin-drift``).

The tree keeps four *twin* implementations that must stay semantically
identical: ``FastPath.admit`` and ``FastConnection._begin`` (the
flattened state machine) mirror ``FrontEnd._admit`` and
``FrontEnd._connection`` (the generator lifecycle),
``FrontEnd._connection_faulty`` wraps a retry loop around
``FrontEnd._connection``, and ``Engine._run_sanitized`` mirrors
``Engine.run``.  Runtime byte-identity tests
catch drift only for the configs they happen to run; this pass makes
"edit one twin, forget the other" a merge-blocking static finding.

A module declares its twins with a module-level literal::

    __twin_of__ = {
        "FastPath.admit": "repro.cluster.frontend.FrontEnd._admit",
    }

mapping a local qualname to the fully-qualified counterpart.  For each
pair the pass takes the call-graph closure of both sides — following
call *and* callback-reference edges, but only into modules of the same
``repro`` sub-package (a cluster-rooted closure records ``schedule`` as
a call token without descending into ``repro.sim``), and never into the
counterpart itself (or the counterpart's whole module when the twins
live in different modules, so each side's closure is genuinely *its*
implementation).  Each closure is then distilled to an **effect
skeleton**: the set of guarded-state/accounting attribute writes and
resource/completion calls whose names appear in the audited vocabulary
below.  A name one skeleton has and the other lacks is drift.

The vocabulary is explicit and curated rather than "every name seen":
twins legitimately differ in *mechanism* (the fastpath inlines
``Resource`` bookkeeping that the generator path performs inside
``repro.sim``; only the persistent-connection path can re-handoff), and
auditing mechanism names would make every rewrite a false positive.
What must never drift silently is the externally observable effect set
— cache/disk/GMS counters, request accounting, scheduling state — and
that is what the vocabulary pins.
"""

from __future__ import annotations

from typing import FrozenSet, List, Mapping, Set, Tuple

from .callgraph import ProjectSummary
from .findings import Finding

__all__ = ["RULES", "WRITE_VOCAB", "CALL_VOCAB", "check"]

RULES: Tuple[str, ...] = ("twin-drift",)

_RULE = "twin-drift"

#: Attribute writes that are part of a twin's observable effect set.
WRITE_VOCAB: FrozenSet[str] = frozenset(
    {
        # cache / storage counters
        "cache_hits",
        "cache_misses",
        "disk_reads",
        "coalesced_reads",
        "gms_local_hits",
        "gms_remote_hits",
        # request accounting
        "requests_served",
        "bytes_served",
        "completed",
        "connections",
        "in_flight",
        "orphaned",
        "total_delay_s",
        "per_node_dispatches",
        "per_node_delay_s",
        "per_node_completions",
        "timeline",
        # scheduling / engine state
        "_pending",
        "now",
        "_stopped",
        "events_dispatched",
    }
)

#: Call tokens that are part of a twin's observable effect set.
CALL_VOCAB: FrozenSet[str] = frozenset(
    {
        "choose",
        "on_dispatch",
        "on_complete",
        "access",
        "trigger",
        "age",
        "clear",
        "drop_node",
        "on_node_failure",
        "on_node_join",
        "reset_node",
    }
)


def _closure_effects(
    project: ProjectSummary,
    root: str,
    counterpart: str,
) -> FrozenSet[Tuple[str, str]]:
    """Vocabulary-filtered effect set of ``root``'s same-package closure,
    never entering ``counterpart`` (nor its module, when foreign)."""
    root_func = project.functions[root]
    root_module = root_func.module
    root_pkg_summary = project.modules.get(root_module)
    root_package = root_pkg_summary.package if root_pkg_summary is not None else ""
    other = project.functions.get(counterpart)
    excluded_module = (
        other.module if other is not None and other.module != root_module else None
    )
    effects: Set[Tuple[str, str]] = set()
    seen: Set[str] = set()
    frontier = [root]
    while frontier:
        qual = frontier.pop()
        if qual in seen:
            continue
        seen.add(qual)
        func = project.functions.get(qual)
        if func is None:
            continue
        for kind, name in func.effects:
            vocab = WRITE_VOCAB if kind == "write" else CALL_VOCAB
            if name in vocab:
                effects.add((kind, name))
        for site in func.calls:
            callee = site.callee
            if callee == counterpart or callee in seen:
                continue
            callee_func = project.functions.get(callee)
            if callee_func is None:
                continue
            if excluded_module is not None and callee_func.module == excluded_module:
                continue
            callee_summary = project.modules.get(callee_func.module)
            callee_package = (
                callee_summary.package if callee_summary is not None else ""
            )
            if callee_func.module != root_module and callee_package != root_package:
                continue  # foreign package: the call token above suffices
            frontier.append(callee)
    return frozenset(effects)


def _describe(effects: FrozenSet[Tuple[str, str]]) -> str:
    return ", ".join(f"{kind}:{name}" for kind, name in sorted(effects))


def check(
    project: ProjectSummary, scopes: Mapping[str, FrozenSet[str]]
) -> List[Finding]:
    """All ``twin-drift`` findings for the project's declared twins."""
    findings: List[Finding] = []
    for module_name in sorted(project.modules):
        module = project.modules[module_name]
        if "determinism" not in scopes.get(module.path, frozenset()):
            continue
        for local, (target, line) in sorted(module.twins.items()):
            root = f"{module_name}.{local}"
            missing = [q for q in (root, target) if q not in project.functions]
            if missing:
                findings.append(
                    Finding(
                        path=module.path,
                        line=line,
                        col=0,
                        rule=_RULE,
                        message=(
                            "__twin_of__ names unresolvable function(s): "
                            + ", ".join(sorted(missing))
                        ),
                    )
                )
                continue
            ours = _closure_effects(project, root, target)
            theirs = _closure_effects(project, target, root)
            if ours == theirs:
                continue
            gained = ours - theirs
            lost = theirs - ours
            pieces: List[str] = []
            if gained:
                pieces.append(f"{root} has {{{_describe(gained)}}} missing from twin")
            if lost:
                pieces.append(f"twin {target} has {{{_describe(lost)}}} missing here")
            findings.append(
                Finding(
                    path=module.path,
                    line=line,
                    col=0,
                    rule=_RULE,
                    message=(
                        f"effect skeletons of {root} and its declared twin "
                        f"{target} drifted: " + "; ".join(pieces)
                    ),
                )
            )
    return findings
