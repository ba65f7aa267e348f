"""Twin-drift auditing (rule ``twin-drift``).

The tree keeps one *twin* implementation that must stay semantically
identical to its counterpart: ``Engine._run_sanitized`` mirrors
``Engine.run`` (the per-event invariant hook stays off the unsanitized
hot loop).  Runtime byte-identity tests catch drift only for the configs
they happen to run; this pass makes "edit one loop, forget the other" a
merge-blocking static finding.

A module declares its twins with a module-level literal::

    __twin_of__ = {
        "Engine._run_sanitized": "repro.sim.engine.Engine.run",
    }

mapping a local qualname to the fully-qualified counterpart.  For each
pair the pass takes the call-graph closure of both sides — following
call *and* callback-reference edges within the declaring module, and
never into the counterpart itself — and distils it to an **effect
skeleton**: the set of attribute writes whose names appear in the
audited vocabulary below.  A name one skeleton has and the other lacks
is drift.

The vocabulary is explicit and curated rather than "every name seen":
twins legitimately differ in *mechanism* (the sanitized loop keeps a
hook reference the plain one does not), and auditing mechanism names
would make every rewrite a false positive.  What must never drift
silently is the state the rest of the simulator observes — the clock,
the stop flag, the dispatch count — and that is what the vocabulary
pins.
"""

from __future__ import annotations

from typing import FrozenSet, List, Mapping, Set, Tuple

from .callgraph import ProjectSummary
from .findings import Finding

__all__ = ["RULES", "WRITE_VOCAB", "check"]

RULES: Tuple[str, ...] = ("twin-drift",)

_RULE = "twin-drift"

#: Attribute writes that are part of a twin's observable effect set.
WRITE_VOCAB: FrozenSet[str] = frozenset({"now", "_stopped", "events_dispatched"})


def _closure_effects(
    project: ProjectSummary,
    root: str,
    counterpart: str,
) -> FrozenSet[str]:
    """Vocabulary-filtered writes of ``root``'s same-module closure,
    never entering ``counterpart``."""
    module = project.functions[root].module
    effects: Set[str] = set()
    seen: Set[str] = {counterpart}
    frontier = [root]
    while frontier:
        qual = frontier.pop()
        if qual in seen:
            continue
        seen.add(qual)
        func = project.functions.get(qual)
        if func is None or func.module != module:
            continue
        effects.update(w.attr for w in func.writes if w.attr in WRITE_VOCAB)
        frontier.extend(site.callee for site in func.calls)
    return frozenset(effects)


def _describe(effects: FrozenSet[str]) -> str:
    return ", ".join(f"write:{name}" for name in sorted(effects))


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
