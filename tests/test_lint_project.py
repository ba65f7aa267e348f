"""Whole-program lardlint against the real tree: seeded mutations.

The acceptance bar for the interprocedural passes is not "fires on a
fixture" but "fires on the *tree* when someone makes the exact mistake
the pass exists for".  Each test copies ``src/repro`` to a temp dir,
applies one realistic mutation, and asserts the matching rule fires:

* deleting an effect from the sanitized run loop
                                            -> ``twin-drift``
* a transitive ``time.time()`` below ``Engine.run``
                                            -> ``transitive-nondeterminism``
* removing a lock acquisition around a declared helper call
                                            -> ``unverified-locked-helper``

A final test pins the twin audit's teeth: the one declared pair on the
real tree must resolve and compare *non-empty* effect skeletons, so the
clean lint run can never be an accident of a vacuous ∅ == ∅ comparison.
"""

import ast
import shutil
from pathlib import Path

import pytest

import repro
from repro.lint import lint_paths
from repro.lint import callgraph
from repro.lint.twins import _closure_effects

REPRO_PACKAGE = Path(repro.__file__).resolve().parent


@pytest.fixture()
def tree_copy(tmp_path):
    root = tmp_path / "repro"
    shutil.copytree(REPRO_PACKAGE, root)
    return root


def _mutate(root, relpath, old, new):
    target = root / relpath
    text = target.read_text(encoding="utf-8")
    assert old in text, f"mutation anchor not found in {relpath}"
    target.write_text(text.replace(old, new, 1), encoding="utf-8")


def test_unmutated_tree_copy_is_clean(tree_copy):
    # The relocated copy also exercises the package-root anchoring of
    # scope classification (tmp_path contains no directory named repro
    # above the package itself).
    assert lint_paths([tree_copy]) == []


def test_deleting_a_sanitized_loop_effect_yields_twin_drift(tree_copy):
    # The sanitized loop's dispatch count is its last statement.
    _mutate(
        tree_copy,
        "sim/engine.py",
        "            self._stopped = True\n"
        "            self.events_dispatched += dispatched\n"
        "\n"
        "    def stop(self)",
        "            self._stopped = True\n"
        "\n"
        "    def stop(self)",
    )
    findings = lint_paths([tree_copy])
    drift = [f for f in findings if f.rule == "twin-drift"]
    assert drift, f"expected twin-drift, got {[f.rule for f in findings]}"
    assert any("events_dispatched" in f.message for f in drift)


def test_transitive_wall_clock_below_engine_run_is_flagged_with_chain(tree_copy):
    _mutate(
        tree_copy,
        "sim/engine.py",
        '__all__ = ["Engine", "Process", "Delay", "SimulationError"]',
        '__all__ = ["Engine", "Process", "Delay", "SimulationError"]\n'
        "\n\n"
        "def _host_now():\n"
        "    import time as _t\n"
        "    return _t.time()\n"
        "\n\n"
        "def _tick_hook():\n"
        "    return _host_now()\n",
    )
    _mutate(
        tree_copy,
        "sim/engine.py",
        "        if self._sanitizer is not None:\n            return self._run_sanitized(until)",
        "        _tick_hook()\n"
        "        if self._sanitizer is not None:\n            return self._run_sanitized(until)",
    )
    findings = lint_paths([tree_copy])
    taint = [f for f in findings if f.rule == "transitive-nondeterminism"]
    assert taint, f"expected transitive-nondeterminism, got {[f.rule for f in findings]}"
    # The Engine.run call site must print the full witness chain.
    chains = [f.message for f in taint if "_tick_hook -> " in f.message]
    assert any("_host_now -> _t.time()" in message for message in chains)


def test_removing_lock_around_declared_helper_is_flagged(tree_copy):
    _mutate(
        tree_copy,
        "handoff/dispatcher.py",
        "        with self._lock:\n"
        "            node = self.policy.choose(target, size, now=time.monotonic())\n"
        "            if node != current_node:\n"
        "                self._release_load(current_node, target, size)",
        "        if True:\n"
        "            node = self.policy.choose(target, size, now=time.monotonic())\n"
        "            if node != current_node:\n"
        "                self._release_load(current_node, target, size)",
    )
    findings = lint_paths([tree_copy])
    rules = [f.rule for f in findings]
    assert "unverified-locked-helper" in rules, f"got {rules}"


def test_tree_twin_pairs_resolve_with_nonempty_identical_skeletons():
    units = []
    for path in sorted(REPRO_PACKAGE.rglob("*.py")):
        units.append((path, str(path), ast.parse(path.read_text(encoding="utf-8"))))
    project = callgraph.build_project(units, "test")
    pairs = 0
    for module in project.modules.values():
        for local, (target, _line) in module.twins.items():
            root = f"{module.module}.{local}"
            assert root in project.functions, root
            assert target in project.functions, target
            ours = _closure_effects(project, root, target)
            theirs = _closure_effects(project, target, root)
            assert ours, f"vacuous (empty) skeleton for {root}"
            assert ours == theirs, f"{root} drifted from {target}"
            pairs += 1
    # The sanitized run loop, and nothing else.
    assert pairs == 1
