"""lardlint: per-rule fixtures, suppression machinery, and the self-check.

Each rule has a positive fixture (the rule fires) and a negative fixture
(the disciplined counterpart stays clean) under ``tests/lint_fixtures/``;
whole-program rules use fixture *directories* (``proj_*``) linted via
``lint_paths``.  Fixtures pin their rule families with a
``# lardlint: scope=...`` directive because they live outside the
``repro`` package tree.
"""

import json
from pathlib import Path

import pytest

import repro
from repro.cli import main as cli_main
from repro.lint import ALL_RULES, lint_file, lint_paths, main as lint_main
from repro.lint.runner import _repro_package
from tests.seeded_mutation import assert_selected_tests_fail

FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"
REPO_ROOT = Path(__file__).resolve().parent.parent
REPRO_PACKAGE = Path(repro.__file__).resolve().parent


def rules_of(name):
    return [finding.rule for finding in lint_file(FIXTURES / name)]


def project_rules_of(name):
    return [finding.rule for finding in lint_paths([FIXTURES / name])]


# -- determinism ---------------------------------------------------------------


def test_determinism_positive_fixture_trips_every_rule():
    assert set(rules_of("det_bad.py")) == {
        "wall-clock",
        "global-random",
        "set-iteration",
        "mutable-default",
        "raw-heapq",
        "event-queue",
    }


def test_determinism_negative_fixture_is_clean():
    assert rules_of("det_good.py") == []


def test_aliased_heapq_import_is_raw_heapq():
    assert rules_of("det_heapq_alias.py") == ["raw-heapq"]


# -- concurrency ---------------------------------------------------------------


def test_lock_without_guard_declaration_is_flagged():
    assert rules_of("conc_guard_missing.py") == ["guard-decl"]


def test_write_outside_declared_lock_is_flagged_once():
    assert rules_of("conc_unguarded.py") == ["unguarded-write"]


def test_nested_acquisition_against_hierarchy_is_flagged():
    assert rules_of("conc_order_bad.py") == ["lock-order"]


def test_blocking_call_under_lock_is_flagged():
    assert rules_of("conc_blocking.py") == ["blocking-call-in-lock"]


def test_disciplined_locking_fixture_is_clean():
    assert rules_of("conc_good.py") == []


def test_aliased_threading_lock_needs_guard_decl():
    assert rules_of("conc_lock_alias.py") == ["guard-decl"]


def test_aliased_lock_in_nested_class_needs_guard_decl():
    assert rules_of("conc_lock_nested.py") == ["guard-decl"]


#: The import table's two binding lines; ignoring ``as`` in both makes
#: ``import threading as th`` bind ``threading`` and ``from heapq import
#: heappush as hp`` bind ``heappush``, so ``th.Lock()`` and ``hp()`` go
#: unseen.
_IMPORT_TABLE_BINDINGS = (
    '                self.modules[alias.asname or alias.name.split(".")[0]] = alias.name\n'
    "        for node in scan.nodes(ast.ImportFrom):\n"
    "            base = _import_base(scan.package, node)\n"
    "            if base is None:\n"
    "                continue\n"
    "            for alias in node.names:\n"
    "                self.symbols[alias.asname or alias.name] = (base, alias.name)\n"
)


def test_import_table_ignoring_as_names_is_caught(tmp_path):
    assert_selected_tests_fail(
        tmp_path,
        "lint/context.py",
        _IMPORT_TABLE_BINDINGS,
        _IMPORT_TABLE_BINDINGS.replace("alias.asname or ", ""),
        __file__,
        "aliased",
    )


# -- hygiene -------------------------------------------------------------------


def test_hygiene_positive_fixture():
    assert set(rules_of("hyg_bad.py")) == {"bare-except", "runtime-assert"}


def test_hygiene_negative_fixture_allows_reraising_handler():
    assert rules_of("hyg_good.py") == []


# -- suppressions --------------------------------------------------------------


def test_reasoned_suppression_silences_the_rule():
    assert rules_of("sup_reasoned.py") == []


def test_suppression_without_reason_is_reported_and_does_not_apply():
    assert sorted(rules_of("sup_missing_reason.py")) == [
        "bad-suppression",
        "runtime-assert",
    ]


def test_suppression_of_unknown_rule_is_reported():
    assert rules_of("sup_unknown_rule.py") == ["bad-suppression"]


def test_reasoned_file_wide_suppression():
    assert rules_of("sup_file_wide.py") == []


def test_multi_rule_disable_list_silences_every_listed_rule():
    assert project_rules_of("sup_multi.py") == []


def test_suppressing_a_rule_outside_its_scope_is_valid_and_inert():
    # wall-clock never runs in a hygiene-only file; the directive names a
    # known rule, so it is not a bad-suppression either.
    assert project_rules_of("sup_out_of_scope.py") == []


def test_bad_suppression_is_itself_unsuppressible():
    assert "bad-suppression" not in ALL_RULES


def test_unparseable_file_reports_parse_error():
    findings = lint_file(FIXTURES / "bad_syntax.py")
    assert [finding.rule for finding in findings] == ["parse-error"]


def test_finding_format_is_path_line_col_rule():
    finding = lint_file(FIXTURES / "hyg_bad.py")[0]
    text = finding.format()
    assert text.startswith(f"{FIXTURES / 'hyg_bad.py'}:")
    assert f" {finding.rule}: " in text


# -- whole-program rule fixtures -----------------------------------------------


def test_transitive_nondeterminism_fires_across_modules_with_chain():
    findings = lint_paths([FIXTURES / "proj_taint_bad"])
    assert {f.rule for f in findings} == {"transitive-nondeterminism"}
    chained = [f for f in findings if "stamp -> " in f.message]
    assert chained, "expected a multi-hop witness chain in the message"
    assert "-> time.time()" in chained[0].message


def test_taint_follows_a_stage_function_read_off_the_class():
    """``self.stage = cls._stage`` (or ``type(self)._stage``) in
    ``__init__`` is a callback alias like ``self._stage``: a stage
    posted with its object reaches what the stage calls."""
    findings = lint_paths([FIXTURES / "proj_stage_taint"])
    assert {f.rule for f in findings} == {"transitive-nondeterminism"}
    assert sorted(f.message.split(": ")[1] for f in findings) == [
        "stage_util.Conn._tick -> time.time()",
        "stage_util.Conn._tock -> time.time()",
    ]


def test_transitive_nondeterminism_source_suppression_silences_cone():
    assert project_rules_of("proj_taint_good") == []


def test_unverified_locked_helper_and_cross_write_fire():
    rules = project_rules_of("proj_lock_bad")
    assert rules.count("unverified-locked-helper") == 2  # bad site + phantom helper
    assert rules.count("cross-module-unguarded-write") == 1


def test_disciplined_lockset_corpus_is_clean():
    assert project_rules_of("proj_lock_good") == []


def test_rejected_guard_declaration_is_not_enforced():
    """``__guarded_by__`` naming a lock the class never creates is one
    guard-decl; no pass may then demand ``with box.<_lok>:``."""
    assert project_rules_of("proj_guard_unknown_lock") == ["guard-decl"]


def test_taint_sources_follow_the_set_iteration_rule():
    """``list(pool)`` is a set-iteration and so a taint source; the
    set-to-set comprehension is neither, so the ``evens()`` call at
    set_callers.py:9 stays clean."""
    findings = lint_paths([FIXTURES / "proj_set_iteration"])
    assert [(Path(f.path).name, f.line, f.rule) for f in findings] == [
        ("set_callers.py", 13, "transitive-nondeterminism"),
        ("set_pool.py", 13, "set-iteration"),
    ]


def test_taint_follows_a_package_init_reexport():
    """``from .clock import host_now`` in ``pkg/__init__.py`` reads
    ``pkg.clock``, so ``from pkg import host_now`` reaches the source."""
    findings = lint_paths([FIXTURES / "proj_init_reexport"])
    assert [(Path(f.path).name, f.line, f.rule) for f in findings] == [
        ("caller.py", 9, "transitive-nondeterminism"),
    ]
    assert findings[0].message.endswith("pkg.clock.host_now -> time.time()")


# -- every rule id has bad + good fixture coverage -----------------------------

RULE_FIXTURES = {
    "wall-clock": ("det_bad.py", "det_good.py"),
    "global-random": ("det_bad.py", "det_good.py"),
    "set-iteration": ("det_bad.py", "det_good.py"),
    "mutable-default": ("det_bad.py", "det_good.py"),
    "raw-heapq": ("det_bad.py", "det_good.py"),
    "event-queue": ("det_bad.py", "det_good.py"),
    "guard-decl": ("conc_guard_missing.py", "conc_good.py"),
    "unguarded-write": ("conc_unguarded.py", "conc_good.py"),
    "lock-order": ("conc_order_bad.py", "conc_good.py"),
    "blocking-call-in-lock": ("conc_blocking.py", "conc_good.py"),
    "bare-except": ("hyg_bad.py", "hyg_good.py"),
    "runtime-assert": ("hyg_bad.py", "hyg_good.py"),
    "transitive-nondeterminism": ("proj_taint_bad", "proj_taint_good"),
    "unverified-locked-helper": ("proj_lock_bad", "proj_lock_good"),
    "cross-module-unguarded-write": ("proj_lock_bad", "proj_lock_good"),
}


def test_every_rule_id_has_a_bad_and_good_fixture_pair():
    assert set(RULE_FIXTURES) == set(ALL_RULES)
    for rule, (bad, good) in sorted(RULE_FIXTURES.items()):
        assert rule in set(project_rules_of(bad)), f"{bad} does not trip {rule}"
        assert rule not in set(project_rules_of(good)), f"{good} trips {rule}"


# -- scope classification ------------------------------------------------------


def test_repro_package_anchors_on_package_root(tmp_path):
    # A path component literally named "repro" that is not a package must
    # not classify the file (the pre-fix behavior keyed off path names).
    decoy = tmp_path / "home" / "repro" / "project"
    decoy.mkdir(parents=True)
    stray = decoy / "utils.py"
    stray.write_text("x = 1\n")
    assert _repro_package(stray) == ""

    # A real repro package under a decoy-bearing checkout prefix.
    pkg = tmp_path / "repro-x" / "src" / "repro"
    (pkg / "sim").mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "sim" / "__init__.py").write_text("")
    nested = pkg / "sim" / "engine_copy.py"
    nested.write_text("x = 1\n")
    assert _repro_package(nested) == "sim"
    top = pkg / "cli_copy.py"
    top.write_text("x = 1\n")
    assert _repro_package(top) == ""


# -- the self-check: the tree must lint clean ----------------------------------


def test_repro_package_lints_clean():
    paths = [REPRO_PACKAGE, REPO_ROOT / "scripts", REPO_ROOT / "examples"]
    assert lint_paths(paths) == []


# -- CLI entry points ----------------------------------------------------------


def test_lint_main_exit_codes(capsys):
    assert lint_main(["--list-rules"]) == 0
    assert lint_main([str(FIXTURES / "det_good.py")]) == 0
    assert lint_main([str(FIXTURES / "det_bad.py")]) == 1
    out = capsys.readouterr().out
    assert "wall-clock" in out


def test_cli_lint_subcommand(capsys):
    assert cli_main(["lint", str(FIXTURES / "hyg_good.py")]) == 0
    assert cli_main(["lint", str(FIXTURES / "hyg_bad.py")]) == 1
    assert cli_main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    assert "runtime-assert" in out


def test_lint_format_json(capsys):
    assert lint_main([str(FIXTURES / "hyg_bad.py"), "--format=json"]) == 1
    records = json.loads(capsys.readouterr().out)
    assert {"path", "line", "col", "rule", "message"} <= set(records[0])
    assert any(record["rule"] == "bare-except" for record in records)


def test_lint_format_github_annotations(capsys):
    assert cli_main(["lint", str(FIXTURES / "hyg_bad.py"), "--format=github"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("::error file=")
    assert "title=lardlint bare-except::" in out


def test_lint_statistics(capsys):
    assert lint_main([str(FIXTURES / "det_good.py"), "--statistics"]) == 0
    err = capsys.readouterr().err
    assert "1 files" in err and "call edges; parse" in err
