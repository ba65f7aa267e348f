"""Declarative campaigns: spec validation, the one driver, determinism."""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.analysis.matrix import (
    BUILTIN_MATRICES,
    MATRIX_COLUMNS,
    MatrixSpec,
    Scenario,
    builtin_matrix,
    matrix_from_dict,
    run_matrix,
)
from repro.analysis.scaleout import SCALEOUT_COLUMNS, SCALEOUT_SCORECARD
from repro.analysis.sweep import write_csv
from repro.cli import main
from repro.core import PolicyError
from tests.seeded_mutation import assert_selected_tests_fail

GOLDEN = Path(__file__).parent / "golden"

#: A tiny two-scenario spec every test can afford to actually run.
TINY = {
    "name": "tiny",
    "policies": ["wrr", "lard"],
    "num_nodes": 2,
    "node_cache_bytes": 2**19,
    "scenarios": [
        {
            "name": "flash",
            "kind": "flash",
            "params": {
                "num_requests": 2000,
                "num_targets": 200,
                "total_bytes": 4 * 2**20,
            },
            "warmup_fraction": 0.25,
        },
        {
            "name": "cgi",
            "kind": "cgi",
            "params": {
                "num_requests": 2000,
                "num_targets": 200,
                "total_bytes": 4 * 2**20,
            },
            "warmup_fraction": 0.0,
        },
    ],
}


@pytest.fixture(autouse=True)
def _no_disk_cache(monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_CACHE", "0")


class TestSpecValidation:
    def test_from_dict_roundtrip(self):
        spec = matrix_from_dict(TINY)
        assert spec.name == "tiny"
        assert [s.name for s in spec.scenarios] == ["flash", "cgi"]
        assert spec.policies == ("wrr", "lard")

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ValueError, match="unknown keys: turbo"):
            matrix_from_dict(dict(TINY, turbo=True))

    def test_unknown_scenario_key_rejected(self):
        bad = dict(TINY, scenarios=[dict(TINY["scenarios"][0], speed=9)])
        with pytest.raises(ValueError, match="unknown keys: speed"):
            matrix_from_dict(bad)

    @pytest.mark.parametrize(
        "key", ["pod_d", "pod_replication", "num_nodes", "node_cache_bytes", "policy_seed"]
    )
    @pytest.mark.parametrize("value", [2.9, True, "3", None])
    def test_integer_fields_are_not_coerced(self, key, value):
        # int() used to turn 2.9 into 2, true into 1 and "3" into 3.
        with pytest.raises(ValueError, match=f"'{key}' must be an integer"):
            matrix_from_dict(dict(TINY, **{key: value}))

    def test_integer_fields_reach_the_spec(self):
        spec = matrix_from_dict(dict(TINY, pod_d=3, pod_replication=4))
        assert (spec.pod_d, spec.pod_replication) == (3, 4)

    def test_a_misspelt_generator_keyword_names_its_scenario(self):
        second = dict(TINY["scenarios"][1])
        second["params"] = dict(second["params"], num_request=2000)
        bad = dict(TINY, scenarios=[TINY["scenarios"][0], second])
        with pytest.raises(ValueError, match=r"^scenario 'cgi': .*'num_request'"):
            matrix_from_dict(bad)

    def test_a_missing_generator_keyword_names_its_scenario(self):
        params = dict(num_requests=100, num_targets=10, total_bytes=2**20)
        with pytest.raises(ValueError, match=r"^scenario 's': .*'zipf_alpha'"):
            Scenario(name="s", kind="synthetic", params=params)

    @pytest.mark.parametrize("keyword", ["scale", "name", "size_sigma"])
    def test_a_keyword_the_generator_does_not_take_is_refused(self, keyword):
        with pytest.raises(ValueError, match=f"'{keyword}'"):
            Scenario(name="x", kind="flash", params={keyword: 1})

    @pytest.mark.parametrize("value", ["0.5", True, None, [0.5]])
    def test_warmup_fraction_is_not_coerced(self, value):
        # float() used to turn "0.5" into 0.5 and true into 1.0.
        bad = dict(TINY, scenarios=[dict(TINY["scenarios"][0], warmup_fraction=value)])
        with pytest.raises(ValueError, match="'warmup_fraction' must be a number"):
            matrix_from_dict(bad)

    @pytest.mark.parametrize("value", [[["num_requests", 2000]], "num_requests=2000", None])
    def test_params_must_be_an_object(self, value):
        # dict() used to accept a list of pairs.
        bad = dict(TINY, scenarios=[dict(TINY["scenarios"][0], params=value)])
        with pytest.raises(ValueError, match="'params' must be an object"):
            matrix_from_dict(bad)

    def test_unknown_trace_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown trace kind"):
            Scenario(name="x", kind="nope")

    def test_warmup_fraction_range(self):
        with pytest.raises(ValueError, match="warmup_fraction"):
            Scenario(name="x", kind="flash", warmup_fraction=1.0)

    def test_unknown_policy_rejected(self):
        with pytest.raises(PolicyError, match="unknown policy"):
            MatrixSpec(
                name="m",
                scenarios=(Scenario(name="x", kind="flash"),),
                policies=("warp",),
            )

    def test_duplicate_scenario_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate scenario"):
            MatrixSpec(
                name="m",
                scenarios=(
                    Scenario(name="x", kind="flash"),
                    Scenario(name="x", kind="cgi"),
                ),
                policies=("wrr",),
            )

    def test_duplicate_policies_rejected(self):
        # Used to run every cell twice and emit every row twice.
        with pytest.raises(ValueError, match="duplicate policies"):
            matrix_from_dict(dict(TINY, policies=["wrr", "lard", "wrr"]))

    def test_duplicate_cluster_sizes_rejected(self):
        with pytest.raises(ValueError, match="duplicate cluster sizes"):
            replace(matrix_from_dict(TINY), num_nodes=(2, 4, 2))

    @pytest.mark.parametrize("sizes", [(), (2, 0)])
    def test_cluster_sizes_must_be_positive(self, sizes):
        with pytest.raises(ValueError, match="num_nodes must be >= 1"):
            replace(matrix_from_dict(TINY), num_nodes=sizes)

    def test_an_int_cluster_size_stays_an_int(self):
        # The perf ledger feeds spec.num_nodes to ClusterConfig.
        spec = matrix_from_dict(TINY)
        assert spec.num_nodes == 2 and spec.sizes == (2,)

    def test_fault_scenario_cannot_have_a_warmup(self):
        with pytest.raises(ValueError, match="cannot also have a warm-up"):
            Scenario(name="x", kind="flash", fault=lambda num_nodes, duration_s: {})

    def test_builtins_all_parse(self):
        for name in BUILTIN_MATRICES:
            spec = builtin_matrix(name)
            assert spec.scenarios and spec.policies

    def test_unknown_builtin(self):
        with pytest.raises(ValueError, match="unknown matrix"):
            builtin_matrix("nope")


class TestRunMatrix:
    def test_rows_ordered_and_complete(self):
        spec = matrix_from_dict(TINY)
        rows = run_matrix(spec)
        assert [(r["scenario"], r["policy"]) for r in rows] == [
            ("flash", "wrr"),
            ("flash", "lard"),
            ("cgi", "wrr"),
            ("cgi", "lard"),
        ]
        for row in rows:
            assert set(row) == set(MATRIX_COLUMNS)

    def test_rows_ordered_scenario_then_size_then_policy(self):
        spec = replace(
            matrix_from_dict(TINY), num_nodes=(2, 3), scorecard=SCALEOUT_SCORECARD
        )
        rows = run_matrix(spec)
        assert [(r["scenario"], r["num_nodes"], r["policy"]) for r in rows] == [
            (scenario, size, policy)
            for scenario in ("flash", "cgi")
            for size in (2, 3)
            for policy in ("wrr", "lard")
        ]
        for row in rows:
            assert set(row) == {"scenario", *SCALEOUT_COLUMNS}

    def test_warmup_excluded_from_measured_phase(self):
        spec = matrix_from_dict(TINY)
        rows = run_matrix(spec)
        # flash warms up 25% of 2000 requests; cgi has no warmup.
        assert rows[0]["requests_measured"] == 1500
        assert rows[2]["requests_measured"] == 2000
        assert rows[2]["dynamic_fraction"] > 0

    def test_jobs_byte_identical(self):
        spec = matrix_from_dict(TINY)
        assert run_matrix(spec, jobs=1) == run_matrix(spec, jobs=2)

    def test_progress_counts_simulations(self):
        spec = matrix_from_dict(TINY)
        seen = []
        run_matrix(spec, progress=lambda done, total: seen.append((done, total)))
        # flash: 2 policies x (warmup + full); cgi: 2 policies x full.
        assert seen[-1] == (6, 6)
        assert [done for done, _ in seen] == list(range(1, 7))

    def test_csv_has_fixed_columns(self, tmp_path):
        spec = matrix_from_dict(TINY)
        path = write_csv(run_matrix(spec), tmp_path / "m.csv", columns=MATRIX_COLUMNS)
        header = path.read_text().splitlines()[0]
        assert header == ",".join(MATRIX_COLUMNS)


class TestCli:
    def test_spec_file_end_to_end(self, tmp_path, capsys):
        spec_path = tmp_path / "tiny.json"
        spec_path.write_text(json.dumps(TINY))
        csv_path = tmp_path / "out.csv"
        assert main(["matrix", "--spec", str(spec_path), "--csv", str(csv_path)]) == 0
        out = capsys.readouterr().out
        assert "workload matrix: tiny" in out
        assert csv_path.exists()

    def test_ci_smoke_matrix_matches_golden_scorecard(self, tmp_path, capsys):
        """CI's ``campaign-smoke`` matrix, against the scorecard recorded
        on 42f2d89 (before the runners became one): CI used to ``cmp``
        ``--jobs 1`` against ``--jobs 2`` only, which a drifted reducer
        passes."""
        csv_path = tmp_path / "scorecard.csv"
        assert main(["matrix", "--name", "dynamic-smoke", "--csv", str(csv_path)]) == 0
        capsys.readouterr()
        assert csv_path.read_bytes() == (GOLDEN / "matrix_dynamic_smoke.csv").read_bytes()

    def test_invalid_json_is_operator_error(self, tmp_path, capsys):
        spec_path = tmp_path / "bad.json"
        spec_path.write_text("{nope")
        assert main(["matrix", "--spec", str(spec_path)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_a_misspelt_generator_keyword_exits_before_any_trace(
        self, tmp_path, capsys, monkeypatch
    ):
        """The first scenario is valid: it used to run, and the second
        then died with a ``TypeError`` traceback."""
        cache = tmp_path / "traces"
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(cache))
        second = dict(TINY["scenarios"][1])
        second["params"] = dict(second["params"], num_request=2000)
        spec_path = tmp_path / "typo.json"
        spec_path.write_text(json.dumps(dict(TINY, scenarios=[TINY["scenarios"][0], second])))
        assert main(["matrix", "--spec", str(spec_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "'num_request'" in captured.err
        assert not cache.exists()

    def test_unknown_builtin_is_operator_error(self, capsys):
        assert main(["matrix", "--name", "nope"]) == 2
        assert "unknown matrix" in capsys.readouterr().err


# Seeded mutations of the one driver, each caught by the tests named
# beside it (run against a mutated copy of the package).
_DRIVER_MUTATIONS = {
    "size and policy loops swapped": (
        "        for num_nodes in spec.sizes\n        for policy in spec.policies\n",
        "        for policy in spec.policies\n        for num_nodes in spec.sizes\n",
        __file__,
        "rows_ordered_scenario_then_size",
    ),
    "warm-up prefix result not subtracted": (
        "in zip(configs, results, references):",
        "in zip(configs, results, [None] * len(cells)):",
        __file__,
        "warmup_excluded or golden_scorecard",
    ),
    "chaos row read against the neighbouring policy's fault-free run": (
        "            references = fault_free\n",
        "            references = fault_free[::-1]\n",
        str(Path(__file__).with_name("test_cli.py")),
        "ci_smoke_campaign_matches_golden_scorecard",
    ),
}


@pytest.mark.parametrize("mutation", sorted(_DRIVER_MUTATIONS))
def test_seeded_driver_mutation_is_caught(tmp_path, mutation):
    anchor, replacement, test_file, selector = _DRIVER_MUTATIONS[mutation]
    assert_selected_tests_fail(
        tmp_path, "analysis/matrix.py", anchor, replacement, test_file, selector
    )
