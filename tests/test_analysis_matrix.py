"""Declarative workload matrices: spec validation, delta phases, determinism."""

import json

import pytest

from repro.analysis.matrix import (
    BUILTIN_MATRICES,
    MATRIX_COLUMNS,
    MatrixSpec,
    Scenario,
    builtin_matrix,
    matrix_from_dict,
    run_matrix,
    write_matrix_csv,
)
from repro.cli import main
from repro.core import PolicyError

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
        path = write_matrix_csv(run_matrix(spec), tmp_path / "m.csv")
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

    def test_invalid_json_is_operator_error(self, tmp_path, capsys):
        spec_path = tmp_path / "bad.json"
        spec_path.write_text("{nope")
        assert main(["matrix", "--spec", str(spec_path)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_unknown_builtin_is_operator_error(self, capsys):
        assert main(["matrix", "--name", "nope"]) == 2
        assert "unknown matrix" in capsys.readouterr().err
