"""Tests for the experiment harness and report rendering."""

from pathlib import Path

import pytest

from repro.analysis import experiments, matrix
from repro.analysis.experiments import (
    EXPERIMENTS,
    SIMULATED,
    SMOKE,
    Scale,
    clear_caches,
    get_trace,
    run_cells,
    run_experiment,
)
from repro.analysis.report import ExperimentResult, check, format_table
from repro.cluster import ClusterSimulator
from tests.seeded_mutation import assert_selected_tests_fail


class TestFormatTable:
    def test_alignment_and_separator(self):
        text = format_table(["name", "value"], [["a", 1], ["bb", 22.5]])
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert set(lines[1]) <= {"-", " "}
        assert len(lines) == 4

    def test_row_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [["only-one"]])

    def test_float_formatting(self):
        text = format_table(["v"], [[1234.5678], [0.123456], [12.34]])
        assert "1,235" in text
        assert "0.123" in text
        assert "12.3" in text


class TestExperimentResult:
    def _result(self):
        return ExperimentResult(
            experiment_id="figX",
            title="demo",
            paper_reference="Figure X",
            headers=["nodes", "tput"],
            rows=[[1, 100.0], [2, 200.0]],
            expectation="tput grows",
            checks=["grows with nodes", "FAIL something else"],
        )

    def test_render_contains_everything(self):
        text = self._result().render()
        assert "figX" in text
        assert "Figure X" in text
        assert "tput grows" in text
        assert "[x] grows with nodes" in text
        assert "[ ] FAIL something else" in text

    def test_failures_are_the_checks_that_did_not_hold(self):
        assert check(True, "holds") == "holds"
        assert self._result().failures == [check(False, "something else")]

    def test_column_extraction(self):
        assert self._result().column("tput") == [100.0, 200.0]
        with pytest.raises(ValueError):
            self._result().column("missing")


class TestHarness:
    def test_registry_covers_every_paper_result(self):
        expected = {
            "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
            "fig11", "fig12", "fig13", "fig14",
            "sec4.2-hot", "sec4.2-chess", "sec4.4-delay", "sec2.4-sens",
            "sec4.1-tenfold", "sec6.2-capacity",
            "ext-failure", "ext-persistent",
            "sec6.2-handoff", "fig18", "sec6.2-l4",
        }
        assert expected <= set(EXPERIMENTS)

    def test_run_all_is_every_experiment_but_the_live_ones(self):
        live = {"sec6.2-handoff", "fig18", "sec6.2-l4"}
        assert {i for i, entry in EXPERIMENTS.items() if entry.live} == live
        assert list(SIMULATED) == [i for i in EXPERIMENTS if i not in live]

    @pytest.mark.parametrize("experiment_id", SIMULATED)
    def test_smoke_render_matches_golden_block(self, experiment_id):
        """Every simulated experiment against ``run all --scale smoke`` as
        recorded on 42f2d89, before the runners became one (CI's
        ``campaign-smoke`` compares the whole file)."""
        golden = Path(__file__).parent / "golden" / "experiments_smoke.txt"
        blocks = {
            block.split(":", 1)[0]: block
            for block in golden.read_text().strip().split("\n\n")
        }
        rendered = run_experiment(experiment_id, SMOKE).render()
        assert rendered == blocks[f"== {experiment_id}"]

    def test_design_index_has_one_row_per_experiment(self):
        """DESIGN.md Section 4: one row per registered experiment, each
        citing its bench."""
        design = (Path(__file__).parent.parent / "DESIGN.md").read_text()
        index = design.split("## 4. Per-experiment index")[1].split("\n## ")[0]
        rows = [line.split("|") for line in index.splitlines() if line.startswith("| ")][1:]
        bench_by_id = {row[1].strip(): row[5].strip() for row in rows}
        assert len(rows) == len(bench_by_id)
        assert set(bench_by_id) == set(EXPERIMENTS)
        for experiment_id in EXPERIMENTS:
            assert bench_by_id[experiment_id] == (
                f"`benchmarks/test_experiments.py::test_experiment[{experiment_id}]`"
            )

    def test_every_experiment_has_a_title(self):
        for experiment_id, entry in EXPERIMENTS.items():
            assert entry.experiment_id == experiment_id
            assert entry.summary

    def test_unknown_experiment(self):
        with pytest.raises(KeyError, match="unknown experiment"):
            run_experiment("fig99", SMOKE)

    def test_trace_memoized(self):
        clear_caches()
        a = get_trace("rice", SMOKE)
        b = get_trace("rice", SMOKE)
        assert a is b

    def test_cell_memoized(self):
        clear_caches()
        cell = dict(policy="wrr", num_nodes=2)
        a = run_cells("rice", {"a": cell}, SMOKE, jobs=1)["a"]
        b = run_cells("rice", {"b": cell}, SMOKE, jobs=1)["b"]
        assert a is b
        c = run_cells("rice", {"c": dict(cell, t_low=5, t_high=9)}, SMOKE, jobs=1)["c"]
        assert c is not a

    def test_scale_node_cache_scales(self):
        scale = Scale(0.5, 100, (1, 2), "half")
        assert scale.node_cache_bytes == 16 * 2**20

    @pytest.mark.parametrize(
        "args, message",
        [
            ((0.1, 2000, (2,)), "at least two sizes"),
            ((0.1, 2000, ()), "at least two sizes"),
            ((0.1, 2000, (4, 2)), "strictly ascending positive integers"),
            ((0.1, 2000, (2, 2)), "strictly ascending positive integers"),
            ((0.1, 2000, (0, 2)), "strictly ascending positive integers"),
            ((0.1, 2000, (1, 2.5)), "strictly ascending positive integers"),
            ((-0.1, 2000, (2, 4)), "trace_scale must be positive and finite"),
            ((0.0, 2000, (2, 4)), "trace_scale must be positive and finite"),
            ((float("nan"), 2000, (2, 4)), "trace_scale must be positive and finite"),
            ((float("inf"), 2000, (2, 4)), "trace_scale must be positive and finite"),
            ((0.1, 0, (2, 4)), "num_requests must be >= 1"),
        ],
    )
    def test_scale_refuses_garbage(self, args, message):
        """``Scale(0.1, 2000, (2,), ...)`` used to build, and fig7 then
        died on ``cluster_sizes[-2]``; a negative ``trace_scale`` surfaced
        as "trace has no requests" from three layers down."""
        with pytest.raises(ValueError, match=message):
            Scale(*args, "bad")

    def test_fig5_structure(self):
        result = run_experiment("fig5", SMOKE)
        assert result.paper_reference == "Figure 5"
        assert result.headers[0] == "file rank (norm.)"
        assert len(result.rows) == 9
        assert result.checks

    def test_fig7_smoke_runs_all_policies(self):
        result = run_experiment("fig7", SMOKE)
        assert result.headers == [
            "nodes", "wrr", "lb", "lb/gc", "lard", "lard/r", "wrr/gms",
        ]
        assert [row[0] for row in result.rows] == list(SMOKE.cluster_sizes)
        for row in result.rows:
            assert all(v > 0 for v in row[1:])

    def test_fig8_and_fig9_reuse_fig7_sweep(self, routing):
        clear_caches()
        run_experiment("fig7", SMOKE)
        simulated_by_fig7 = list(routing.batches)
        run_experiment("fig8", SMOKE)
        run_experiment("fig9", SMOKE)
        assert routing.batches == simulated_by_fig7 != []

    def test_sec24_sensitivity_structure(self):
        result = run_experiment("sec2.4-sens", SMOKE)
        windows = result.column("T_high - T_low")
        assert windows == sorted(windows)

    def test_ablation_coalescing(self):
        result = run_experiment("abl-coalesce", SMOKE)
        assert len(result.rows) == 2


class _Routing:
    """What the ``routing`` fixture records."""

    def __init__(self):
        self.batches = []  # (jobs, number of configs) per run_many call
        self.outside = 0  # simulations started outside any run_many call
        self.depth = 0


@pytest.fixture
def routing(monkeypatch):
    """Count every ``run_many`` batch the experiments and the matrix
    driver ask for (run serially, whatever ``jobs`` they asked for, so
    every simulation happens in this process) and every simulation that
    starts outside one."""
    seen = _Routing()
    run_many = experiments.run_many
    simulate = ClusterSimulator.run

    def counting_run_many(trace, configs, jobs=None, progress=None):
        seen.batches.append((jobs, len(configs)))
        seen.depth += 1
        try:
            return run_many(trace, configs, jobs=1, progress=progress)
        finally:
            seen.depth -= 1

    def counting_simulate(self):
        if not seen.depth:
            seen.outside += 1
        return simulate(self)

    monkeypatch.setattr(experiments, "run_many", counting_run_many)
    monkeypatch.setattr(matrix, "run_many", counting_run_many)
    monkeypatch.setattr(ClusterSimulator, "run", counting_simulate)
    return seen


#: The determinism reruns: one cell each, outside the memo, jobs left at 1.
_SERIAL_RERUNS = {"ext-scaleout": [(1, 1)], "ext-dynamic": [(1, 1), (1, 1)]}


@pytest.mark.parametrize("experiment_id", SIMULATED)
def test_every_simulation_goes_through_run_many_with_the_jobs_given(experiment_id, routing):
    """52 of the 187 simulations of ``run all --scale smoke --jobs N``
    used to run in the parent whatever N was: ``run_cell`` misses nobody
    had prefetched, and six direct ``run_simulation`` calls."""
    clear_caches()
    run_experiment(experiment_id, SMOKE, jobs=2)
    assert routing.outside == 0
    elsewhere = [batch for batch in routing.batches if batch[0] != 2]
    assert elsewhere == _SERIAL_RERUNS.get(experiment_id, [])
    if experiment_id not in ("fig5", "fig6"):  # the two that only read a trace
        assert routing.batches


# An experiment that simulates by itself.
_ROUTING_MUTATION = (
    "analysis/experiments.py",
    '    per_node = run_cells("rice", {1: dict(policy="lard/r", num_nodes=1)}, scale, jobs)[1]\n',
    "    from ..cluster import run_simulation\n\n"
    '    per_node = run_simulation(get_trace("rice", scale), policy="lard/r", num_nodes=1,\n'
    "                              node_cache_bytes=scale.node_cache_bytes)\n",
)


def test_seeded_routing_mutation_is_caught(tmp_path):
    assert_selected_tests_fail(
        tmp_path, *_ROUTING_MUTATION, __file__, "goes_through_run_many and capacity"
    )
