"""Tests for the experiment harness and report rendering."""

from pathlib import Path

import pytest

from repro.analysis import (
    EXPERIMENTS,
    SMOKE,
    ExperimentResult,
    Scale,
    clear_caches,
    format_table,
    get_trace,
    run_cell,
    run_experiment,
)


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
        }
        assert expected <= set(EXPERIMENTS)

    @pytest.mark.parametrize(
        "experiment_id",
        ["fig7", "fig8", "fig9", "fig11", "fig13", "ext-scaleout", "ext-chaos", "ext-dynamic"],
    )
    def test_smoke_render_matches_golden_block(self, experiment_id):
        """The experiments that ride ``prefetch_cells`` or ``run_matrix``,
        against ``run all --scale smoke`` as recorded on 42f2d89, before
        the runners became one (CI's ``campaign-smoke`` compares the
        whole file)."""
        golden = Path(__file__).parent / "golden" / "experiments_smoke.txt"
        blocks = {
            block.split(":", 1)[0]: block
            for block in golden.read_text().strip().split("\n\n")
        }
        rendered = run_experiment(experiment_id, SMOKE).render()
        assert rendered == blocks[f"== {experiment_id}"]

    def test_every_experiment_has_a_title(self):
        from repro.analysis.experiments import EXPERIMENT_TITLES

        assert set(EXPERIMENT_TITLES) == set(EXPERIMENTS)

    def test_unknown_experiment(self):
        with pytest.raises(KeyError, match="unknown experiment"):
            run_experiment("fig99")

    def test_trace_memoized(self):
        clear_caches()
        a = get_trace("rice", SMOKE)
        b = get_trace("rice", SMOKE)
        assert a is b

    def test_cell_memoized(self):
        clear_caches()
        a = run_cell("rice", "wrr", 2, SMOKE)
        b = run_cell("rice", "wrr", 2, SMOKE)
        assert a is b
        c = run_cell("rice", "wrr", 2, SMOKE, t_low=5, t_high=9)
        assert c is not a

    def test_scale_node_cache_scales(self):
        scale = Scale(0.5, 100, (1,), "half")
        assert scale.node_cache_bytes == 16 * 2**20

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

    def test_fig8_and_fig9_reuse_fig7_sweep(self):
        clear_caches()
        run_experiment("fig7", SMOKE)
        from repro.analysis import experiments
        cells_after_fig7 = len(experiments._cell_cache)
        run_experiment("fig8", SMOKE)
        run_experiment("fig9", SMOKE)
        assert len(experiments._cell_cache) == cells_after_fig7

    def test_sec24_sensitivity_structure(self):
        result = run_experiment("sec2.4-sens", SMOKE)
        windows = result.column("T_high - T_low")
        assert windows == sorted(windows)

    def test_ablation_coalescing(self):
        result = run_experiment("abl-coalesce", SMOKE)
        assert len(result.rows) == 2
