"""Tests for ASCII chart rendering."""

import pytest

from repro.analysis.chart import ascii_chart, experiment_chart
from repro.analysis.report import ExperimentResult


class TestAsciiChart:
    def test_basic_render_contains_markers_and_legend(self):
        text = ascii_chart([1, 2, 3], {"a": [1, 2, 3], "b": [3, 2, 1]})
        assert "o a" in text
        assert "x b" in text
        assert "o" in text.splitlines()[0] or any("o" in l for l in text.splitlines())

    def test_dimensions(self):
        text = ascii_chart([0, 10], {"s": [0, 5]}, width=40, height=10)
        lines = text.splitlines()
        # height rows + axis + x labels + legend
        assert len(lines) >= 12
        plot_rows = [l for l in lines if "|" in l]
        assert len(plot_rows) == 10
        assert all(len(l.split("|", 1)[1]) == 40 for l in plot_rows)

    def test_y_axis_labels_min_max(self):
        text = ascii_chart([0, 1], {"s": [2, 8]})
        assert "8" in text.splitlines()[0]
        # anchored at zero for readability
        assert text.splitlines()[-4].lstrip().startswith("0")

    def test_monotone_series_rises_left_to_right(self):
        text = ascii_chart([0, 1, 2, 3], {"s": [0, 1, 2, 3]}, width=20, height=5)
        rows = [l.split("|", 1)[1] for l in text.splitlines() if "|" in l]
        first_col = min(i for r in rows for i, c in enumerate(r) if c != " ")
        top_row = next(i for i, r in enumerate(rows) if r.strip())
        bottom_row = max(i for i, r in enumerate(rows) if r.strip())
        # Highest point appears in the top row at the right, lowest at left.
        assert rows[top_row].rstrip().endswith("o")
        assert rows[bottom_row][first_col] == "o"

    def test_flat_series_does_not_crash(self):
        text = ascii_chart([1, 2], {"s": [5, 5]})
        assert "s" in text

    def test_validation(self):
        with pytest.raises(ValueError):
            ascii_chart([1, 2], {})
        with pytest.raises(ValueError):
            ascii_chart([1, 2], {"s": [1]})
        with pytest.raises(ValueError):
            ascii_chart([], {"s": []})

    def test_many_series_cycle_markers(self):
        series = {f"s{i}": [i, i + 1] for i in range(10)}
        text = ascii_chart([0, 1], series)
        assert "s9" in text


class TestExperimentChart:
    def _result(self, headers, rows):
        return ExperimentResult(
            experiment_id="x",
            title="t",
            paper_reference="r",
            headers=headers,
            rows=rows,
            expectation="e",
        )

    def test_numeric_sweep_chartable(self):
        result = self._result(["nodes", "wrr", "lard"], [[1, 10, 12], [2, 11, 25]])
        text = experiment_chart(result)
        assert text is not None
        assert "wrr" in text
        assert "lard" in text

    def test_categorical_table_returns_none(self):
        result = self._result(["mode", "tput"], [["sticky", 10], ["rehandoff", 20]])
        assert experiment_chart(result) is None

    def test_single_row_returns_none(self):
        result = self._result(["nodes", "tput"], [[1, 10]])
        assert experiment_chart(result) is None

    def test_percent_strings_not_chartable(self):
        result = self._result(["n", "gain"], [[1, "+5%"], [2, "+9%"]])
        assert experiment_chart(result) is None
