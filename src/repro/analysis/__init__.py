"""Experiment harness: regenerate every table and figure in the paper.

>>> from repro.analysis import run_experiment, QUICK
>>> print(run_experiment("fig7", QUICK).render())  # doctest: +SKIP
"""

from .experiments import (
    EXPERIMENTS,
    FULL,
    QUICK,
    SCALES,
    SMOKE,
    STANDARD,
    Scale,
    clear_caches,
    get_trace,
    run_cells,
    run_experiment,
)
from .chaos import (
    CHAOS_SCORECARD,
    DEFAULT_CHAOS_POLICIES,
    SCORECARD_COLUMNS,
    ChaosScenario,
    build_scenarios,
    chaos_spec,
)
from .chart import ascii_chart, experiment_chart
from .scaleout import (
    DEFAULT_SCALEOUT_POLICIES,
    DEFAULT_SCALEOUT_SIZES,
    SCALEOUT_COLUMNS,
    SCALEOUT_SCORECARD,
)
from .matrix import (
    BUILTIN_MATRICES,
    MATRIX_COLUMNS,
    MatrixSpec,
    Scenario,
    Scorecard,
    builtin_matrix,
    matrix_from_dict,
    paper_scenario,
    run_matrix,
)
from .parallel import ParallelExecutionError, default_jobs, run_many
from .report import ExperimentResult, check, format_table
from .sweep import expand_parameters, result_row, sweep, write_csv

__all__ = [
    "EXPERIMENTS",
    "run_experiment",
    "Scale",
    "SCALES",
    "FULL",
    "STANDARD",
    "QUICK",
    "SMOKE",
    "clear_caches",
    "get_trace",
    "run_cells",
    "ExperimentResult",
    "check",
    "format_table",
    "ascii_chart",
    "experiment_chart",
    "sweep",
    "result_row",
    "write_csv",
    "expand_parameters",
    "run_many",
    "default_jobs",
    "ParallelExecutionError",
    "chaos_spec",
    "build_scenarios",
    "ChaosScenario",
    "DEFAULT_CHAOS_POLICIES",
    "SCORECARD_COLUMNS",
    "CHAOS_SCORECARD",
    "DEFAULT_SCALEOUT_POLICIES",
    "DEFAULT_SCALEOUT_SIZES",
    "SCALEOUT_COLUMNS",
    "SCALEOUT_SCORECARD",
    "Scorecard",
    "Scenario",
    "MatrixSpec",
    "MATRIX_COLUMNS",
    "BUILTIN_MATRICES",
    "matrix_from_dict",
    "builtin_matrix",
    "paper_scenario",
    "run_matrix",
]
