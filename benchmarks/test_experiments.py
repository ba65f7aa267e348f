"""Bench: regenerate every registered experiment (test id = experiment id)."""

import pytest
from conftest import run_and_report

from repro.analysis.experiments import EXPERIMENTS


@pytest.mark.parametrize("experiment_id", list(EXPERIMENTS))
def test_experiment(benchmark, experiment_id):
    run_and_report(benchmark, experiment_id)
