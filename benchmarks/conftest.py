"""Shared machinery for the experiment benchmark harness.

``test_experiments.py`` regenerates every registered table/figure at
``QUICK`` scale (see ``repro.analysis.Scale``), prints the same
rows/series the paper reports, and asserts the paper's *shape* claims
(who wins, by roughly what factor, where crossovers fall).  Absolute
numbers are expected to differ — the substrate is a simulator and
synthetic traces, not the authors' 1998 testbed.

Run with::

    pytest benchmarks/ --benchmark-only
"""

from __future__ import annotations

import os

from repro.analysis import QUICK, run_experiment

#: Worker processes per experiment (``REPRO_BENCH_JOBS=0`` = one per CPU).
#: Cells are deterministic, so parallel runs report identical tables.
_BENCH_JOBS = int(os.environ.get("REPRO_BENCH_JOBS", "1") or "1")
if _BENCH_JOBS == 0:
    _BENCH_JOBS = os.cpu_count() or 1


def run_and_report(benchmark, experiment_id: str):
    """Run one experiment under pytest-benchmark and verify its checks."""
    result = benchmark.pedantic(
        lambda: run_experiment(experiment_id, QUICK, jobs=_BENCH_JOBS),
        rounds=1,
        iterations=1,
    )
    print("\n" + result.render())
    assert not result.failures, f"paper-shape checks failed: {result.failures}"
    return result
