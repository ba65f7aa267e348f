"""Functional smoke tests for the perf microbenchmarks.

These run scaled-down versions of every microbenchmark so CI catches a
broken benchmark (import error, workload drift, zero-division) without
paying full measurement time.  Regression *gating* is the ledger's
per-PR parent/change comparison (``benchmarks/perf/ledger``).
"""

from __future__ import annotations

from .micro import bench_engine_events, calibration_score


def test_calibration_positive():
    assert calibration_score(iterations=100_000) > 0


def test_engine_events_counts_dispatches():
    result = bench_engine_events(num_events=20_000, fanout=20)
    assert result["events_per_s"] > 0
    # fanout starts + fanout*steps delays + fanout StopIterations, roughly.
    assert result["events"] >= 20_000 / 2
