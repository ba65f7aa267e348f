"""Tests for the parallel experiment executor (repro.analysis.parallel)."""

import pytest

from repro.analysis import (
    ParallelExecutionError,
    clear_caches,
    expand_parameters,
    experiments,
    result_row,
    run_cells,
    run_many,
    sweep,
    write_csv,
)
from repro.analysis.experiments import SMOKE, run_experiment
from repro.cluster import ClusterConfig
from repro.workload import synthesize_trace


@pytest.fixture(scope="module")
def small_trace():
    return synthesize_trace(2000, 200, 4 * 10**6, 1.0, seed=3)


_SWEEP_PARAMS = dict(
    policy=["wrr", "lard/r"],
    num_nodes=[2, 4],
    node_cache_bytes=256 * 1024,
)


class TestRunMany:
    def test_results_in_submission_order(self, small_trace):
        configs = [
            dict(policy="wrr", num_nodes=n, node_cache_bytes=256 * 1024)
            for n in (1, 2, 4)
        ]
        results = run_many(small_trace, configs, jobs=2)
        assert [r.num_nodes for r in results] == [1, 2, 4]

    def test_parallel_identical_to_serial(self, small_trace):
        configs = [
            dict(policy=p, num_nodes=n, node_cache_bytes=256 * 1024)
            for p in ("wrr", "lard/r")
            for n in (2, 4)
        ]
        serial = run_many(small_trace, configs, jobs=1)
        parallel = run_many(small_trace, configs, jobs=4)
        for a, b in zip(serial, parallel):
            assert a == b

    def test_accepts_cluster_config_objects(self, small_trace):
        configs = [
            ClusterConfig(policy="wrr", num_nodes=2, node_cache_bytes=256 * 1024),
            dict(policy="wrr", num_nodes=2, node_cache_bytes=256 * 1024),
        ]
        results = run_many(small_trace, configs, jobs=2)
        assert results[0] == results[1]

    def test_empty_configs(self, small_trace):
        assert run_many(small_trace, [], jobs=4) == []

    def test_worker_failure_names_the_config(self, small_trace):
        configs = [
            dict(policy="wrr", num_nodes=2, node_cache_bytes=256 * 1024),
            dict(policy="no-such-policy", num_nodes=2, node_cache_bytes=256 * 1024),
        ]
        with pytest.raises(ParallelExecutionError, match="no-such-policy"):
            run_many(small_trace, configs, jobs=2)

    def test_progress_reported(self, small_trace):
        configs = [
            dict(policy="wrr", num_nodes=n, node_cache_bytes=256 * 1024) for n in (1, 2)
        ]
        seen = []
        run_many(small_trace, configs, jobs=2, progress=lambda d, t: seen.append((d, t)))
        assert seen == [(1, 2), (2, 2)]


class TestParallelSweep:
    def test_rows_byte_identical_to_serial(self, small_trace, tmp_path):
        serial = sweep(small_trace, jobs=1, **_SWEEP_PARAMS)
        parallel = sweep(small_trace, jobs=4, **_SWEEP_PARAMS)
        assert serial == parallel
        a = write_csv(serial, tmp_path / "serial.csv")
        b = write_csv(parallel, tmp_path / "parallel.csv")
        assert a.read_bytes() == b.read_bytes()

    def test_parallel_module_sweep_matches(self, small_trace):
        """``sweep`` is the cross product handed to ``run_many`` (the
        parallel module's own copy of it is gone)."""
        names, combinations = expand_parameters(_SWEEP_PARAMS)
        configs = [dict(zip(names, combination)) for combination in combinations]
        results = run_many(small_trace, configs, jobs=1)
        assert sweep(small_trace, jobs=2, **_SWEEP_PARAMS) == [
            result_row(result, config) for result, config in zip(results, configs)
        ]

    def test_progress_reported_serial_and_pooled(self, small_trace):
        for jobs in (1, 2):
            seen = []
            sweep(
                small_trace,
                jobs=jobs,
                progress=lambda d, t: seen.append((d, t)),
                **_SWEEP_PARAMS,
            )
            assert seen == [(1, 4), (2, 4), (3, 4), (4, 4)]


class TestExperimentPrefetch:
    def test_prefetch_populates_cell_cache(self, monkeypatch):
        clear_caches()
        batches = []

        def counting_run_many(trace, configs, jobs=None):
            batches.append((jobs, len(configs)))
            return run_many(trace, configs, jobs=jobs)

        monkeypatch.setattr(experiments, "run_many", counting_run_many)
        cells = {(p, n): dict(policy=p, num_nodes=n) for p in ("wrr", "lard") for n in (2, 4)}
        first = run_cells("rice", cells, SMOKE, jobs=2)
        assert batches == [(2, 4)]
        # Cached now: asking again, for all or for one, does no work.
        assert run_cells("rice", cells, SMOKE, jobs=2) == first
        one = run_cells("rice", {"x": dict(policy="wrr", num_nodes=2)}, SMOKE, jobs=1)["x"]
        assert one is first["wrr", 2] and one.num_nodes == 2
        assert batches == [(2, 4)]
        clear_caches()

    def test_experiment_parallel_matches_serial(self):
        clear_caches()
        parallel = run_experiment("fig8", SMOKE, jobs=2)
        clear_caches()
        serial = run_experiment("fig8", SMOKE)
        clear_caches()
        assert parallel.rows == serial.rows
