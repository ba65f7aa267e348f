"""Unit tests for the front-end model and metrics bookkeeping."""

import pytest

from repro.cluster import LoadTracker, SimulationResult, run_simulation
from repro.cluster.metrics import UNDERUTILIZATION_FRACTION
from repro.workload import Trace


def _tiny_trace(n_requests=50, n_targets=5, size=4096):
    targets = [i % n_targets for i in range(n_requests)]
    return Trace(targets, [size] * n_targets, name="tiny")


class TestFrontEnd:
    def test_all_requests_served(self):
        result = run_simulation(_tiny_trace(), policy="wrr", num_nodes=2,
                                node_cache_bytes=10**6)
        assert result.num_requests == 50

    def test_in_flight_respects_limit(self):
        # max_in_flight=1 serializes everything: sim time equals the sum of
        # per-request times.
        trace = _tiny_trace(10, 1)
        serial = run_simulation(trace, policy="wrr", num_nodes=2,
                                node_cache_bytes=10**6, max_in_flight=1)
        parallel = run_simulation(trace, policy="wrr", num_nodes=2,
                                  node_cache_bytes=10**6, max_in_flight=10)
        assert serial.sim_time_s > parallel.sim_time_s

    def test_invalid_max_in_flight(self):
        with pytest.raises(ValueError):
            run_simulation(_tiny_trace(), policy="wrr", num_nodes=2,
                           node_cache_bytes=10**6, max_in_flight=0)

    def test_delay_accounted_per_request(self):
        trace = _tiny_trace(10, 1)
        result = run_simulation(trace, policy="wrr", num_nodes=1,
                                node_cache_bytes=10**6, max_in_flight=1)
        # Serial: mean delay equals sim time / requests.
        assert result.mean_delay_s == pytest.approx(result.sim_time_s / 10, rel=0.01)

    def test_per_node_mean_delay_populated(self):
        result = run_simulation(_tiny_trace(), policy="wrr", num_nodes=2,
                                node_cache_bytes=10**6)
        assert len(result.per_node_mean_delay_s) == 2
        assert all(d > 0 for d in result.per_node_mean_delay_s)


class TestLoadTracker:
    """The tracker integrates over a load list it does not own: the
    tests play the policy, writing ``loads`` and then saying so."""

    @staticmethod
    def _move(tracker, node, delta, now):
        tracker.loads[node] += delta
        tracker.observe(node, now)

    def test_starts_fully_underutilized(self):
        tracker = LoadTracker([0, 0], threshold=10)
        assert tracker.mean_underutilized_fraction(100.0) == pytest.approx(1.0)

    def test_loaded_node_not_underutilized(self):
        tracker = LoadTracker([0], threshold=2)
        for _ in range(3):
            self._move(tracker, 0, +1, 0.0)
        assert tracker.underutilized_fraction(0, 10.0) == pytest.approx(0.0)

    def test_time_weighted_integration(self):
        tracker = LoadTracker([0], threshold=2)
        self._move(tracker, 0, +1, 0.0)
        self._move(tracker, 0, +1, 5.0)  # load 2 >= threshold from t=5
        assert tracker.underutilized_fraction(0, 10.0) == pytest.approx(0.5)

    def test_returns_to_underutilized(self):
        tracker = LoadTracker([0], threshold=2)
        self._move(tracker, 0, +1, 0.0)
        self._move(tracker, 0, +1, 0.0)
        self._move(tracker, 0, -1, 4.0)  # back below threshold
        assert tracker.underutilized_fraction(0, 8.0) == pytest.approx(0.5)

    def test_negative_load_rejected(self):
        tracker = LoadTracker([0], threshold=2)
        with pytest.raises(ValueError):
            self._move(tracker, 0, -1, 1.0)

    def test_integrates_over_the_list_it_was_given(self):
        """No copy: a failure that zeroes the policy's entry is one
        ``observe`` away from the idle integral."""
        loads = [0, 3]
        tracker = LoadTracker(loads, threshold=1)
        assert tracker.loads is loads
        tracker.observe(1, 0.0)
        loads[1] = 0
        tracker.observe(1, 6.0)
        assert tracker.underutilized_fraction(1, 8.0) == pytest.approx(0.25)
        assert tracker.underutilized_fraction(0, 8.0) == pytest.approx(1.0)


class TestSimulationResult:
    def _result(self, **kw):
        base = dict(
            policy="wrr",
            num_nodes=2,
            num_requests=100,
            sim_time_s=10.0,
            cache_hits=80,
            cache_misses=20,
            disk_reads=15,
            coalesced_reads=5,
            total_delay_s=5.0,
            idle_fraction=0.1,
            cpu_busy_fraction=0.5,
            disk_busy_fraction=0.3,
            bytes_served=1000,
        )
        base.update(kw)
        return SimulationResult(**base)

    def test_throughput(self):
        assert self._result().throughput_rps == pytest.approx(10.0)

    def test_miss_ratio(self):
        assert self._result().cache_miss_ratio == pytest.approx(0.2)
        assert self._result().cache_hit_ratio == pytest.approx(0.8)

    def test_mean_delay(self):
        assert self._result().mean_delay_s == pytest.approx(0.05)

    def test_delay_spread(self):
        result = self._result(per_node_mean_delay_s=[0.010, 0.030])
        assert result.delay_spread_s == pytest.approx(0.020)

    def test_delay_spread_single_node(self):
        assert self._result(per_node_mean_delay_s=[0.010]).delay_spread_s == 0.0

    def test_summary_mentions_key_metrics(self):
        text = self._result().summary()
        assert "wrr" in text
        assert "tput" in text

    def test_underutilization_threshold_constant(self):
        assert UNDERUTILIZATION_FRACTION == pytest.approx(0.40)
