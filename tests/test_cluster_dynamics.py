"""Tests for membership dynamics and persistent connections in the simulator."""

import pytest

from repro.cluster import (
    ClusterConfig,
    ClusterSimulator,
    CrashFault,
    FaultSchedule,
    run_simulation,
)
from repro.cluster.frontend_capacity import FrontEndCapacityModel
from repro.workload import synthesize_trace
from tests.seeded_mutation import assert_selected_tests_fail


def _trace(n=6000, seed=3):
    return synthesize_trace(
        n, 800, 12 * 2**20, 0.9, size_popularity_correlation=-0.5, seed=seed
    )


CACHE = 2**20


def _fail(node, at_s, rejoin_at_s=None, rejoin_mode="cold"):
    """The paper's Section 2.6 failure: a crash the front-end detects at
    once, optionally followed by a rejoin."""
    crash = CrashFault(
        node, at_s=at_s, detect_s=0.0, rejoin_at_s=rejoin_at_s, rejoin_mode=rejoin_mode
    )
    return FaultSchedule(crashes=(crash,))


class TestMembershipDynamics:
    def test_all_requests_served_through_failure(self):
        trace = _trace()
        base = run_simulation(trace, policy="lard/r", num_nodes=4, node_cache_bytes=CACHE)
        result = run_simulation(
            trace,
            policy="lard/r",
            num_nodes=4,
            node_cache_bytes=CACHE,
            fault_schedule=_fail(2, base.sim_time_s * 0.4),
        )
        assert result.num_requests == len(trace)

    def test_failed_node_receives_no_new_work(self):
        trace = _trace()
        base = run_simulation(trace, policy="lard/r", num_nodes=4, node_cache_bytes=CACHE)
        fail_at = base.sim_time_s * 0.1
        config = ClusterConfig(
            policy="lard/r",
            num_nodes=4,
            node_cache_bytes=CACHE,
            fault_schedule=_fail(2, fail_at),
        )
        sim = ClusterSimulator(trace, config)
        result = sim.run()
        # Node 2 only served what was dispatched before the failure.
        served_by_2 = sim.nodes[2].requests_served
        assert served_by_2 < result.num_requests * 0.15

    def test_rejoined_node_takes_traffic_again(self):
        trace = _trace()
        base = run_simulation(trace, policy="lard/r", num_nodes=4, node_cache_bytes=CACHE)
        config = ClusterConfig(
            policy="lard/r",
            num_nodes=4,
            node_cache_bytes=CACHE,
            fault_schedule=_fail(2, base.sim_time_s * 0.1, base.sim_time_s * 0.3),
        )
        sim = ClusterSimulator(trace, config)
        sim.run()
        assert sim.nodes[2].requests_served > 0
        assert sim.policy.is_alive(2)

    def test_failure_costs_throughput(self):
        trace = _trace(10_000)
        base = run_simulation(trace, policy="lard/r", num_nodes=4, node_cache_bytes=CACHE)
        failed = run_simulation(
            trace,
            policy="lard/r",
            num_nodes=4,
            node_cache_bytes=CACHE,
            fault_schedule=_fail(1, base.sim_time_s * 0.3),
        )
        assert failed.throughput_rps < base.throughput_rps

    def test_orphaned_connections_counted(self):
        trace = _trace()
        base = run_simulation(trace, policy="wrr", num_nodes=4, node_cache_bytes=CACHE)
        result = run_simulation(
            trace,
            policy="wrr",
            num_nodes=4,
            node_cache_bytes=CACHE,
            fault_schedule=_fail(0, base.sim_time_s * 0.5),
        )
        assert result.orphaned_connections > 0

    def test_timeline_collection(self):
        trace = _trace()
        result = run_simulation(
            trace,
            policy="wrr",
            num_nodes=2,
            node_cache_bytes=CACHE,
            fault_schedule=FaultSchedule(interval_s=0.5),
        )
        completions = result.degraded.completions
        assert sum(completions.values()) == len(trace)
        assert max(completions) <= int(result.sim_time_s / 0.5) + 1

    def test_seeded_mutation_dropping_the_completion_count_is_caught(self, tmp_path):
        """The fault runtime alone counts a bucket's completions."""
        assert_selected_tests_fail(
            tmp_path,
            "cluster/faults.py",
            "        self._completions[bucket] = self._completions.get(bucket, 0) + 1\n",
            "",
            __file__,
            "test_timeline_collection",
        )

    def test_unknown_membership_action_rejected(self):
        """A node rejoins cold, warm or aged; any other way back in is
        refused when the schedule is built."""
        with pytest.raises(ValueError, match="rejoin_mode"):
            run_simulation(
                _trace(100),
                policy="wrr",
                num_nodes=2,
                node_cache_bytes=CACHE,
                fault_schedule=_fail(0, 0.1, 0.2, rejoin_mode="reboot"),
            )


class TestPersistentConnections:
    def test_request_count_preserved_with_batching(self):
        trace = _trace(5000)
        for k in (3, 7, 16):
            result = run_simulation(
                trace,
                policy="lard/r",
                num_nodes=3,
                node_cache_bytes=CACHE,
                requests_per_connection=k,
            )
            assert result.num_requests == len(trace)
            assert result.connections == -(-len(trace) // k)  # ceil division

    def test_sticky_degrades_locality(self):
        trace = _trace(8000)
        single = run_simulation(
            trace, policy="lard/r", num_nodes=4, node_cache_bytes=CACHE
        )
        sticky = run_simulation(
            trace,
            policy="lard/r",
            num_nodes=4,
            node_cache_bytes=CACHE,
            requests_per_connection=8,
            persistent_policy="sticky",
        )
        assert sticky.cache_miss_ratio > single.cache_miss_ratio

    def test_rehandoff_restores_locality(self):
        trace = _trace(8000)
        sticky = run_simulation(
            trace,
            policy="lard/r",
            num_nodes=4,
            node_cache_bytes=CACHE,
            requests_per_connection=8,
            persistent_policy="sticky",
        )
        rehandoff = run_simulation(
            trace,
            policy="lard/r",
            num_nodes=4,
            node_cache_bytes=CACHE,
            requests_per_connection=8,
            persistent_policy="rehandoff",
        )
        assert rehandoff.cache_miss_ratio < sticky.cache_miss_ratio
        assert rehandoff.rehandoffs > 0
        assert sticky.rehandoffs == 0

    def test_persistent_connections_amortize_setup(self):
        """With a single node (no locality at stake), batching requests
        onto one connection saves connection setup/teardown CPU."""
        trace = _trace(4000)
        single = run_simulation(
            trace, policy="wrr", num_nodes=1, node_cache_bytes=CACHE
        )
        batched = run_simulation(
            trace,
            policy="wrr",
            num_nodes=1,
            node_cache_bytes=CACHE,
            requests_per_connection=10,
        )
        assert batched.sim_time_s < single.sim_time_s

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            run_simulation(
                _trace(100), policy="wrr", num_nodes=2, node_cache_bytes=CACHE,
                requests_per_connection=0,
            )
        with pytest.raises(ValueError):
            run_simulation(
                _trace(100), policy="wrr", num_nodes=2, node_cache_bytes=CACHE,
                persistent_policy="bouncing",
            )


class TestDelayPercentiles:
    def test_percentiles_collected_and_ordered(self):
        trace = _trace(3000)
        result = run_simulation(
            trace, policy="lard/r", num_nodes=2, node_cache_bytes=CACHE,
            collect_delays=True,
        )
        assert len(result.delays_s) == len(trace)
        p50 = result.delay_percentile_s(50)
        p99 = result.delay_percentile_s(99)
        assert 0 < p50 <= p99
        assert result.delay_percentile_s(0) <= p50

    def test_mean_consistent_with_samples(self):
        trace = _trace(2000)
        result = run_simulation(
            trace, policy="wrr", num_nodes=2, node_cache_bytes=CACHE,
            collect_delays=True,
        )
        assert sum(result.delays_s) / len(result.delays_s) == pytest.approx(
            result.mean_delay_s
        )

    def test_nearest_rank_boundaries(self):
        """Ceil-based nearest-rank: p0 -> min, p100 -> max, and p50 of an
        even-length sample is the lower middle (rank ceil(n/2)), never an
        out-of-range index."""
        from dataclasses import replace

        result = run_simulation(
            _trace(100), policy="wrr", num_nodes=2, node_cache_bytes=CACHE,
            collect_delays=True,
        )
        fixed = replace(result, delays_s=(1.0, 2.0, 3.0, 4.0))
        assert fixed.delay_percentile_s(0) == 1.0
        assert fixed.delay_percentile_s(50) == 2.0
        assert fixed.delay_percentile_s(100) == 4.0
        assert fixed.delay_percentile_s(75) == 3.0
        single = replace(result, delays_s=(7.0,))
        assert single.delay_percentile_s(0) == 7.0
        assert single.delay_percentile_s(100) == 7.0

    def test_percentiles_require_collection(self):
        trace = _trace(500)
        result = run_simulation(trace, policy="wrr", num_nodes=2, node_cache_bytes=CACHE)
        with pytest.raises(ValueError, match="collect_delays"):
            result.delay_percentile_s(50)
        with pytest.raises(ValueError):
            run_simulation(
                trace, policy="wrr", num_nodes=2, node_cache_bytes=CACHE,
                collect_delays=True,
            ).delay_percentile_s(150)


class TestFrontEndCapacityModel:
    def test_small_responses_dominated_by_handoff(self):
        model = FrontEndCapacityModel()
        # A one-segment response needs a single ACK forward.
        cost = model.cpu_per_connection_s(512)
        assert cost == pytest.approx(194e-6 + 0.5 * 9e-6)

    def test_acks_scale_with_response_size(self):
        model = FrontEndCapacityModel()
        assert model.acks_per_connection(1460 * 4) == pytest.approx(2.0)
        assert model.acks_per_connection(0) == pytest.approx(0.5)

    def test_capacity_arithmetic(self):
        model = FrontEndCapacityModel()
        rate = model.max_connection_rate(10_000)
        assert model.max_backends(rate / 10, 10_000) == pytest.approx(10.0)

    def test_smp_scaling_linear(self):
        model = FrontEndCapacityModel()
        doubled = model.with_smp(2.0)
        assert doubled.max_connection_rate(8192) == pytest.approx(
            2 * model.max_connection_rate(8192)
        )

    def test_forwarding_throughput_multi_gbit(self):
        assert FrontEndCapacityModel().forwarding_throughput_bps() > 1e9

    def test_validation(self):
        with pytest.raises(ValueError):
            FrontEndCapacityModel(handoff_cpu_s=-1)
        with pytest.raises(ValueError):
            FrontEndCapacityModel(cpu_multiplier=0)
        with pytest.raises(ValueError):
            FrontEndCapacityModel().max_backends(0, 100)
        with pytest.raises(ValueError):
            FrontEndCapacityModel().acks_per_connection(-1)
