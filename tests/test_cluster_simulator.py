"""Integration tests for the end-to-end cluster simulator."""

import numpy as np
import pytest

from repro.cluster import (
    ClusterConfig,
    ClusterSimulator,
    CostModel,
    make_cache,
    run_simulation,
    stripe_by_frequency,
)
from repro.cache import GDSCache, LFUCache, LRUCache
from repro.workload import Trace, synthesize_trace


def _trace(n_requests=4000, n_targets=200, total=5 * 10**6, alpha=1.0, seed=0):
    return synthesize_trace(n_requests, n_targets, total, alpha, seed=seed)


CACHE = 512 * 1024  # small cache so locality matters at this scale


class TestBasicRuns:
    def test_every_policy_serves_whole_trace(self):
        trace = _trace(1500)
        for policy in ("wrr", "lb", "lb/gc", "lard", "lard/r", "wrr/gms"):
            result = run_simulation(trace, policy=policy, num_nodes=3,
                                    node_cache_bytes=CACHE)
            assert result.num_requests == 1500, policy
            assert result.sim_time_s > 0
            assert result.cache_hits + result.cache_misses == 1500

    def test_deterministic(self):
        trace = _trace(1000)
        a = run_simulation(trace, policy="lard/r", num_nodes=3, node_cache_bytes=CACHE)
        b = run_simulation(trace, policy="lard/r", num_nodes=3, node_cache_bytes=CACHE)
        assert a.sim_time_s == b.sim_time_s
        assert a.cache_misses == b.cache_misses

    def test_single_node_all_policies_equivalent(self):
        """At n=1 every strategy routes everything to the only node."""
        trace = _trace(1000)
        times = set()
        for policy in ("wrr", "lb", "lard", "lard/r", "wrr/gms"):
            result = run_simulation(trace, policy=policy, num_nodes=1,
                                    node_cache_bytes=CACHE)
            times.add(round(result.sim_time_s, 9))
        assert len(times) == 1

    def test_throughput_metrics_consistent(self):
        trace = _trace(1000)
        result = run_simulation(trace, policy="lard", num_nodes=2,
                                node_cache_bytes=CACHE)
        assert result.throughput_rps == pytest.approx(1000 / result.sim_time_s)
        assert result.bytes_served == trace.transferred_bytes

    def test_a_simulator_runs_once(self):
        """A second ``run()`` used to restart admission on the drained
        trace and hand back a result rebuilt from the first run's
        counters; it is refused before it touches anything."""
        sim = ClusterSimulator(
            _trace(1000),
            ClusterConfig(policy="lard/r", num_nodes=3, node_cache_bytes=CACHE),
        )
        sim.run()

        def state():
            return (sim.frontend.completed, sim.frontend.connections,
                    sim.engine.events_dispatched, sim.engine.now, sim.engine.pending,
                    sim.policy.dispatches, sim.nodes[0].disk_times_for)

        before = state()
        with pytest.raises(RuntimeError, match="already ran; build a new ClusterSimulator"):
            sim.run()
        assert state() == before

    def test_a_failed_run_cannot_be_resumed(self):
        sim = ClusterSimulator(
            _trace(1000),
            ClusterConfig(policy="lard/r", num_nodes=3, node_cache_bytes=CACHE),
        )
        sim.engine.schedule(0.1, sim.engine.stop)
        with pytest.raises(RuntimeError, match="simulation stalled"):
            sim.run()
        with pytest.raises(RuntimeError, match="already ran"):
            sim.run()


class TestPaperShape:
    def test_lard_beats_wrr_when_working_set_exceeds_node_cache(self):
        trace = _trace(6000, n_targets=400, total=8 * 10**6)
        wrr = run_simulation(trace, policy="wrr", num_nodes=4, node_cache_bytes=CACHE)
        lard = run_simulation(trace, policy="lard/r", num_nodes=4, node_cache_bytes=CACHE)
        assert lard.throughput_rps > wrr.throughput_rps * 1.3
        assert lard.cache_miss_ratio < wrr.cache_miss_ratio

    def test_wrr_has_lowest_idle(self):
        trace = _trace(6000, n_targets=400, total=8 * 10**6)
        wrr = run_simulation(trace, policy="wrr", num_nodes=4, node_cache_bytes=CACHE)
        lb = run_simulation(trace, policy="lb", num_nodes=4, node_cache_bytes=CACHE)
        assert wrr.idle_fraction <= lb.idle_fraction + 0.02

    def test_cache_aggregation_reduces_miss_with_more_nodes(self):
        trace = _trace(8000, n_targets=400, total=8 * 10**6)
        misses = []
        for n in (1, 2, 4):
            result = run_simulation(trace, policy="lard/r", num_nodes=n,
                                    node_cache_bytes=CACHE)
            misses.append(result.cache_miss_ratio)
        assert misses[2] < misses[0]

    def test_faster_cpu_helps_lard_more_than_wrr(self):
        trace = _trace(5000, n_targets=400, total=8 * 10**6)
        def tput(policy, speed):
            return run_simulation(
                trace, policy=policy, num_nodes=4, node_cache_bytes=CACHE,
                costs=CostModel(cpu_speed=speed),
            ).throughput_rps
        lard_gain = tput("lard/r", 4.0) / tput("lard/r", 1.0)
        wrr_gain = tput("wrr", 4.0) / tput("wrr", 1.0)
        assert lard_gain > wrr_gain

    def test_extra_disks_help_wrr(self):
        trace = _trace(4000, n_targets=400, total=8 * 10**6)
        one = run_simulation(trace, policy="wrr", num_nodes=2,
                             node_cache_bytes=CACHE, disks_per_node=1)
        four = run_simulation(trace, policy="wrr", num_nodes=2,
                              node_cache_bytes=CACHE, disks_per_node=4)
        assert four.throughput_rps > one.throughput_rps * 1.3


class TestGMS:
    def test_gms_mode_populates_gms_counters(self):
        trace = _trace(3000)
        result = run_simulation(trace, policy="wrr/gms", num_nodes=3,
                                node_cache_bytes=CACHE)
        assert result.gms_remote_hits > 0

    def test_gms_beats_plain_wrr(self):
        trace = _trace(6000, n_targets=400, total=8 * 10**6)
        wrr = run_simulation(trace, policy="wrr", num_nodes=4, node_cache_bytes=CACHE)
        gms = run_simulation(trace, policy="wrr/gms", num_nodes=4, node_cache_bytes=CACHE)
        assert gms.throughput_rps > wrr.throughput_rps


class TestMakeCache:
    def test_factory_types(self):
        assert isinstance(make_cache("gds", 100), GDSCache)
        assert isinstance(make_cache("lfu", 100), LFUCache)
        lru = make_cache("lru", 100)
        assert isinstance(lru, LRUCache)
        assert lru.max_cacheable_bytes == 500 * 1024
        unbounded = make_cache("lru-unbounded", 100)
        assert unbounded.max_cacheable_bytes is None

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            make_cache("mru", 100)


class TestStriping:
    def test_round_robin_by_descending_frequency(self):
        trace = Trace([0, 0, 0, 1, 1, 2], [10, 10, 10, 10], name="s")
        disk_of = stripe_by_frequency(trace, 2)
        # Popularity order: 0, 1, 2, 3 -> disks 0, 1, 0, 1.
        assert disk_of.tolist() == [0, 1, 0, 1]

    def test_all_disks_used(self):
        trace = _trace(1000, n_targets=100)
        disk_of = stripe_by_frequency(trace, 4)
        assert set(np.unique(disk_of)) == {0, 1, 2, 3}


class TestConfig:
    def test_scaled_cpu_helper(self):
        config = ClusterConfig().scaled_cpu(2.0, 1.5)
        assert config.costs.cpu_speed == 2.0
        assert config.node_cache_bytes == int(ClusterConfig().node_cache_bytes * 1.5)

    def test_invalid_nodes(self):
        with pytest.raises(ValueError):
            ClusterSimulator(_trace(10), ClusterConfig(num_nodes=0))

    @pytest.mark.parametrize("interval", [0.0, -1.0, float("inf"), float("nan")])
    def test_bad_timeline_interval_rejected_at_construction(self, interval):
        with pytest.raises(ValueError, match="timeline_interval_s"):
            ClusterConfig(timeline_interval_s=interval)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("num_nodes", 0, "need at least one node, got 0"),
            # 2.5 used to die in ``[0] * num_nodes`` with a TypeError, and
            # True ran as a one-node cluster.
            ("num_nodes", 2.5, "num_nodes must be an integer"),
            ("num_nodes", True, "num_nodes must be an integer"),
            ("requests_per_connection", 0, "requests_per_connection must be >= 1, got 0"),
            # 2.5 used to be accepted and silently ran three-request
            # connections (``len(batch) < 2.5``).
            ("requests_per_connection", 2.5, "requests_per_connection must be an integer"),
            ("requests_per_connection", True, "requests_per_connection must be an integer"),
            ("persistent_policy", "bouncing", "persistent_policy must be one of"),
            ("max_in_flight", 0, "max_in_flight must be >= 1, got 0"),
            ("max_in_flight", 1.5, "max_in_flight must be an integer"),
            ("disks_per_node", 0, "need at least one disk, got 0"),
            ("disks_per_node", 1.5, "disks_per_node must be an integer"),
            ("sanitize_interval", 0, "sanitize_interval must be >= 1, got 0"),
            ("sanitize_interval", 2.5, "sanitize_interval must be an integer"),
        ],
    )
    def test_garbage_counts_rejected_at_config_time(self, field, value, message):
        """One line, from one layer, before anything is built."""
        with pytest.raises(ValueError, match=message):
            ClusterConfig(**{field: value})

    def test_numpy_integer_counts_accepted(self):
        config = ClusterConfig(
            requests_per_connection=np.int64(4), disks_per_node=np.int32(2)
        )
        assert config.requests_per_connection == 4

    def test_overrides_via_run_simulation(self):
        trace = _trace(500)
        result = run_simulation(trace, policy="lard", num_nodes=2,
                                node_cache_bytes=CACHE, t_low=5, t_high=15)
        assert result.num_requests == 500

    def test_profile_hook_writes_stats(self, tmp_path):
        trace = _trace(500)
        out = tmp_path / "run.pstats"
        result = run_simulation(
            trace, policy="wrr", num_nodes=2, node_cache_bytes=CACHE, profile=out
        )
        assert result.num_requests == 500
        import pstats

        stats = pstats.Stats(str(out))
        assert stats.total_calls > 0

    def test_profile_result_identical_to_plain_run(self, tmp_path):
        trace = _trace(500)
        plain = run_simulation(trace, policy="wrr", num_nodes=2, node_cache_bytes=CACHE)
        profiled = run_simulation(
            trace,
            policy="wrr",
            num_nodes=2,
            node_cache_bytes=CACHE,
            profile=tmp_path / "run.pstats",
        )
        assert plain == profiled
