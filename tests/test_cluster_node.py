"""Unit tests for the back-end node model.

A node serves requests only through a connection lifecycle, so each
behavior is checked on a minimal cluster twice over: on the shipped
state machine and on the reference coroutines in
``tests/cluster_oracle.py`` (the closed forms below are what make the
oracle an oracle).
"""

import io

import pytest

from repro.cache import GDSCache, GlobalMemorySystem
from repro.cluster import ClusterConfig, ClusterSimulator, CostModel
from repro.cluster.node import BackendNode
from repro.obs import SpanWriter, parse_span_log
from repro.obs.tracer import SimTracer
from repro.sim import Engine
from repro.workload import Trace
from tests.cluster_oracle import use_oracle
from tests.seeded_mutation import assert_selected_tests_fail

#: The shipped state machine, then the reference oracle.
LIFECYCLES = (False, True)


def _node(engine, cache_bytes=10**6, num_disks=1, **kw):
    return BackendNode(
        engine, 0, CostModel(), GDSCache(cache_bytes), num_disks=num_disks, **kw
    )


def _cluster(oracle, targets, sizes, concurrent=False, tracer=None, **config):
    """A cluster (one WRR node unless ``config`` says otherwise) about
    to serve ``targets`` one at a time, or all at once."""
    config.setdefault("policy", "wrr")
    config.setdefault("num_nodes", 1)
    sim = ClusterSimulator(
        Trace(targets, sizes, name="unit"),
        ClusterConfig(
            node_cache_bytes=10**6,
            max_in_flight=len(targets) if concurrent else 1,
            **config,
        ),
        tracer=tracer,
    )
    return use_oracle(sim) if oracle else sim


class TestTiming:
    def test_cached_request_time_matches_cost_model(self):
        for oracle in LIFECYCLES:
            sim = _cluster(oracle, [0], [8192])
            sim.nodes[0].cache.access(0, 8192)  # pre-warm
            end = sim.run().sim_time_s
            assert end == pytest.approx(CostModel().cached_request_time(8192))
            assert sim.nodes[0].cache_hits == 1

    def test_miss_includes_disk_time(self):
        model = CostModel()
        expected = model.cached_request_time(4096) + model.disk_read_time(4096)
        for oracle in LIFECYCLES:
            sim = _cluster(oracle, [0], [4096])
            assert sim.run().sim_time_s == pytest.approx(expected)
            assert sim.nodes[0].cache_misses == 1
            assert sim.nodes[0].disk_reads == 1

    def test_chunked_read_interleaves_disk_and_cpu(self):
        size = 100 * 1024
        model = CostModel()
        expected = (
            model.connection_time()
            + model.teardown_time()
            + model.disk_read_time(size)
            + model.transmit_time(44 * 1024) * 2
            + model.transmit_time(12 * 1024)
        )
        for oracle in LIFECYCLES:
            sim = _cluster(oracle, [0], [size])
            assert sim.run().sim_time_s == pytest.approx(expected)


class TestCoalescing:
    def test_concurrent_misses_single_disk_read(self):
        for oracle in LIFECYCLES:
            sim = _cluster(oracle, [0] * 5, [8192], concurrent=True)
            sim.run()
            node = sim.nodes[0]
            assert node.disk_reads == 1
            assert node.coalesced_reads == 4
            assert node.cache_misses == 5
            assert node.requests_served == 5

    def test_three_waiters_wake_in_arrival_order_before_the_readers_teardown(self):
        """One read in flight, three requests joining it one after the
        other: they are woken in the order they joined, and the read is
        off the pending table in the very event that ends it — the one
        that starts the reader's teardown."""
        model = CostModel()
        for oracle in LIFECYCLES:
            sink = io.StringIO()
            tracer = SimTracer(SpanWriter(sink, source="sim"))
            sim = _cluster(oracle, [0] * 4, [8192], concurrent=True, tracer=tracer)
            node = sim.nodes[0]
            states = []  # after every event

            def watch(when, callback):
                cpu = node.cpu
                states.append(
                    (len(node._pending), cpu.jobs_served, cpu.busy, cpu.queue_length)
                )

            sim.engine.install_sanitizer(watch)
            sim.run()
            tracer.writer.close()
            assert (node.disk_reads, node.coalesced_reads) == (1, 3)
            assert (node.cache_misses, node.requests_served) == (4, 4)
            # The event that empties the table: four establishments and
            # the reader's transmit are booked, its teardown is in
            # service, and the waiters' wake-ups are staged behind it —
            # none has reached the CPU queue yet.
            registered = [pending for pending, *_ in states].index(1)
            emptied = [pending for pending, *_ in states].index(0, registered)
            assert states[emptied] == (0, 5, 1, 0)
            assert all(pending == 0 for pending, *_ in states[emptied:])
            # Spans land in completion order, ``req`` counts admissions.
            spans = parse_span_log(sink.getvalue().splitlines()).spans
            assert [span.req for span in spans] == [0, 1, 2, 3]
            assert [span.outcome for span in spans] == ["miss"] + ["coalesced"] * 3
            # Joined one establishment apart, woken at one instant, then
            # served one transmit apart behind the reader's teardown.
            conn, transmit = model.connection_time(), model.transmit_time(8192)
            woken = [span.t_arrival + span.phases["establish"] + span.phases["queue"]
                     for span in spans[1:]]
            assert woken[0] == woken[1] == woken[2]
            for earlier, later in zip(spans[1:], spans[2:]):
                assert later.phases["establish"] - earlier.phases["establish"] == (
                    pytest.approx(conn)
                )
                assert later.phases["cpu"] - earlier.phases["cpu"] == (
                    pytest.approx(transmit)
                )

    def test_disabled_coalescing_reads_repeatedly(self):
        for oracle in LIFECYCLES:
            sim = _cluster(
                oracle, [0] * 3, [8192], concurrent=True, coalesce_reads=False
            )
            sim.run()
            assert sim.nodes[0].disk_reads == 3
            assert sim.nodes[0].coalesced_reads == 0

    def test_waiters_complete_after_read(self):
        for oracle in LIFECYCLES:
            sim = _cluster(oracle, [0, 0], [8192], concurrent=True)
            sim.run()
            assert sim.nodes[0].requests_served == 2

    def test_sequential_requests_second_hits(self):
        for oracle in LIFECYCLES:
            sim = _cluster(oracle, [0, 0], [4096])
            sim.run()
            assert sim.nodes[0].cache_hits == 1
            assert sim.nodes[0].disk_reads == 1


#: Slips in the state machine's waiter list that the three-waiter test
#: must catch: name -> (anchor in cluster/fastpath.py, replacement).
_WAITER_MUTATIONS = {
    "waiters-woken-newest-first": (
        "            for waiter in node._pending.pop(self.target):\n",
        "            for waiter in reversed(node._pending.pop(self.target)):\n",
    ),
    "a-later-waiter-replaces-the-earlier-ones": (
        "                waiters.append(self)\n",
        "                node._pending[self.target] = [self]\n",
    ),
}


@pytest.mark.parametrize("name", sorted(_WAITER_MUTATIONS))
def test_seeded_waiter_mutation_is_caught(name, tmp_path):
    anchor, replacement = _WAITER_MUTATIONS[name]
    assert_selected_tests_fail(
        tmp_path, "cluster/fastpath.py", anchor, replacement, __file__, "three_waiters"
    )


class TestDisks:
    def test_two_disks_overlap_reads(self):
        for oracle in LIFECYCLES:
            # Two equally popular files: striping puts one on each disk.
            single = _cluster(oracle, [0, 1], [4096, 4096], concurrent=True)
            double = _cluster(
                oracle, [0, 1], [4096, 4096], concurrent=True, disks_per_node=2
            )
            assert double.run().sim_time_s < single.run().sim_time_s

    def test_striping_assignment_used(self):
        engine = Engine()
        node = _node(engine, num_disks=2)
        node.disk_of_target = [1, 0]
        assert node.disk_for(0) is node.disks[1]
        assert node.disk_for(1) is node.disks[0]

    def test_invalid_disk_count(self):
        with pytest.raises(ValueError):
            _node(Engine(), num_disks=0)


class TestHintedMode:
    """LB/GC: the front-end's cache model dictates each outcome, and the
    node obeys it without consulting a cache of its own."""

    def test_hit_hint_serves_from_memory(self):
        model = CostModel()
        for oracle in LIFECYCLES:
            sim = _cluster(oracle, [0, 0], [4096], policy="lb/gc")
            end = sim.run().sim_time_s
            # The second request is a predicted hit: no second disk read.
            assert end == pytest.approx(
                2 * model.cached_request_time(4096) + model.disk_read_time(4096)
            )
            assert sim.nodes[0].cache_hits == 1
            assert sim.nodes[0].disk_reads == 1

    def test_miss_hint_reads_disk(self):
        for oracle in LIFECYCLES:
            sim = _cluster(oracle, [0], [4096], policy="lb/gc")
            sim.run()
            assert sim.nodes[0].cache_misses == 1
            assert sim.nodes[0].disk_reads == 1

    def test_miss_hints_coalesce(self):
        for oracle in LIFECYCLES:
            # Two predicted misses on one file (the second larger than
            # the model's whole cache, so it cannot be a predicted hit).
            sim = _cluster(
                oracle, [0, 0], [2 * 10**6], policy="lb/gc", concurrent=True
            )
            sim.run()
            assert sim.nodes[0].disk_reads == 1
            assert sim.nodes[0].coalesced_reads == 1


class TestGMSMode:
    def test_remote_hit_charges_holder_cpu(self):
        for oracle in LIFECYCLES:
            # WRR alternates: node 0 reads the file, node 1 then finds it
            # in node 0's memory.
            sim = _cluster(oracle, [0, 0], [4096], policy="wrr/gms", num_nodes=2)
            sim.run()
            assert sim.nodes[0].disk_reads == 1
            assert sim.nodes[1].gms_remote_hits == 1
            # Holder's CPU did the fetch work on top of its own request.
            model = CostModel()
            assert sim.nodes[0].cpu.busy_time() == pytest.approx(
                model.cached_request_time(4096) + model.gms_fetch_time(4096)
            )

    def test_gms_miss_goes_to_disk(self):
        for oracle in LIFECYCLES:
            sim = _cluster(oracle, [0], [4096], policy="wrr/gms")
            sim.run()
            assert sim.nodes[0].disk_reads == 1

    def test_exactly_one_of_cache_or_gms(self):
        engine = Engine()
        with pytest.raises(ValueError):
            BackendNode(engine, 0, CostModel(), None, gms=None)
        with pytest.raises(ValueError):
            BackendNode(
                engine,
                0,
                CostModel(),
                GDSCache(100),
                gms=GlobalMemorySystem(1, 100),
            )


def test_counters_and_bytes():
    for oracle in LIFECYCLES:
        sim = _cluster(oracle, [0, 1], [1000, 2000], concurrent=True)
        sim.run()
        node = sim.nodes[0]
        assert node.requests_served == 2
        assert node.bytes_served == 3000
        assert node.cpu_utilization() > 0
        assert node.disk_utilization() > 0
