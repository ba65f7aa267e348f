"""Analytic oracle for the node model: closed forms, not self-comparison.

Every other pin on the request lifecycle is byte-identity against
ourselves (state machine vs generator oracle, parent vs change digests,
golden CSVs written by the code they guard).  Here the simulator runs
degenerate configurations whose answers follow from the paper's cost
constants alone (Section 3.1: 145 us establishment and teardown, 40 us
per 512 bytes transmitted, 28 ms + 410 us per 4 KB read, 14 ms more per
further 44 KB) and is held to them:

* one node whose cache holds the whole catalog: every repeat is a hit,
  the CPU serves three jobs a request and is busy exactly the sum of
  their service times, and a warm target is served at
  ``1 / (145 us + transmit + 145 us)``;
* one node, one disk, all-distinct targets admitted at once: a D/D/1
  queue at the disk, whose busy time, utilisation, makespan and total
  delay are sums of ``DiskTimes.single``;
* a file of several 44 KB chunks: its plan is ``CostModel.disk_chunks``;
* WRR over identical nodes and identical requests: per-node dispatch
  counts within one of each other.

Each runs in every shape the state machine has — plain, persistent (the
same connection class with batches of 4: establishment and teardown
once a connection), faulty with an empty schedule, and sanitized —
against that shape's own closed form.  The expected values are built from
``CostModel``'s methods and ``math.fsum``, never from the state
machine's tables, so the check is also a check of the tables
``FrontEnd.disk_times`` memoizes.
"""

import math

import pytest

from repro.cluster import ClusterConfig, ClusterSimulator, CostModel
from repro.cluster.faults import FaultSchedule
from repro.workload import Trace
from tests.seeded_mutation import assert_selected_tests_fail

COSTS = CostModel()
E = COSTS.connection_time()
TD = COSTS.teardown_time()
REL = 1e-12

#: Run shape -> the config fields that select it.
CLASSES = {
    "plain": dict(),
    "persistent": dict(requests_per_connection=4),
    "faulty": dict(fault_schedule=FaultSchedule()),
    "sanitized": dict(sanitize=True, sanitize_interval=16),
}
_classes = pytest.mark.parametrize("cls", sorted(CLASSES))


def _run(cls, targets, sizes, **config):
    config = {"policy": "wrr", "num_nodes": 1, "node_cache_bytes": 2**30, **config}
    sim = ClusterSimulator(
        Trace(targets, sizes, name="analytic"), ClusterConfig(**CLASSES[cls], **config)
    )
    return sim, sim.run()


def _connections(cls, requests):
    per_conn = CLASSES[cls].get("requests_per_connection", 1)
    return -(-requests // per_conn)


def _cpu_seconds(cls, sizes_served):
    """CPU busy time of serving ``sizes_served`` (single-chunk files):
    one transmit a request, one establishment and teardown a connection."""
    return math.fsum(
        [COSTS.transmit_time(size) for size in sizes_served]
        + [E + TD] * _connections(cls, len(sizes_served))
    )


# -- one node, everything cached ---------------------------------------------------


@_classes
@pytest.mark.parametrize("in_flight", [1, None], ids=["sequential", "pipelined"])
def test_cached_node_serves_three_cpu_jobs_a_request(cls, in_flight):
    """Zipf-ish repeats over a small catalog: the first touch of a file
    reads it, every later one hits, and the CPU's books are the sum of
    what was served — whether requests queue behind each other at the
    CPU (``pipelined``: waiters are promoted) or never meet."""
    sizes = [300 + 977 * t for t in range(24)]  # 300 B .. 22 KB, one chunk each
    targets = [(7 * i * i + 3 * i) % 24 for i in range(600)]
    sim, result = _run(cls, targets, sizes, max_in_flight=in_flight)
    node = sim.nodes[0]
    requests, connections = len(targets), _connections(cls, len(targets))
    distinct = len(set(targets))
    assert node.cpu.jobs_served == requests + 2 * connections
    assert result.connections == connections
    assert result.cache_hits + result.cache_misses == requests
    assert result.disk_reads == distinct
    assert node.disks[0].jobs_served == distinct
    if in_flight == 1:
        assert (result.cache_hits, result.coalesced_reads) == (requests - distinct, 0)
    else:
        # A repeat that arrives while the file is still being read waits
        # for that read: a miss that costs no disk time.
        assert result.cache_misses == distinct + result.coalesced_reads
    busy = _cpu_seconds(cls, [sizes[t] for t in targets])
    assert node.cpu.busy_time() == pytest.approx(busy, rel=REL)
    assert node.disks[0].busy_time() == pytest.approx(
        math.fsum(COSTS.disk_read_time(sizes[t]) for t in set(targets)), rel=REL
    )
    assert result.cpu_busy_fraction == node.cpu.busy_time() / result.sim_time_s
    assert result.disk_busy_fraction == node.disks[0].busy_time() / result.sim_time_s
    assert result.bytes_served == sum(sizes[t] for t in targets)
    if in_flight == 1:
        # Nothing overlaps: the run is as long as its services.
        assert result.sim_time_s == pytest.approx(
            busy + node.disks[0].busy_time(), rel=REL
        )


@_classes
def test_warm_target_is_served_at_the_cpu_rate(cls):
    """One target over and over, one connection at a time: a cold read,
    then every request at 145 us + transmit + 145 us (a persistent
    connection spreads the two 145 us over its four requests)."""
    size, requests = 8192, 400
    sim, result = _run(cls, [0] * requests, [size], max_in_flight=1)
    cold = COSTS.disk_read_time(size)
    warm = _cpu_seconds(cls, [size] * requests)
    assert result.sim_time_s == pytest.approx(cold + warm, rel=REL)
    assert result.throughput_rps == requests / result.sim_time_s
    assert requests / (result.sim_time_s - cold) == pytest.approx(requests / warm, rel=1e-9)
    if cls != "persistent":
        # The paper's own sanity figure: an 8 KB cached document at
        # ~1075 requests/s (2 * 145 us + 16 * 40 us = 930 us).
        assert warm / requests == pytest.approx(930e-6, rel=REL)
        assert requests / (result.sim_time_s - cold) == pytest.approx(1075.3, rel=1e-4)
    assert result.total_delay_s == pytest.approx(cold + warm, rel=REL)


# -- one node, one disk, nothing cached: D/D/1 ---------------------------------------


@_classes
def test_all_distinct_targets_make_the_disk_a_d_d_1_queue(cls):
    """Every target once, the whole trace admitted at t = 0: after the
    first establishment the disk never idles until the last read ends,
    so its busy time is the sum of the per-target disk times and the
    makespan is that sum plus one establishment in front and the last
    request's transmit and teardown behind."""
    sizes = [512 + 450 * t for t in range(96)]  # all under one 44 KB chunk
    targets = list(range(96))
    sim, result = _run(
        cls, targets, sizes, max_in_flight=len(targets), node_cache_bytes=1,
        collect_delays=True,
    )
    node, disk = sim.nodes[0], sim.nodes[0].disks[0]
    reads = [COSTS.disk_read_time(size) for size in sizes]
    # The table the state machine memoizes, against the cost model.
    assert node.disk_times.single == pytest.approx(reads, rel=REL)
    assert [COSTS.disk_chunks(size)[0][1] for size in sizes] == reads
    assert result.cache_hits == 0 and result.disk_reads == len(targets)
    assert disk.jobs_served == len(targets)
    assert disk.busy_time() == pytest.approx(math.fsum(reads), rel=REL)
    assert node.cpu.busy_time() == pytest.approx(_cpu_seconds(cls, sizes), rel=REL)
    assert result.disk_busy_fraction == disk.busy_time() / result.sim_time_s
    assert result.cpu_busy_fraction == node.cpu.busy_time() / result.sim_time_s
    if cls == "persistent":
        # Four requests share a connection, so reads reach the disk in
        # connection order, not trace order: same sums, other makespan.
        assert result.sim_time_s >= E + math.fsum(reads)
        return
    # Every establishment (96 * 145 us) is over before the first read
    # (28 ms) ends, and a transmit plus a teardown is shorter than any
    # read: reads run back to back in trace order, the CPU is idle when
    # each one ends.
    finished = [
        E + math.fsum(reads[: k + 1]) + COSTS.transmit_time(sizes[k]) + TD
        for k in range(len(targets))
    ]
    assert result.sim_time_s == pytest.approx(finished[-1], rel=REL)
    assert result.delays_s == pytest.approx(finished, rel=REL)
    assert result.total_delay_s == pytest.approx(math.fsum(finished), rel=REL)
    assert result.disk_busy_fraction == pytest.approx(
        math.fsum(reads) / finished[-1], rel=REL
    )


# -- files of several chunks -----------------------------------------------------------


@_classes
def test_multi_chunk_file_follows_the_chunk_plan(cls):
    """100 KB is three chunks (44 + 44 + 12 KB): 28 ms + transfer, then
    14 ms + transfer twice, each followed by its own transmit."""
    size = 100 * 1024
    chunks = COSTS.disk_chunks(size)
    assert [c for c, _ in chunks] == [44 * 1024, 44 * 1024, 12 * 1024]
    assert sum(t for _, t in chunks) == pytest.approx(
        28e-3 + 2 * 14e-3 + (11 + 11 + 3) * 410e-6, rel=REL
    )
    requests = 4
    sim, result = _run(cls, [0] * requests, [size], max_in_flight=1)
    node = sim.nodes[0]
    plan = node.disk_times.chunk_plan(0, size)
    assert [t for t, _ in plan] == [t for _, t in chunks]
    assert [units * 512 for _, units in plan] == [c for c, _ in chunks]
    transmits = [COSTS.transmit_time(c) for c, _ in chunks]
    connections = _connections(cls, requests)
    # One read (three disk services), then three hits.
    assert node.disks[0].jobs_served == 3
    assert node.disks[0].busy_time() == pytest.approx(COSTS.disk_read_time(size), rel=REL)
    assert node.cpu.jobs_served == 3 + (requests - 1) + 2 * connections
    cpu = math.fsum(
        transmits + [COSTS.transmit_time(size)] * (requests - 1) + [E + TD] * connections
    )
    assert node.cpu.busy_time() == pytest.approx(cpu, rel=REL)
    assert result.sim_time_s == pytest.approx(cpu + COSTS.disk_read_time(size), rel=REL)


# -- identical nodes ---------------------------------------------------------------------


@_classes
def test_wrr_spreads_identical_requests_evenly_over_identical_nodes(cls):
    """Eight equal nodes, equal requests, an admission window that fills
    them equally (a multiple of eight): the nodes run in lockstep, each
    completion refills the node it freed, and no node is ever more than
    one dispatch ahead.  (The paper's S for eight nodes is 479: the
    node that starts one connection short stays ahead in phase, and the
    counts end three apart — exchangeability needs the equal start.)"""
    requests = 1003  # not a multiple of 8, nor of 4 * 8
    sim, result = _run(cls, [0] * requests, [4096], num_nodes=8, max_in_flight=64)
    dispatches = sim.frontend.per_node_dispatches
    assert sum(dispatches) == result.connections == _connections(cls, requests)
    assert max(dispatches) - min(dispatches) <= 1
    served = [node.requests_served for node in sim.nodes]
    per_conn = CLASSES[cls].get("requests_per_connection", 1)
    assert sum(served) == requests
    assert max(served) - min(served) <= per_conn
    # Every node read the file once and served the rest from memory.
    assert result.disk_reads == 8
    assert [node.cpu.jobs_served for node in sim.nodes] == [
        s + 2 * d for s, d in zip(served, dispatches)
    ]


# -- what the state machine refuses ------------------------------------------------------


def test_state_machine_refuses_a_multi_server_resource():
    """The node is one CPU and its disks, each a single FCFS server
    (paper Section 3.1), and the stages book exactly that."""
    sim = ClusterSimulator(
        Trace([0], [4096], name="analytic"), ClusterConfig(policy="wrr", num_nodes=1)
    )
    sim.nodes[0].disks[0].capacity = 2
    with pytest.raises(ValueError, match="single-server"):
        sim.run()


# -- seeded mutation ---------------------------------------------------------------------

# A data service that finishes without folding its busy time into the
# resource's integral: every utilisation above comes out low.
_MUTATION = (
    "cluster/fastpath.py",
    "        res.jobs_served += 1\n        res._busy_integral += now - res._last_change\n"
    "        res._last_change = now\n        waiting = res._waiting\n        if waiting:\n"
    "            self.post(*waiting.popleft())\n"
    "        else:\n            res._busy = 0\n        plan = self.plan\n        i = self.plan_i\n"
    "        if i < len(plan):\n            self.plan_i = i + 1\n"
    "            resource, duration = plan[i]\n            self._enqueue_data(resource, duration)\n"
    "            return\n        node = self.node\n",
    "        res.jobs_served += 1\n"
    "        res._last_change = now\n        waiting = res._waiting\n        if waiting:\n"
    "            self.post(*waiting.popleft())\n"
    "        else:\n            res._busy = 0\n        plan = self.plan\n        i = self.plan_i\n"
    "        if i < len(plan):\n            self.plan_i = i + 1\n"
    "            resource, duration = plan[i]\n            self._enqueue_data(resource, duration)\n"
    "            return\n        node = self.node\n",
)


def test_seeded_mutation_is_caught(tmp_path):
    assert_selected_tests_fail(tmp_path, *_MUTATION, __file__, "d_d_1 and plain")
