"""Metamorphic oracles: exact power-of-two time dilation, and target
relabelling (at the end of the file).

Every duration the simulator schedules is a cost constant divided by
``cpu_speed`` or ``disk_speed``, and the one time the policies read is
LARD/R's ``k_seconds``.  Halving both speeds and doubling ``k_seconds``
therefore multiplies every simulated time by two — *exactly*: scaling
by a power of two commutes with every float rounding (no value here is
near the subnormal or overflow range), so each sum, difference and
comparison of times lands on the doubled twin of what it was.  Event
order, policy decisions and cache contents cannot change; every time in
the result and in the span log must double to the last bit, and every
count and every ratio of times must stay what it was.

No digest recorded from this code's own earlier output is involved: the
relation is a property of the model, and a duration that did not come
from the cost model (a literal number of seconds in a stage) breaks it.
The seeded mutation below is exactly that.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.analysis.matrix import paper_scenario
from repro.cluster import ClusterConfig, CostModel, run_simulation
from repro.core import POLICY_NAMES
from repro.obs import read_span_log
from repro.workload import Trace, synthesize_trace
from tests.seeded_mutation import assert_selected_tests_fail

NUM_NODES = 4


def _trace():
    return synthesize_trace(5000, 400, 64 * 2**20, 1.0, seed=3)


def _run(policy, path, slowdown):
    """Result and span log with every duration scaled by ``slowdown``."""
    base = ClusterConfig()
    config = ClusterConfig(
        policy=policy,
        num_nodes=NUM_NODES,
        node_cache_bytes=2**20,
        collect_delays=True,
        costs=CostModel(cpu_speed=1.0 / slowdown, disk_speed=1.0 / slowdown),
        k_seconds=base.k_seconds * slowdown,
    )
    result = run_simulation(_trace(), config, trace_out=path)
    return result, read_span_log(path)


#: Result fields that are simulated seconds (or lists of them).
_TIMES = {"sim_time_s", "total_delay_s", "delays_s", "per_node_mean_delay_s"}


@pytest.mark.parametrize("policy", POLICY_NAMES)
def test_halving_every_speed_doubles_every_time_exactly(policy, tmp_path):
    base, base_log = _run(policy, tmp_path / "base.jsonl", 1.0)
    slow, slow_log = _run(policy, tmp_path / "slow.jsonl", 2.0)
    assert base.cache_misses > 0 and base.disk_reads > 0  # both resources in play
    for field in dataclasses.fields(base):
        was, now = getattr(base, field.name), getattr(slow, field.name)
        if field.name in _TIMES:
            doubled = [2.0 * v for v in was] if isinstance(was, list) else 2.0 * was
            assert now == doubled, field.name
        elif field.name == "throughput_rps":
            assert now == was / 2.0
        else:
            # Counts, and ratios of times: hits, misses, disk reads,
            # idle and busy fractions, bytes, connections.
            assert now == was, field.name
    assert len(base_log.spans) == len(slow_log.spans) == base.num_requests
    for was, now in zip(base_log.spans, slow_log.spans):
        doubled = dataclasses.replace(
            was,
            t_arrival=2.0 * was.t_arrival,
            t_dispatch=2.0 * was.t_dispatch,
            t_complete=2.0 * was.t_complete,
            phases={name: 2.0 * seconds for name, seconds in was.phases.items()},
        )
        assert now == doubled


# A duration that does not come from the cost model.
_MUTATION = (
    "cluster/fastpath.py",
    "                when = now + node._teardown_time\n",
    "                when = now + node._teardown_time + 1e-5\n",
)


def test_seeded_mutation_is_caught(tmp_path):
    assert_selected_tests_fail(tmp_path, *_MUTATION, __file__, "doubles and wrr")


# -- target relabelling --------------------------------------------------------
#
# A target id is a name.  Permute the ids (and ``sizes_by_target`` with
# them) and a policy that only ever compares ids for equality sees the
# same request stream: every decision, every cache and every time in the
# result is what it was, to the last bit.  The policies that *place* by
# a hash of the id are the complete list of exceptions: the permutation
# hands them different buckets, so they must differ (a hashed policy
# that did not would not be reading its hash).

#: Policies whose placement is a function of the id itself.
_PLACED_BY_ID_HASH = {"lb", "chash", "pod/lc"}


@pytest.fixture(scope="module")
def relabelled_pair():
    trace = paper_scenario("rice", 20_000, 0.1).build_trace()
    permutation = np.random.default_rng(7).permutation(trace.num_targets)
    sizes = np.empty_like(trace.sizes_by_target)
    sizes[permutation] = trace.sizes_by_target
    return trace, Trace(permutation[trace.targets], sizes, name=trace.name)


@pytest.mark.parametrize("policy", POLICY_NAMES)
def test_relabelling_targets_changes_nothing_unless_the_policy_hashes_ids(
    policy, relabelled_pair
):
    config = ClusterConfig(
        policy=policy, num_nodes=NUM_NODES, node_cache_bytes=3 * 2**20, collect_delays=True
    )
    was, now = (dataclasses.asdict(run_simulation(trace, config)) for trace in relabelled_pair)
    assert was["cache_misses"] > 0 and was["cache_hits"] > 0
    if policy in _PLACED_BY_ID_HASH:
        assert now != was
        assert now["sim_time_s"] == pytest.approx(was["sim_time_s"], rel=0.1)
    else:
        for name in was:
            assert now[name] == was[name], name


# A tie-break that reads the id: first assignments start their
# least-loaded scan at a node the target's number picks.
_RELABEL_MUTATION = (
    "core/lard.py",
    "        if node is None:\n            node = self.least_loaded_node()\n",
    "        if node is None:\n"
    "            node = self.least_loaded_node(target % self.num_nodes)\n",
)


def test_seeded_relabelling_mutation_is_caught(tmp_path):
    assert_selected_tests_fail(tmp_path, *_RELABEL_MUTATION, __file__, "relabelling and lard")
