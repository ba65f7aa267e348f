"""Property-based tests over *every* registered policy.

Hypothesis drives each strategy in ``POLICY_NAMES`` through arbitrary
operation schedules — request, completion, node failure, node join —
interpreted modulo the current valid state (e.g. a "fail" op targets
some currently-alive node, never the last one).  Three invariants must
hold for every policy and every schedule:

1. **Alive-only choices** — ``choose`` never returns a dead node.
2. **Load conservation** — ``policy.loads`` always equals an
   independent model of outstanding connections (incremented per
   dispatch, decremented per completion, dropped wholesale when the
   node fails or rejoins).
3. **Rerun determinism** — replaying the identical schedule on a fresh
   instance reproduces the identical choice sequence (randomized
   policies are seeded).

The load helpers every strategy decides with (``least_loaded_node``,
``has_node_below``, the ``wrr`` rotation) answer from an incrementally
maintained bound and scan cursor instead of scanning the cluster; a
second family of tests holds them to the naive scans in
:mod:`tests.policy_oracle` under the same kind of schedule — driven
through ``Policy.on_complete`` and, inside a real run, through the copy
of it inlined in ``FastConnection._complete`` — and pins the 1024-node
decision streams to digests taken before the bound existed.  The
mutations recorded at the end (a completion that does not pull the
cursor back, in either copy; a dead node answered from the start
position) show both have teeth.
"""

import hashlib
import random

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from repro.cluster import ClusterConfig, ClusterSimulator, CrashFault, FaultSchedule
from repro.core import POLICY_NAMES, WeightedRoundRobin, make_policy
from repro.workload import synthesize_trace
from tests import policy_oracle
from tests.seeded_mutation import assert_selected_tests_fail

NUM_NODES = 5

#: Per-policy constructor kwargs (beyond num_nodes).
_KWARGS = {
    "lb/gc": {"node_cache_bytes": 2**18},
    "pod": {"seed": 0},
    "pod/lc": {"seed": 0},
}


def _make(name):
    return make_policy(name, NUM_NODES, **_KWARGS.get(name, {}))


# An abstract schedule is a list of (op_code, value) pairs; op weights
# favor requests so loads actually build up.  The concrete meaning of
# each op is resolved against the live policy state during replay.
_ops = st.lists(
    st.tuples(
        st.sampled_from(["req"] * 6 + ["done"] * 3 + ["fail", "join"]),
        st.integers(min_value=0, max_value=10**6),
    ),
    min_size=1,
    max_size=80,
)


def _replay(name, schedule, check_loads=True):
    """Run a schedule against a fresh policy; return the choice trace."""
    policy = _make(name)
    outstanding = [0] * NUM_NODES  # the independent load model
    alive = [True] * NUM_NODES
    choices = []
    now = 0.0
    for op, value in schedule:
        now += 1.0
        if op == "req":
            target = f"t{value % 40}"
            node = policy.choose(target, 1, now=now)
            choices.append(node)
            assert alive[node], f"{name} chose dead node {node}"
            policy.on_dispatch(node, target, 1)
            outstanding[node] += 1
        elif op == "done":
            busy = [n for n in range(NUM_NODES) if outstanding[n] > 0]
            if not busy:
                continue
            node = busy[value % len(busy)]
            policy.on_complete(node)
            outstanding[node] -= 1
        elif op == "fail":
            up = [n for n in range(NUM_NODES) if alive[n]]
            if len(up) <= 1:
                continue  # never fail the last node
            node = up[value % len(up)]
            policy.on_node_failure(node)
            alive[node] = False
            outstanding[node] = 0  # connections orphaned with the node
        else:  # join
            down = [n for n in range(NUM_NODES) if not alive[n]]
            if not down:
                continue
            node = down[value % len(down)]
            policy.on_node_join(node)
            alive[node] = True
            outstanding[node] = 0
        if check_loads:
            assert policy.loads == outstanding, (
                f"{name} loads {policy.loads} != model {outstanding} after {op}"
            )
    return choices


@pytest.mark.parametrize("name", POLICY_NAMES)
@settings(max_examples=25, deadline=None)
@given(schedule=_ops)
def test_invariants_hold_for_any_schedule(name, schedule):
    _replay(name, schedule)


@pytest.mark.parametrize("name", POLICY_NAMES)
@settings(max_examples=10, deadline=None)
@given(schedule=_ops)
def test_rerun_determinism(name, schedule):
    first = _replay(name, schedule, check_loads=False)
    second = _replay(name, schedule, check_loads=False)
    assert first == second


# -- load helpers vs the naive scan oracle ---------------------------------------

_helper_ops = st.lists(
    st.tuples(
        st.sampled_from(
            ["req"] * 4 + ["put"] * 4 + ["done"] * 5 + ["ask"] * 2 + ["fail", "join"]
        ),
        st.integers(min_value=0, max_value=10**6),
    ),
    min_size=1,
    max_size=200,
)


def _assert_helpers_match(policy, starts=()):
    """Every helper against its scan, at the thresholds around the minimum
    (where the answer flips) and at the paper's T_low; ``starts`` are
    ring positions to ask from besides id 0 (the ``wrr`` rotation)."""
    for start in starts:
        start %= policy.num_nodes
        expected = policy_oracle.least_loaded_node(policy, start)
        assert policy.least_loaded_node(start) == expected, (
            f"least_loaded_node({start}) with loads {policy.loads}"
        )
    least = policy_oracle.least_loaded_node(policy)
    assert policy.least_loaded_node() == least
    floor = policy.loads[least]
    for threshold in (floor - 1, floor, floor + 1, floor + 2, policy.t_low):
        assert policy.has_node_below(threshold) == policy_oracle.has_node_below(
            policy, threshold
        ), f"has_node_below({threshold}) with loads {policy.loads}"


def _assert_summaries_match(policy):
    """The incremental summaries against a recount (never raises the bound)."""
    alive_loads = [policy.loads[n] for n in policy.alive_nodes]
    assert policy._min_load <= min(alive_loads)
    assert not any(
        policy.loads[n] == policy._min_load
        for n in policy.alive_nodes
        if n < policy._min_cursor
    ), f"cursor {policy._min_cursor} passed a node at the bound: {policy.loads}"
    assert policy.total_load == sum(policy.loads)
    assert policy.alive_count == len(alive_loads)


@settings(max_examples=150, deadline=None)
@given(
    num_nodes=st.integers(min_value=1, max_value=64),
    eager=st.booleans(),
    schedule=_helper_ops,
)
# Witnesses, run first, so that a bug either shows fails at once rather
# than after a search and its shrinking.  A completion that brings node 0
# back to the bound after a scan moved the cursor past it:
@example(num_nodes=2, eager=False, schedule=[("put", 0), ("ask", 0), ("done", 0)])
# A dead node at load 0, asked from its own ring position:
@example(num_nodes=2, eager=False, schedule=[("fail", 0), ("ask", 0)])
def test_load_helpers_match_the_scan_oracle(num_nodes, eager, schedule):
    """``eager`` asks after every step (the bound is always fresh); the
    lazy runs only ask at ``ask`` ops, so the bound goes stale by several
    levels — under completions, failures and joins — before it is used.
    Every ask is from id 0 and from the op's own value as ring position."""
    policy = WeightedRoundRobin(num_nodes)
    for op, value in schedule:
        alive = policy.alive_nodes
        if op == "req":
            expected = policy_oracle.least_loaded_node(policy, policy._pointer)
            node = policy.choose("t", 1)
            assert node == expected, f"wrr chose {node}, scan says {expected}"
            policy.on_dispatch(node)
        elif op == "put":
            # A locality-style dispatch: to whichever node, not the least loaded.
            policy.on_dispatch(alive[value % len(alive)])
        elif op == "done":
            busy = [n for n in alive if policy.loads[n] > 0]
            if busy:
                policy.on_complete(busy[value % len(busy)])
        elif op == "fail":
            if len(alive) > 1:
                policy.on_node_failure(alive[value % len(alive)])
        elif op == "join":
            down = [n for n in range(num_nodes) if not policy.is_alive(n)]
            if down:
                policy.on_node_join(down[value % len(down)])
        _assert_summaries_match(policy)
        if eager or op == "ask":
            _assert_helpers_match(policy, (value, value // 7))
    _assert_helpers_match(policy, range(num_nodes))


@settings(max_examples=30, deadline=None)
@given(
    policy_name=st.sampled_from(["wrr", "lard", "lard/r"]),
    num_nodes=st.integers(min_value=2, max_value=12),
    seed=st.integers(min_value=0, max_value=10**6),
    every=st.integers(min_value=1, max_value=9),
    churn=st.booleans(),
)
# A witness for a completion that does not pull the cursor back: two
# nodes, the second left at the bound.  Run first, it fails at once, where
# a search fails too but then spends a minute shrinking and explaining.
@example(policy_name="wrr", num_nodes=2, seed=0, every=1, churn=False)
def test_load_helpers_match_the_scan_oracle_inside_a_run(
    policy_name, num_nodes, seed, every, churn
):
    """The same oracle where completions never reach ``on_complete``:
    ``FastConnection._complete`` carries its own copy of the bound and
    cursor updates.  Asked after every ``every``-th event of a real
    simulation (with a node failing and rejoining under ``churn``),
    through the engine's per-event hook."""
    trace = synthesize_trace(500, 60, 8 * 2**20, 1.0, seed=seed % 50)
    crash = CrashFault(seed % num_nodes, at_s=0.3, detect_s=0.0, rejoin_at_s=0.9)
    config = ClusterConfig(
        policy=policy_name,
        num_nodes=num_nodes,
        node_cache_bytes=2**19,
        fault_schedule=FaultSchedule(crashes=(crash,)) if churn else None,
    )
    simulator = ClusterSimulator(trace, config)
    policy = simulator.policy
    seen = [0]

    def ask(when, callback):
        seen[0] += 1
        _assert_summaries_match(policy)
        if seen[0] % every == 0:
            _assert_helpers_match(policy, (seen[0], seed))

    simulator.engine.install_sanitizer(ask)
    result = simulator.run()
    assert result.num_requests == 500 and seen[0] > 1500


# -- pinned decisions at 1024 nodes ------------------------------------------------

SCALE_NODES = 1024
SCALE_REQUESTS = 90_000

#: sha256 of the ``choose()`` sequence, taken on the commit before the
#: helpers stopped scanning (a491870).  ``churn`` adds two early failures
#: (while most nodes are still idle, node 0 among them), a late one, and
#: a rejoin with two nodes still down.
_DECISION_DIGESTS = {
    ("wrr", False): "05cb5185a7d4de904beda218039554216ff46264aefa410e3483d97bf24fc3ad",
    ("wrr", True): "7be294120e875609c256f610269249b587303404b4e664ddf78e72bc107e84bf",
    ("lard", False): "033f4d8b29ddcafeced3bbbd1bb8ba68d33876c718fa9b291917bb90aa69410e",
    ("lard", True): "90b5f9e54250c46540fd72bc12decf93da6aa1bc76c53fc957d77913da8cd881",
    ("lard/r", False): "245950239521bbabf49cbe84dd1c166e0c9ca131671206163385da8ebcf908d7",
    ("lard/r", True): "4fdf488fdc191a86fea216856c0bb7b6ff5e9dc84c1bbef16a0d3e289869e807",
    ("lb/gc", False): "3d47e7761e42a4455a09f4d97bd13ed5f8e3a08e1e49024955be7a06aadbc7ca",
    ("lb/gc", True): "a2b04c23998d30cc58585168b07512568e440a78090c3e6fa1c4dee1ab10451a",
    ("chash", False): "dc0a1688cfabf8508db7a0ef1b56b5b271c84f6a6d70c33d94807d5870a17f56",
    ("chash", True): "ff73bddf95a173c89f75ce597eb300cb2382dd2e04c86adc515d6da60bbcbc53",
    ("pod/lc", False): "0a3ca8e5b41d540c133525fb9831cab4c237586347f7d347cd8bd3f2a86e7442",
    ("pod/lc", True): "554aed8ceb65eb0b7272c874c1676d7841a3737363284b33a04065f60a4bf09d",
}

_CHURN = {300: ("fail", 17), 301: ("fail", 0), 70_000: ("fail", 1023), 80_000: ("join", 17)}


def _decision_digest(name, churn):
    """Heavy-tailed seeded stream; once the admission window S is in
    flight, each request completes one seeded-random connection."""
    policy = make_policy(name, SCALE_NODES, node_cache_bytes=2**20)
    rng = random.Random(20260928)
    window = policy.admission_limit
    in_flight = []
    digest = hashlib.sha256()
    now = 0.0
    for step in range(SCALE_REQUESTS):
        now += 0.01
        if churn and step in _CHURN:
            action, node = _CHURN[step]
            if action == "join":
                policy.on_node_join(node)
            else:
                policy.on_node_failure(node)
                in_flight = [c for c in in_flight if c != node]
        target = int(rng.paretovariate(0.6)) % 20011
        node = policy.choose(target, 2000 + 37 * (target % 300), now=now)
        digest.update(node.to_bytes(2, "big"))
        policy.on_dispatch(node)
        in_flight.append(node)
        if len(in_flight) > window:
            i = rng.randrange(len(in_flight))
            in_flight[i], in_flight[-1] = in_flight[-1], in_flight[i]
            policy.on_complete(in_flight.pop())
    return digest.hexdigest()


@pytest.mark.parametrize("name,churn", sorted(_DECISION_DIGESTS))
def test_decisions_at_1024_nodes_are_pinned(name, churn):
    assert _decision_digest(name, churn) == _DECISION_DIGESTS[(name, churn)]


# -- seeded mutations ----------------------------------------------------------------
#
# name -> (file under src/repro, anchor, replacement, ``-k`` expression
# selecting the tests that must fail on it).

_CURSOR_MUTATIONS = {
    "on-complete-does-not-pull-the-cursor-back": (
        "core/base.py",
        "            elif node < self._min_cursor:\n                self._min_cursor = node\n",
        "",
        "match_the_scan_oracle and not inside_a_run",
    ),
    "shortcut-answers-with-a-dead-start-node": (
        "core/base.py",
        "        if loads[start] == low and alive[start]:\n",
        "        if loads[start] == low:\n",
        "match_the_scan_oracle and not inside_a_run",
    ),
    "inlined-completion-does-not-pull-the-cursor-back": (
        "cluster/fastpath.py",
        "                elif node_id < policy._min_cursor:\n"
        "                    policy._min_cursor = node_id\n",
        "",
        "match_the_scan_oracle_inside_a_run",
    ),
}


@pytest.mark.parametrize("name", sorted(_CURSOR_MUTATIONS))
def test_seeded_cursor_mutation_is_caught(name, tmp_path):
    relpath, anchor, replacement, selector = _CURSOR_MUTATIONS[name]
    assert_selected_tests_fail(tmp_path, relpath, anchor, replacement, __file__, selector)
