"""Unit tests for weighted round-robin."""

import pytest

from repro.core import PolicyError, WeightedRoundRobin


def test_equal_load_rotates_round_robin():
    policy = WeightedRoundRobin(3)
    chosen = []
    for _ in range(6):
        node = policy.choose("t", 1)
        chosen.append(node)
        policy.on_dispatch(node)
        policy.on_complete(node)  # keep loads equal
    assert chosen == [0, 1, 2, 0, 1, 2]


def test_prefers_least_loaded():
    policy = WeightedRoundRobin(3)
    policy.on_dispatch(0)
    policy.on_dispatch(0)
    policy.on_dispatch(1)
    assert policy.choose("t", 1) == 2


def test_weighting_balances_unequal_completion_rates():
    """A node that never completes ends up with at most its fair share."""
    policy = WeightedRoundRobin(2)
    dispatched = [0, 0]
    for _ in range(100):
        node = policy.choose("t", 1)
        policy.on_dispatch(node)
        dispatched[node] += 1
        if node == 1:
            policy.on_complete(1)  # node 1 completes instantly
    # Node 0 accumulates load, so node 1 should absorb nearly everything.
    assert dispatched[1] > 90


def test_ignores_target_content():
    """WRR is content-oblivious: same decision stream regardless of target."""
    a = WeightedRoundRobin(4)
    b = WeightedRoundRobin(4)
    seq_a, seq_b = [], []
    for i in range(20):
        node = a.choose("always-same", 1)
        seq_a.append(node)
        a.on_dispatch(node)
        node = b.choose(f"different-{i}", 1)
        seq_b.append(node)
        b.on_dispatch(node)
    assert seq_a == seq_b


def test_failure_skips_dead_node_in_rotation():
    policy = WeightedRoundRobin(3)
    policy.on_node_failure(1)
    chosen = []
    for _ in range(4):
        node = policy.choose("t", 1)
        chosen.append(node)
        policy.on_dispatch(node)
        policy.on_complete(node)
    assert chosen == [0, 2, 0, 2]


def test_rotation_wraps_past_dead_nodes_at_the_ring_ends():
    policy = WeightedRoundRobin(4)
    policy.on_node_failure(0)
    policy.on_node_failure(3)
    chosen = []
    for _ in range(5):
        node = policy.choose("t", 1)
        chosen.append(node)
        policy.on_dispatch(node)
    assert chosen == [1, 2, 1, 2, 1]


def test_no_alive_node_raises_policy_error():
    """Unreachable through the public contract (the last alive node cannot
    be failed); pinned so the walk fails instead of spinning."""
    policy = WeightedRoundRobin(2)
    policy._alive[:] = [False, False]
    policy._dead_count = 2
    with pytest.raises(PolicyError, match="no alive back-end"):
        policy.choose("t", 1)


def test_name():
    assert WeightedRoundRobin(2).name == "wrr"
