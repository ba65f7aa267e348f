"""Unit tests for LARD with replication (paper Figure 3 pseudo-code)."""

import pytest

from repro.core import LARDReplication, PolicyError


def _lardr(n=3, t_low=2, t_high=5, k=10.0, **kw):
    return LARDReplication(n, t_low=t_low, t_high=t_high, k_seconds=k, **kw)


def _load(policy, node, amount):
    for _ in range(amount):
        policy.on_dispatch(node)


class TestBasics:
    def test_first_request_creates_singleton_set(self):
        policy = _lardr()
        node = policy.choose("a", 1, now=0.0)
        assert policy.server_set("a") == {node}
        assert policy.assignments == 1

    def test_serves_least_loaded_replica(self):
        policy = _lardr()
        policy._server_sets  # internal access below via public API
        policy.choose("a", 1, now=0.0)
        policy._server_sets["a"].nodes = {0, 1}
        _load(policy, 0, 3)
        assert policy.choose("a", 1, now=0.0) == 1

    def test_stickiness_without_imbalance(self):
        policy = _lardr()
        node = policy.choose("a", 1, now=0.0)
        for _ in range(5):
            assert policy.choose("a", 1, now=1.0) == node
        assert policy.replication_degree("a") == 1


class TestReplication:
    def test_overload_adds_replica(self):
        policy = _lardr(3, t_low=2, t_high=5)
        node = policy.choose("a", 1, now=0.0)
        _load(policy, node, 6)  # > T_high, others idle
        new = policy.choose("a", 1, now=1.0)
        assert new != node
        assert policy.server_set("a") == {node, new}
        assert policy.replications == 1

    def test_replica_set_can_keep_growing(self):
        policy = _lardr(4, t_low=2, t_high=5)
        first = policy.choose("a", 1, now=0.0)
        _load(policy, first, 6)
        second = policy.choose("a", 1, now=1.0)
        _load(policy, second, 6)
        third = policy.choose("a", 1, now=2.0)
        assert policy.replication_degree("a") == 3
        assert len({first, second, third}) == 3

    def test_no_replication_without_imbalance(self):
        policy = _lardr()
        policy.choose("a", 1, now=0.0)
        for t in range(20):
            policy.choose("a", 1, now=float(t))
        assert policy.replications == 0


class TestDecay:
    def test_stable_set_shrinks_after_k(self):
        policy = _lardr(3, t_low=2, t_high=5, k=10.0)
        node = policy.choose("a", 1, now=0.0)
        _load(policy, node, 6)
        policy.choose("a", 1, now=1.0)  # replicates; lastMod = 1.0
        assert policy.replication_degree("a") == 2
        # Within K: no shrink.
        policy.choose("a", 1, now=5.0)
        assert policy.replication_degree("a") == 2
        # Past K since last modification: most loaded replica removed.
        policy.choose("a", 1, now=12.0)
        assert policy.replication_degree("a") == 1
        assert policy.shrinks == 1

    def test_shrink_removes_most_loaded(self):
        policy = _lardr(3, t_low=2, t_high=5, k=10.0)
        policy.choose("a", 1, now=0.0)
        policy._server_sets["a"].nodes = {0, 1}
        policy._server_sets["a"].last_mod = 0.0
        _load(policy, 0, 3)
        policy.choose("a", 1, now=20.0)
        assert policy.server_set("a") == {1}

    def test_shrink_resets_last_mod(self):
        policy = _lardr(3, t_low=2, t_high=5, k=10.0)
        policy.choose("a", 1, now=0.0)
        policy._server_sets["a"].nodes = {0, 1, 2}
        policy._server_sets["a"].last_mod = 0.0
        policy.choose("a", 1, now=11.0)  # one shrink
        assert policy.replication_degree("a") == 2
        policy.choose("a", 1, now=12.0)  # within K of the shrink: no change
        assert policy.replication_degree("a") == 2

    def test_singleton_never_shrinks(self):
        policy = _lardr(k=1.0)
        policy.choose("a", 1, now=0.0)
        policy.choose("a", 1, now=100.0)
        assert policy.replication_degree("a") == 1


class TestFailure:
    def test_failed_node_stripped_from_sets(self):
        policy = _lardr(3, t_low=2, t_high=5)
        node = policy.choose("a", 1, now=0.0)
        _load(policy, node, 6)
        other = policy.choose("a", 1, now=1.0)
        policy.on_node_failure(node)
        assert policy.server_set("a") == {other}

    def test_empty_set_target_reassigned(self):
        policy = _lardr(2)
        node = policy.choose("a", 1, now=0.0)
        policy.on_node_failure(node)
        new = policy.choose("a", 1, now=1.0)
        assert new != node
        assert policy.server_set("a") == {new}


class TestMappingTable:
    def test_bounded_mappings(self):
        policy = _lardr(max_mappings=2)
        policy.choose("a", 1, now=0.0)
        policy.choose("b", 1, now=0.0)
        policy.choose("c", 1, now=0.0)
        assert policy.mapping_count == 2
        assert policy.server_set("a") == set()
        assert policy.mapping_evictions == 1


def test_validation():
    with pytest.raises(PolicyError):
        LARDReplication(2, max_mappings=0)


@pytest.mark.parametrize("k_seconds", [0.0, -1.0, float("nan")])
def test_k_seconds_must_be_positive(k_seconds):
    """NaN used to pass ``k <= 0`` and then never shrink a replica set:
    no elapsed time compares greater than it."""
    with pytest.raises(PolicyError, match="k_seconds must be positive"):
        LARDReplication(2, k_seconds=k_seconds)


def test_name():
    assert LARDReplication(2).name == "lard/r"


class TestShrinkTieBreak:
    """Regression: under uniform loads the most-loaded tie-break must pick a
    replica distinct from the least-loaded one, so the K-seconds shrink
    never discards the node just selected to serve (old code resolved both
    scans to the same lowest-id node and silently re-picked)."""

    def test_uniform_load_shrink_discards_distinct_replica(self):
        policy = _lardr(3, t_low=2, t_high=5, k=10.0)
        policy.choose("a", 1, now=0.0)
        policy._server_sets["a"].nodes = {0, 1}
        for node in range(3):
            _load(policy, node, 1)  # uniform loads: every scan ties
        node = policy.choose("a", 1, now=20.0)  # 20 s > K since last_mod
        assert node == 0  # least loaded replica, lowest id wins ties
        assert policy.server_set("a") == {0}  # the *other* replica was shed
        assert policy.shrinks == 1

    def test_most_loaded_tie_break_prefers_highest_id(self):
        policy = _lardr(4, t_low=2, t_high=5, k=10.0)
        policy.choose("a", 1, now=0.0)
        policy._server_sets["a"].nodes = {0, 1, 2}
        node = policy.choose("a", 1, now=20.0)  # all loads zero: full tie
        assert node == 0
        assert policy.server_set("a") == {0, 1}  # highest id (2) discarded

    def test_dispatch_after_shrink_goes_to_survivor(self):
        # Figure 3 dispatches after the shrink: when the imbalance branch
        # re-points the request at the least-loaded node overall and the
        # decayed shrink then removes it, the request must fall back to a
        # surviving replica, never the removed one.
        policy = _lardr(2, t_low=2, t_high=5, k=10.0)
        policy.choose("a", 1, now=0.0)
        policy._server_sets["a"].nodes = {0, 1}
        _load(policy, 0, 6)  # replica 0 overloaded
        _load(policy, 1, 12)  # replica 1 the most loaded
        node = policy.choose("a", 1, now=20.0)
        assert node in policy.server_set("a")
