"""Unit tests for consistent hashing with bounded loads (``chash``)."""

import pytest

from repro.core import ConsistentHashBounded, PolicyError, make_policy


def _chash(n=4, **kw):
    kw.setdefault("t_low", 25)
    kw.setdefault("t_high", 65)
    return ConsistentHashBounded(n, **kw)


def _load(policy, node, amount):
    for _ in range(amount):
        policy.on_dispatch(node)


class TestLocality:
    def test_same_target_same_node_when_unloaded(self):
        policy = _chash(8)
        nodes = {policy.choose("target-x", 1) for _ in range(20)}
        assert len(nodes) == 1

    def test_distinct_targets_spread_over_ring(self):
        policy = _chash(8)
        owners = {policy.choose(f"t{i}", 1) for i in range(500)}
        assert len(owners) == 8  # every node owns some arc


class TestBoundedLoad:
    def test_overloaded_owner_spills_to_successor(self):
        policy = _chash(4, bound_factor=1.25)
        owner = policy.choose("hot", 1)
        # Saturate the owner far past any bound the other nodes allow.
        _load(policy, owner, 40)
        spilled = policy.choose("hot", 1)
        assert spilled != owner
        assert policy.spills == 1
        # The spill successor is deterministic for a fixed occupancy.
        assert policy.choose("hot", 1) == spilled

    def test_bound_invariant_under_skewed_stream(self):
        import math

        policy = _chash(4, bound_factor=1.25)
        for i in range(200):
            target = "hot" if i % 2 == 0 else f"t{i}"
            node = policy.choose(target, 1)
            # Check the invariant *before* dispatching, as choose() does.
            budget = policy.bound_factor * (policy.total_load + 1)
            assert policy.loads[node] < math.ceil(budget / 4)
            policy.on_dispatch(node)

    def test_load_release_restores_owner(self):
        policy = _chash(4, bound_factor=1.25)
        owner = policy.choose("hot", 1)
        _load(policy, owner, 40)
        assert policy.choose("hot", 1) != owner
        for _ in range(40):
            policy.on_complete(owner)
        assert policy.choose("hot", 1) == owner


class TestMembership:
    def test_failure_only_remaps_failed_nodes_targets(self):
        policy = _chash(8)
        targets = [f"t{i}" for i in range(300)]
        before = {t: policy.choose(t, 1) for t in targets}
        dead = before[targets[0]]
        policy.on_node_failure(dead)
        after = {t: policy.choose(t, 1) for t in targets}
        for t in targets:
            if before[t] != dead:
                assert after[t] == before[t]  # consistent-hash stability
            else:
                assert after[t] != dead

    def test_rejoin_restores_original_mapping(self):
        policy = _chash(8)
        targets = [f"t{i}" for i in range(300)]
        before = {t: policy.choose(t, 1) for t in targets}
        policy.on_node_failure(3)
        policy.on_node_join(3)
        assert {t: policy.choose(t, 1) for t in targets} == before


class TestValidation:
    def test_bound_factor_must_exceed_one(self):
        with pytest.raises(PolicyError):
            _chash(2, bound_factor=1.0)

    def test_vnodes_must_be_positive(self):
        with pytest.raises(PolicyError):
            _chash(2, vnodes=0)

    @pytest.mark.parametrize("vnodes", [1.5, 64.0, True, "64"])
    def test_vnodes_must_be_an_integer(self, vnodes):
        with pytest.raises(PolicyError, match="vnodes must be an integer"):
            _chash(2, vnodes=vnodes)

    def test_factory_forwards_kwargs(self):
        policy = make_policy("chash", 4, bound_factor=2.0, vnodes=8)
        assert policy.bound_factor == 2.0
        assert policy.vnodes == 8

    def test_describe_mentions_bound(self):
        assert "c=1.25" in _chash(4).describe()


def test_rerun_determinism():
    def run():
        policy = _chash(8)
        out = []
        for i in range(500):
            node = policy.choose(f"t{i % 50}", 1)
            out.append(node)
            policy.on_dispatch(node)
            if i % 7 == 0 and policy.loads[node]:
                policy.on_complete(node)
        return out

    assert run() == run()
