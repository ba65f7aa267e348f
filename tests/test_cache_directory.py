"""Unit tests for the LB/GC global cache directory."""

import pytest

from repro.cache import CacheError, GlobalCacheDirectory


def test_first_route_is_a_miss():
    directory = GlobalCacheDirectory(2, 1000)
    decision = directory.route("a", 10)
    assert decision.predicted_hit is False
    assert 0 <= decision.node < 2


def test_repeat_route_hits_same_node():
    directory = GlobalCacheDirectory(4, 1000)
    first = directory.route("a", 10)
    second = directory.route("a", 10)
    assert second.predicted_hit is True
    assert second.node == first.node


def test_single_copy_invariant():
    directory = GlobalCacheDirectory(4, 1000)
    directory.route("a", 10)
    node = directory.locate("a")
    for _ in range(10):
        assert directory.route("a", 10).node == node


def test_warmup_spreads_over_nodes():
    directory = GlobalCacheDirectory(4, 100)
    nodes = {directory.route(f"t{i}", 60).node for i in range(4)}
    # Most-free-space placement fills all nodes before any eviction.
    assert nodes == {0, 1, 2, 3}


def test_full_cluster_evicts_globally_least_valuable():
    directory = GlobalCacheDirectory(2, 100)
    directory.route("big", 100)  # fills one node; credit 1/100
    directory.route("s1", 50)
    directory.route("s2", 50)  # the other node is full too; credit 1/50 each
    decision = directory.route("c", 100)
    assert decision.node == directory.locate("c")
    assert directory.locate("big") is None  # the lowest credit in the cluster
    assert directory.locate("s1") is not None and directory.locate("s2") is not None


def test_gds_mirror_prefers_evicting_large():
    directory = GlobalCacheDirectory(1, 100)
    directory.route("small", 2)
    directory.route("big", 90)
    directory.route("new", 50)
    assert directory.locate("small") == 0
    assert directory.locate("big") is None


def test_oversized_file_routed_but_not_mirrored():
    directory = GlobalCacheDirectory(2, 100)
    decision = directory.route("big", 1000)
    assert decision.predicted_hit is False
    assert directory.locate("big") is None
    # Every access to it stays a miss.
    assert directory.route("big", 1000).predicted_hit is False


def test_drop_node_forgets_and_reroutes():
    directory = GlobalCacheDirectory(2, 1000)
    directory.route("a", 10)
    node = directory.locate("a")
    directory.drop_node(node)
    assert directory.locate("a") is None
    other = 1 - node
    decision = directory.route("a", 10)
    assert decision.node == other
    assert decision.predicted_hit is False


def test_revive_node_resumes_routing():
    directory = GlobalCacheDirectory(2, 100)
    directory.drop_node(0)
    directory.revive_node(0)
    nodes = {directory.route(f"t{i}", 60).node for i in range(2)}
    assert nodes == {0, 1}


def test_node_used_bytes_tracks_mirror():
    directory = GlobalCacheDirectory(1, 1000)
    directory.route("a", 300)
    assert directory.node_used_bytes(0) == 300


def test_len_and_contains():
    directory = GlobalCacheDirectory(2, 1000)
    directory.route("a", 10)
    assert "a" in directory
    assert len(directory) == 1


def test_invalid_construction():
    with pytest.raises(CacheError):
        GlobalCacheDirectory(0, 100)
    with pytest.raises(CacheError):
        GlobalCacheDirectory(2, 0)
    with pytest.raises(TypeError):  # GDS mirrors only: the keyword is gone
        GlobalCacheDirectory(2, 100, mirror_policy="lru")


def test_aggregation_beats_single_node():
    """The directory's whole point: n nodes cache ~n times more targets."""
    single = GlobalCacheDirectory(1, 100)
    quad = GlobalCacheDirectory(4, 100)
    targets = [(f"t{i}", 50) for i in range(8)]
    for name, size in targets:
        single.route(name, size)
        quad.route(name, size)
    single_hits = sum(single.route(n, s).predicted_hit for n, s in targets)
    quad_hits = sum(quad.route(n, s).predicted_hit for n, s in targets)
    assert quad_hits == len(targets)
    assert single_hits < quad_hits
