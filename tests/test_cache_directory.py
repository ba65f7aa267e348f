"""Unit tests for the LB/GC global cache directory.

A miss looks for a mirror with room before it looks for the oldest
victim; the directory keeps an upper bound on the room there is, so on
full caches the first look is skipped.  ``_TwoWalkDirectory`` is the
routing without the bound, the oracle of the routing with it.
"""

import random

import pytest

from repro.cache import CacheError, GlobalCacheDirectory
from tests.seeded_mutation import assert_selected_tests_fail


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


# -- the free-space bound --------------------------------------------------------


class _TwoWalkDirectory(GlobalCacheDirectory):
    """Miss routing as it was on fa959e2: every alive mirror asked for
    its free space, then every alive mirror asked for its oldest victim,
    whatever an earlier miss found."""

    def _choose_miss_node(self, size):
        best_free = -1
        best_node = -1
        for node in range(self.num_nodes):
            if not self._alive[node]:
                continue
            free = self.node_capacity_bytes - self._mirror[node].used_bytes
            if free >= size and free > best_free:
                best_free = free
                best_node = node
        if best_node >= 0:
            return best_node
        oldest_key = None
        oldest_node = -1
        for node in range(self.num_nodes):
            if not self._alive[node]:
                continue
            key = self._mirror[node].next_victim_credit()
            if key is None:
                key = float("-inf")
            if oldest_key is None or key < oldest_key:
                oldest_key = key
                oldest_node = node
        if oldest_node < 0:
            raise CacheError("no alive back-end nodes to route to")
        return oldest_node


class _ProbeCountingList(list):
    """The mirror list, counting every mirror it hands out."""

    probes = 0

    def __getitem__(self, index):
        self.probes += 1
        return list.__getitem__(self, index)

    def __iter__(self):
        for mirror in list.__iter__(self):
            self.probes += 1
            yield mirror


@pytest.mark.parametrize("seed", range(6))
def test_bounded_routing_is_the_two_walk_routing(seed):
    """Files of many sizes, so that an eviction often frees more than
    the insert takes and a later, smaller file fits beside it; nodes
    fail and return cold in between."""
    rng = random.Random(seed)
    nodes = 4
    bounded = GlobalCacheDirectory(nodes, 200)
    two_walk = _TwoWalkDirectory(nodes, 200)
    down = set()
    routed_to_room = 0
    for step in range(4000):
        if step % 500 == 250:
            node = rng.randrange(nodes)
            if node in down:
                down.remove(node)
                for directory in (bounded, two_walk):
                    directory.revive_node(node)
            elif len(down) < nodes - 1:
                down.add(node)
                assert bounded.drop_node(node) == two_walk.drop_node(node)
        target = int(rng.paretovariate(0.6)) % 120
        size = (5, 17, 40, 90, 120, 250)[target % 6]
        full = all(
            bounded.node_capacity_bytes - bounded.node_used_bytes(n) < size
            for n in range(nodes) if n not in down
        )
        decision = bounded.route(target, size)
        assert decision == two_walk.route(target, size)
        routed_to_room += not decision.predicted_hit and not full
        assert bounded._where == two_walk._where
    assert 50 < routed_to_room < 2000  # both kinds of miss were routed


def test_a_miss_on_full_caches_walks_the_mirrors_once():
    """Fails on fa959e2, which asked all eight mirrors for their free
    space on every one of these misses (18 probes each) although the
    one before had found none."""
    nodes = 8
    directory = GlobalCacheDirectory(nodes, 100)
    for i in range(4 * nodes):
        directory.route(("warm", i), 25)  # every mirror exactly full
    directory._mirror = mirrors = _ProbeCountingList(directory._mirror)
    misses = 200
    for i in range(misses):
        assert not directory.route(("cold", i), 25).predicted_hit
    # The victim walk, the chosen mirror, and the first miss's look for room.
    assert mirrors.probes / misses <= nodes + 2


def test_seeded_mutation_of_the_free_space_bound_is_caught(tmp_path):
    """A bound that is never raised when an insert evicts more than it
    takes: the next small file is sent to evict where it would have fit."""
    assert_selected_tests_fail(
        tmp_path,
        "cache/directory.py",
        "        if free > self._free_bound:  # it evicted more than it took\n",
        "        if False:\n",
        __file__,
        "bounded_routing_is_the_two_walk_routing",
    )
