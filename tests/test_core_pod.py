"""Unit tests for power-of-d-choices (``pod``) and cache-aware ``pod/lc``.

The probes come from :func:`repro.core.pod.draw`, the repo's own k-of-n
draw over the seeded generator's ``getrandbits``.  Its oracle is the
routine the recorded decision digests were taken with, CPython's
``Random.sample``: same members in the same order, and the generator
left at the same stream position.  The seeded mutation recorded beside
that test (the second index drawn below ``n`` instead of below what is
left of the pool) shows it has teeth.
"""

import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core import CacheAwarePowerOfD, PolicyError, PowerOfD, make_policy
from repro.core.pod import draw
from tests.seeded_mutation import assert_selected_tests_fail


def _load(policy, node, amount):
    for _ in range(amount):
        policy.on_dispatch(node)


class TestPowerOfD:
    def test_same_seed_same_decisions(self):
        def run(seed):
            policy = PowerOfD(8, seed=seed)
            out = []
            for i in range(200):
                node = policy.choose(f"t{i}", 1)
                out.append(node)
                policy.on_dispatch(node)
            return out

        assert run(1) == run(1)
        assert run(1) != run(2)

    def test_probes_prefer_less_loaded(self):
        # With d == n every request scans all nodes: pod degenerates to
        # least-loaded and must avoid the piled-up node.
        policy = PowerOfD(4, d=4)
        _load(policy, 0, 5)
        _load(policy, 1, 5)
        _load(policy, 2, 5)
        assert policy.choose("x", 1) == 3

    def test_only_alive_nodes_probed(self):
        policy = PowerOfD(4, d=2, seed=3)
        policy.on_node_failure(1)
        policy.on_node_failure(2)
        for i in range(100):
            assert policy.choose(f"t{i}", 1) in (0, 3)

    def test_d_clamped_to_alive_count(self):
        policy = PowerOfD(3, d=8)
        for node in (0, 1):
            policy.on_node_failure(node)
        assert policy.choose("x", 1) == 2

    def test_balances_better_than_single_choice(self):
        policy = PowerOfD(16, d=2, seed=0)
        for i in range(1600):
            policy.on_dispatch(policy.choose(f"t{i}", 1))
        # d=2 keeps the max within a small factor of the mean (100).
        assert max(policy.loads) < 150

    def test_d_must_be_positive(self):
        with pytest.raises(PolicyError):
            PowerOfD(4, d=0)

    @pytest.mark.parametrize("d", [1.5, 2.0, True, "2", None])
    def test_d_must_be_an_integer(self, d):
        # Used to build, then die inside Random.sample on the first request.
        with pytest.raises(PolicyError, match="d must be an integer"):
            PowerOfD(4, d=d)


class TestCacheAwarePowerOfD:
    def test_repeat_target_sticks_to_cached_probe(self):
        # d >= r probes every replica location, so the cached node is
        # always seen and (being no more loaded than the cold ones by
        # more than one connection) always preferred.
        policy = CacheAwarePowerOfD(16, d=3, replication=3, seed=0)
        first = policy.choose("hot", 1)
        policy.on_dispatch(first)
        hits = [policy.choose("hot", 1) for _ in range(10)]
        assert set(hits) == {first}
        assert policy.predicted_hits == 10
        assert policy.cold_dispatches == 1

    def test_probes_stay_within_replica_locations(self):
        policy = CacheAwarePowerOfD(16, d=2, replication=3, seed=1)
        locations = set(policy._replica_locations("hot"))
        assert len(locations) == 3
        for _ in range(50):
            assert policy.choose("hot", 1) in locations

    def test_overloaded_cached_probe_falls_back(self):
        policy = CacheAwarePowerOfD(16, d=16, replication=3, seed=0, t_low=2, t_high=5)
        first = policy.choose("hot", 1)
        _load(policy, first, 6)  # past t_high: cached probe not viable
        spill = policy.choose("hot", 1)
        assert spill != first
        assert policy.cold_dispatches == 2
        # The spill node is now predicted to cache the target too.
        assert spill in policy._cached["hot"]

    def test_replication_one_degenerates_to_hash_partitioning(self):
        policy = CacheAwarePowerOfD(8, d=2, replication=1, seed=0)
        nodes = {policy.choose("t", 1) for _ in range(20)}
        assert len(nodes) == 1

    def test_failure_forgets_cache_predictions(self):
        policy = CacheAwarePowerOfD(8, d=8, replication=3, seed=0)
        node = policy.choose("hot", 1)
        policy.on_node_failure(node)
        assert node not in policy._cached["hot"]
        replacement = policy.choose("hot", 1)
        assert replacement != node
        assert policy.cold_dispatches == 2  # re-warm, not a predicted hit

    def test_locations_remap_on_membership_change(self):
        policy = CacheAwarePowerOfD(8, d=2, replication=3, seed=0)
        before = policy._replica_locations("t")
        policy.on_node_failure(before[0])
        after = policy._replica_locations("t")
        assert before[0] not in after
        assert len(after) == 3

    def test_replication_must_be_positive(self):
        with pytest.raises(PolicyError):
            CacheAwarePowerOfD(4, replication=0)

    @pytest.mark.parametrize("replication", [2.5, 3.0, True, "3"])
    def test_replication_must_be_an_integer(self, replication):
        # 2.5 used to run, silently, with three replicas.
        with pytest.raises(PolicyError, match="replication must be an integer"):
            CacheAwarePowerOfD(4, replication=replication)
        with pytest.raises(PolicyError, match="d must be an integer"):
            CacheAwarePowerOfD(4, d=1.5)

    def test_factory_forwards_kwargs(self):
        policy = make_policy("pod/lc", 8, d=3, replication=5, seed=7)
        assert (policy.d, policy.replication, policy.seed) == (3, 5, 7)

    def test_rerun_determinism(self):
        def run():
            policy = CacheAwarePowerOfD(12, d=2, replication=3, seed=4)
            out = []
            for i in range(300):
                node = policy.choose(f"t{i % 30}", 1)
                out.append(node)
                policy.on_dispatch(node)
                if i == 100:
                    policy.on_node_failure(5)
                if i == 200:
                    policy.on_node_join(5)
            return out

        assert run() == run()


# -- the draw against its oracle ---------------------------------------------------


@settings(max_examples=400, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32),
    n=st.integers(min_value=1, max_value=64),
    k=st.integers(min_value=1, max_value=8),
    warm=st.integers(min_value=0, max_value=3),
)
def test_draw_is_random_sample_on_the_same_stream(seed, n, k, warm):
    """Both of ``sample``'s branches are in range: a pool for ``n <= 21``
    (and for every ``n`` here once ``k > 5``), a selection set above."""
    k = min(k, n)
    population = [3 * i + 1 for i in range(n)]
    ours, theirs = random.Random(seed), random.Random(seed)
    for _ in range(warm):  # not only from a fresh generator
        ours.getrandbits(32)
        theirs.getrandbits(32)
    assert draw(ours.getrandbits, population, k) == theirs.sample(population, k)
    assert ours.getrandbits(32) == theirs.getrandbits(32)
    assert population == [3 * i + 1 for i in range(n)]


def test_draw_covers_both_branches_of_sample():
    """The property above is only a proof if its range straddles the
    crossover: at k=2, n=21 draws from a pool and n=22 redraws."""
    for n in (21, 22):
        for seed in range(50):
            ours, theirs = random.Random(seed), random.Random(seed)
            population = list(range(n))
            assert draw(ours.getrandbits, population, 2) == theirs.sample(population, 2)
            assert ours.getrandbits(32) == theirs.getrandbits(32)


def test_draw_refuses_more_than_there_is():
    with pytest.raises(PolicyError, match="cannot draw 4 of 3"):
        draw(random.Random(0).getrandbits, [0, 1, 2], 4)


#: The second index drawn below ``n`` instead of below what is left.
_DRAW_MUTATION = (
    "core/pod.py",
    "            bits = left.bit_length()\n",
    "            left = n\n            bits = left.bit_length()\n",
)


def test_seeded_draw_mutation_is_caught(tmp_path):
    assert_selected_tests_fail(
        tmp_path, *_DRAW_MUTATION, __file__, "draw_is_random_sample"
    )
