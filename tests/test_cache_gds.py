"""Unit tests for Greedy-Dual-Size replacement.

``GDSCache.access`` carries its own copy of the insert for a cache of
exactly that class; a subclass (its ``_admits``, any hook) goes through
``Cache._insert`` and the hooks.  The replay tests hold the two paths
to one another.  The heap holds one entry per cached file and re-keys a
stale one when it surfaces; the implementation that did it by lazy
deletion (``tests/gds_reference.py``) is the oracle of that, driven
step for step with the same stream.  The seeded mutations at the end
show the tests would notice a slip in any of it.
"""

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import GDSCache
from tests.gds_reference import LazyDeletionGDSCache
from tests.seeded_mutation import assert_selected_tests_fail


def test_basic_hit_miss():
    cache = GDSCache(100)
    assert cache.access("a", 10) is False
    assert cache.access("a", 10) is True


def test_prefers_evicting_large_files():
    # GDS(1): credit = L + 1/size, so the big file has the lowest credit.
    cache = GDSCache(100)
    cache.access("small", 2)
    cache.access("big", 90)
    cache.access("new", 20)  # needs room: big must go first
    assert "small" in cache
    assert "big" not in cache
    assert "new" in cache


def test_recency_still_matters_via_inflation():
    cache = GDSCache(100)
    cache.access("a", 50)
    cache.access("b", 50)
    # Evict a (same size, lower seq -> equal credit, a pushed first).
    cache.access("c", 50)
    assert "a" not in cache
    # After the eviction, L has inflated; a re-inserted now outranks b.
    cache.access("a", 50)
    assert "b" not in cache
    assert "a" in cache


def test_inflation_is_monotonic():
    cache = GDSCache(64)
    last = cache.inflation
    for i in range(50):
        cache.access(f"t{i}", 16)
        assert cache.inflation >= last
        last = cache.inflation


def test_hit_refreshes_credit_above_inflation():
    cache = GDSCache(100)
    cache.access("a", 10)
    first = cache.credit_of("a")
    cache.access("b", 90)  # may evict nothing yet (fits exactly)
    cache.access("a", 10)
    assert cache.credit_of("a") >= first


def test_credit_formula_unit_cost():
    cache = GDSCache(1000)
    cache.access("a", 4)
    assert cache.credit_of("a") == pytest.approx(0.25)  # L=0 + 1/4


def test_zero_byte_file_has_finite_credit():
    cache = GDSCache(100)
    cache.access("empty", 0)
    assert cache.credit_of("empty") == pytest.approx(1.0)
    assert "empty" in cache


def test_capacity_invariant_under_churn():
    cache = GDSCache(500)
    for i in range(200):
        cache.access(f"t{i % 37}", (i * 13) % 90 + 1)
        assert cache.used_bytes <= 500


def test_next_victim_credit_matches_actual_victim():
    cache = GDSCache(100)
    cache.access("small", 2)
    cache.access("big", 90)
    credit = cache.next_victim_credit()
    assert credit == pytest.approx(cache.credit_of("big"))
    cache.access("x", 50)  # forces the eviction
    assert "big" not in cache


def test_next_victim_credit_empty():
    assert GDSCache(100).next_victim_credit() is None


def test_lazy_heap_compaction_keeps_behaviour():
    cache = GDSCache(1000)
    # Hammer two entries with hits to pile up stale heap entries.
    cache.access("a", 10)
    cache.access("b", 10)
    for _ in range(500):
        cache.access("a", 10)
        cache.access("b", 10)
    assert len(cache._heap) < 5000  # compaction bounded the garbage
    cache.access("c", 990)  # evicts a and b
    assert "c" in cache


def test_oversized_rejected():
    cache = GDSCache(100)
    cache.access("big", 101)
    assert "big" not in cache
    assert cache.stats.rejected == 1


def test_invalidate_then_no_stale_eviction():
    cache = GDSCache(100)
    cache.access("a", 40)
    cache.access("b", 40)
    cache.invalidate("a")
    cache.access("c", 60)  # fits in freed space, b must survive
    assert "b" in cache
    assert "c" in cache


# -- the fused miss path against Cache._insert ------------------------------------


class _HookPathGDS(GDSCache):
    """Admits what the default admits, through an override — which is
    what sends its misses down ``Cache._insert`` and the hooks."""

    def _admits(self, target, size):
        return True


class _SmallFilesOnlyGDS(GDSCache):
    def _admits(self, target, size):
        return size <= 40


def _stream(seed, length=3000):
    """Hits, misses, evictions, zero-byte and over-capacity files."""
    rng = random.Random(seed)
    for _ in range(length):
        target = int(rng.paretovariate(0.7)) % 150
        yield target, (0, 700)[target % 2] if target % 50 < 2 else 5 + 7 * (target % 23)


def _replay(cache, seed):
    """Everything a replay leaves behind, eviction order included."""
    evicted = []
    cache.evict_listener = lambda target, size: evicted.append((target, size))
    outcomes = [cache.access(target, size) for target, size in _stream(seed)]
    return (
        outcomes,
        dataclasses.asdict(cache.stats),
        cache.used_bytes,
        cache.inflation,
        dict(cache._sizes),
        dict(cache._credit),
        evicted,
    )


@pytest.mark.parametrize("seed", range(4))
def test_fused_miss_path_is_the_hook_path(seed):
    fused = GDSCache(600)
    hooks = _HookPathGDS(600)
    assert fused._fused_insert and not hooks._fused_insert
    expected = _replay(hooks, seed)
    assert expected[1]["evictions"] > 100 and expected[1]["rejected"] > 0
    assert _replay(fused, seed) == expected


def test_a_subclass_admission_filter_is_honoured():
    cache = _SmallFilesOnlyGDS(600)
    refused = set()
    for target, size in _stream(1):
        hit = cache.access(target, size)
        if size > 40:
            assert not hit and target not in cache
            refused.add(target)
    assert refused and cache.stats.rejected > len(refused)
    assert all(size <= 40 for size in cache._sizes.values())


# -- one heap entry per file, against the lazy-deletion heap ----------------------

#: Sizes repeat, so files share credits and the stamp decides between
#: them; 0 and 150 are the zero-byte and the never-cacheable file.
_SIZES = (10, 10, 10, 10, 20, 20, 20, 40, 40, 0, 150, 25)
_CAPACITY = 100

_STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("access"), st.integers(0, len(_SIZES) - 1)),
        st.tuples(st.just("access"), st.integers(0, len(_SIZES) - 1)),
        st.tuples(st.just("invalidate"), st.integers(0, len(_SIZES) - 1)),
        st.tuples(st.just("age"), st.sampled_from((0.0, 0.3, 0.5, 1.0))),
        st.tuples(st.just("clear"), st.none()),
    ),
    max_size=120,
)


class _Pair:
    """The cache and its oracle, fed the same calls."""

    def __init__(self, sizes=_SIZES, capacity=_CAPACITY):
        self.sizes = sizes
        self.caches = GDSCache(capacity), LazyDeletionGDSCache(capacity)
        self.evicted = [], []
        for cache, log in zip(self.caches, self.evicted):
            cache.evict_listener = lambda target, size, log=log: log.append((target, size))
        #: How often ``invalidate`` / ``clear`` has dropped each file: a
        #: file fetched again after one is a new name (see the
        #: reference's docstring for why it has to be).
        self.lives = [0] * len(sizes)

    def both(self, call):
        ours, theirs = (call(cache) for cache in self.caches)
        assert ours == theirs
        return ours

    def step(self, op, arg):
        if op == "access":
            self.both(lambda cache: cache.access((arg, self.lives[arg]), self.sizes[arg]))
        elif op == "invalidate":
            if self.both(lambda cache: cache.invalidate((arg, self.lives[arg]))):
                self.lives[arg] += 1
        elif op == "age":
            self.both(lambda cache: cache.age(arg))
        else:
            for name, _life in list(self.caches[0]):
                self.lives[name] += 1
            self.both(lambda cache: cache.clear())
        new, _old = self.caches
        assert self.evicted[0] == self.evicted[1]
        self.both(lambda cache: cache.inflation)
        self.both(lambda cache: cache.next_victim_credit())
        self.both(lambda cache: (dict(cache._sizes), cache.used_bytes, dict(cache._credit)))
        assert len(new._heap) == len(new)


@settings(max_examples=300, deadline=None)
@given(_STEPS)
def test_one_entry_per_file_is_the_lazy_deletion_heap(steps):
    pair = _Pair()
    for op, arg in steps:
        pair.step(op, arg)


def test_equal_credits_leave_in_the_order_they_were_set():
    """The case the property's repeated sizes are there for, spelled
    out: a hit while ``L`` stands still rewrites the same credit and
    keeps the file's place, in the heap or waiting to be re-keyed; a
    hit after ``L`` moved takes a new place, the one its stale heap
    entry is given when it surfaces."""
    pair = _Pair(sizes=(10,) * 8, capacity=40)
    for name in (0, 1, 2, 3):  # full at L = 0, one credit, stamps in this order
        pair.step("access", name)
    pair.step("access", 0)  # the same credit again: still the first to go
    pair.step("access", 4)  # evicts 0; L moves to 1/10
    pair.step("access", 3)  # re-credited behind 4; its heap entry is stale
    pair.step("access", 5)  # evicts 1; 5 is credited behind 3
    pair.step("access", 3)  # the same credit again: still ahead of 5
    pair.step("access", 6)  # evicts 2
    pair.step("access", 7)  # 3's entry surfaces and is re-keyed behind 4, which goes
    pair.step("access", 0)  # 3 goes, not 5
    assert [name for (name, _life), _size in pair.evicted[0]] == [0, 1, 2, 4, 3]


def test_the_reference_resurrects_a_removed_entry():
    """What the oracle does and the cache does not (and why the property
    renames a file it has invalidated): ``a`` is dropped and fetched
    again while ``L`` stands still, so in the lazy-deletion heap its old
    entry matches its credit once more and it leaves before ``b``, which
    has been in the cache for longer."""
    evicted = {}
    for cls in (GDSCache, LazyDeletionGDSCache):
        cache = cls(100)
        log = evicted[cls] = []
        cache.evict_listener = lambda target, size, log=log: log.append(target)
        cache.access("a", 50)
        cache.access("b", 50)
        cache.invalidate("a")
        cache.access("a", 50)
        del log[:]
        cache.access("c", 50)
    assert evicted[GDSCache] == ["b"]
    assert evicted[LazyDeletionGDSCache] == ["a"]


#: name -> (file under src/repro/cache, anchor, replacement, ``-k`` selector).
_MUTATIONS = {
    "fused-insert-forgets-the-inflation": (
        "gds.py",
        "\n        credit = self._inflation + (1.0 / size if size > 0 else 1.0)\n",
        "\n        credit = 1.0 / size if size > 0 else 1.0\n",
        "fused_miss_path_is_the_hook_path",
    ),
    "fused-insert-taken-whatever-the-subclass-admits": (
        "gds.py",
        "self._fused_insert = type(self) is GDSCache\n",
        "self._fused_insert = True\n",
        "admission_filter_is_honoured",
    ),
    "re-key-keeps-the-stale-stamp": (
        "base.py",
        "heapq.heapreplace(heap, (live, self._stamp[target], target))",
        "heapq.heapreplace(heap, (live, top[1], target))",
        "lazy_deletion_heap or equal_credits",
    ),
    "victim-entry-not-popped": (
        "base.py",
        "            heapq.heappop(heap)  # the victim just selected\n",
        "            pass\n",
        "lazy_deletion_heap or equal_credits",
    ),
    "a-hit-restamps-an-unchanged-credit": (
        "gds.py",
        "            if credit != self._credit[target]:\n                self._seq = seq",
        "            if True:\n                self._seq = seq",
        "lazy_deletion_heap or equal_credits",
    ),
}


@pytest.mark.parametrize("name", sorted(_MUTATIONS))
def test_seeded_mutation_is_caught(name, tmp_path):
    relpath, anchor, replacement, selector = _MUTATIONS[name]
    assert_selected_tests_fail(
        tmp_path, f"cache/{relpath}", anchor, replacement, __file__, selector
    )
