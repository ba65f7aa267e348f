"""Unit tests for Greedy-Dual-Size replacement.

``GDSCache.access`` carries its own copy of the insert for a cache of
exactly that class; a subclass (its ``_admits``, any hook) goes through
``Cache._insert`` and the hooks.  The replay tests at the end
hold the two paths to one another, and the seeded mutations beside them
show they would notice a slip in the copy or in the choice of path.
"""

import dataclasses
import random

import pytest

from repro.cache import GDSCache
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


#: name -> (anchor in cache/gds.py, replacement, ``-k`` selector).
_MUTATIONS = {
    "fused-insert-forgets-the-inflation": (
        "\n        credit = self._inflation + (1.0 / size if size > 0 else 1.0)\n",
        "\n        credit = 1.0 / size if size > 0 else 1.0\n",
        "fused_miss_path_is_the_hook_path",
    ),
    "fused-insert-taken-whatever-the-subclass-admits": (
        "self._fused_insert = type(self) is GDSCache\n",
        "self._fused_insert = True\n",
        "admission_filter_is_honoured",
    ),
}


@pytest.mark.parametrize("name", sorted(_MUTATIONS))
def test_seeded_mutation_is_caught(name, tmp_path):
    anchor, replacement, selector = _MUTATIONS[name]
    assert_selected_tests_fail(
        tmp_path, "cache/gds.py", anchor, replacement, __file__, selector
    )
