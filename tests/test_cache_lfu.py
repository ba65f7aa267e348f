"""Unit tests for the LFU cache."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import LFUCache


def test_evicts_least_frequent():
    cache = LFUCache(100)
    cache.access("hot", 40)
    cache.access("hot", 40)
    cache.access("hot", 40)
    cache.access("cold", 40)
    cache.access("new", 40)  # evicts cold (freq 1) not hot (freq 3)
    assert "hot" in cache
    assert "cold" not in cache


def test_frequency_counter():
    cache = LFUCache(100)
    for _ in range(4):
        cache.access("a", 10)
    assert cache.frequency_of("a") == 4
    assert cache.frequency_of("missing") == 0


def test_tie_break_is_least_recent():
    cache = LFUCache(100)
    cache.access("first", 40)
    cache.access("second", 40)
    # Equal frequency: first is older -> evicted.
    cache.access("third", 40)
    assert "first" not in cache
    assert "second" in cache


def test_frequency_survives_until_eviction():
    cache = LFUCache(100)
    cache.access("a", 90)
    cache.access("a", 90)
    cache.access("b", 90)  # evicts a despite frequency 2 (only candidate)
    assert "a" not in cache
    # Re-inserting starts the count over.
    cache.access("a", 90)
    assert cache.frequency_of("a") == 1


def test_capacity_invariant_and_stats():
    cache = LFUCache(300)
    for i in range(100):
        cache.access(f"t{i % 11}", 50 + (i % 3))
        assert cache.used_bytes <= 300
    assert cache.stats.accesses == 100


def test_stale_heap_compaction():
    cache = LFUCache(100)
    cache.access("a", 50)
    for _ in range(600):
        cache.access("a", 50)
    assert len(cache._heap) < 4000
    cache.access("b", 60)  # evicts a
    assert "b" in cache
    assert "a" not in cache


_SIZES = (10, 10, 20, 20, 40, 40, 0, 150, 25)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.tuples(st.just("access"), st.integers(0, len(_SIZES) - 1)),
            st.tuples(st.just("access"), st.integers(0, len(_SIZES) - 1)),
            st.tuples(st.just("invalidate"), st.integers(0, len(_SIZES) - 1)),
            st.tuples(st.just("clear"), st.none()),
        ),
        max_size=100,
    )
)
def test_evictions_are_the_least_frequent_then_least_recent_by_recount(steps):
    """The heap (one entry per file, re-keyed when a stale one surfaces)
    against a model that keeps no heap: every eviction takes the
    minimum of ``(count, last touch)`` over what is cached."""
    cache = LFUCache(100)
    evicted = []
    cache.evict_listener = lambda target, size: evicted.append(target)
    model = {}  # target -> [count, last touch]
    for clock, (op, name) in enumerate(steps):
        del evicted[:]
        if op == "clear":
            cache.clear()
            model.clear()
        elif op == "invalidate":
            assert cache.invalidate(name) == (model.pop(name, None) is not None)
        else:
            size = _SIZES[name]
            assert cache.access(name, size) == (name in model)
            if name in model:
                model[name][0] += 1
                model[name][1] = clock
            elif size <= 100:
                expected = []
                while sum(_SIZES[t] for t in model) + size > 100:
                    expected.append(min(model, key=lambda t: tuple(model[t])))
                    del model[expected[-1]]
                assert evicted == expected
                model[name] = [1, clock]
        assert set(cache) == set(model) and len(cache._heap) == len(cache)
        assert all(cache.frequency_of(t) == model[t][0] for t in model)
