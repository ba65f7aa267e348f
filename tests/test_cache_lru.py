"""Unit tests for the LRU cache (including the paper's >500 KB variant)."""

import pytest

from repro.cache import LRUCache, PAPER_LRU_MAX_FILE_BYTES, CacheError


def test_miss_then_hit():
    cache = LRUCache(100)
    assert cache.access("a", 10) is False
    assert cache.access("a", 10) is True
    assert cache.stats.hits == 1
    assert cache.stats.misses == 1


def test_capacity_never_exceeded():
    cache = LRUCache(100)
    for i in range(50):
        cache.access(f"t{i}", 30)
        assert cache.used_bytes <= 100


def test_evicts_least_recently_used():
    cache = LRUCache(100)
    cache.access("a", 40)
    cache.access("b", 40)
    cache.access("a", 40)  # refresh a
    cache.access("c", 40)  # must evict b, not a
    assert "a" in cache
    assert "b" not in cache
    assert "c" in cache


def test_oversized_file_rejected_not_cached():
    cache = LRUCache(100)
    cache.access("big", 200)
    assert "big" not in cache
    assert cache.stats.rejected == 1
    assert cache.used_bytes == 0


def test_oversized_insert_does_not_evict_existing():
    cache = LRUCache(100)
    cache.access("a", 50)
    cache.access("big", 500)
    assert "a" in cache


def test_paper_variant_excludes_files_over_500kb():
    cache = LRUCache.paper_variant(10 * 2**20)
    cache.access("big", PAPER_LRU_MAX_FILE_BYTES + 1)
    assert "big" not in cache
    cache.access("ok", PAPER_LRU_MAX_FILE_BYTES)
    assert "ok" in cache


def test_zero_byte_file_cacheable():
    cache = LRUCache(100)
    cache.access("empty", 0)
    assert "empty" in cache
    assert cache.access("empty", 0) is True


def test_invalidate():
    cache = LRUCache(100)
    cache.access("a", 10)
    assert cache.invalidate("a") is True
    assert "a" not in cache
    assert cache.used_bytes == 0
    assert cache.invalidate("a") is False


def test_clear_preserves_stats():
    cache = LRUCache(100)
    cache.access("a", 10)
    cache.access("a", 10)
    cache.clear()
    assert len(cache) == 0
    assert cache.used_bytes == 0
    assert cache.stats.hits == 1


def test_eviction_stats():
    cache = LRUCache(100)
    cache.access("a", 60)
    cache.access("b", 60)  # evicts a
    assert cache.stats.evictions == 1
    assert cache.stats.bytes_evicted == 60


def test_size_of_and_len():
    cache = LRUCache(100)
    cache.access("a", 30)
    assert cache.size_of("a") == 30
    assert cache.size_of("missing") is None
    assert len(cache) == 1
    assert list(cache) == ["a"]


def test_hit_ratio_properties():
    cache = LRUCache(100)
    assert cache.stats.hit_ratio == 0.0
    cache.access("a", 10)
    cache.access("a", 10)
    cache.access("b", 10)
    assert cache.stats.hit_ratio == pytest.approx(1 / 3)
    assert cache.stats.miss_ratio == pytest.approx(2 / 3)


def test_negative_size_rejected():
    cache = LRUCache(100)
    with pytest.raises(CacheError):
        cache.access("a", -1)


def test_nonpositive_capacity_rejected():
    with pytest.raises(CacheError):
        LRUCache(0)


def test_evict_listener_fires_on_eviction_and_invalidate():
    cache = LRUCache(100)
    evicted = []
    cache.evict_listener = lambda t, s: evicted.append((t, s))
    cache.access("a", 60)
    cache.access("b", 60)
    cache.invalidate("b")
    assert evicted == [("a", 60), ("b", 60)]


def test_multiple_evictions_for_one_insert():
    cache = LRUCache(100)
    cache.access("a", 30)
    cache.access("b", 30)
    cache.access("c", 30)
    cache.access("d", 95)  # must evict all three
    assert list(cache) == ["d"]
    assert cache.stats.evictions == 3
