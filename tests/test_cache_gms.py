"""Unit tests for the global memory system."""

import pytest

from repro.cache import CacheError, GlobalMemorySystem, GMSOutcome


class TestGDSMode:
    def test_miss_then_local_hit(self):
        gms = GlobalMemorySystem(2, 1000)
        assert gms.access(0, "a", 10).outcome is GMSOutcome.MISS
        assert gms.access(0, "a", 10).outcome is GMSOutcome.LOCAL_HIT

    def test_remote_hit_reports_holder(self):
        gms = GlobalMemorySystem(2, 1000)
        gms.access(0, "a", 10)
        result = gms.access(1, "a", 10)
        assert result.outcome is GMSOutcome.REMOTE_HIT
        assert result.holder == 0
        assert result.is_memory_hit

    def test_copy_on_remote_hit_duplicates(self):
        gms = GlobalMemorySystem(2, 1000)
        gms.access(0, "a", 10)
        gms.access(1, "a", 10)  # copies to node 1
        assert gms.holders_of("a") == {0, 1}
        # Both nodes now hit locally.
        assert gms.access(0, "a", 10).outcome is GMSOutcome.LOCAL_HIT
        assert gms.access(1, "a", 10).outcome is GMSOutcome.LOCAL_HIT

    def test_duplication_consumes_capacity(self):
        gms = GlobalMemorySystem(2, 100)
        gms.access(0, "a", 60)
        gms.access(1, "a", 60)
        assert gms.node_used_bytes(0) == 60
        assert gms.node_used_bytes(1) == 60
        assert gms.aggregate_used_bytes == 120

    def test_local_eviction_updates_directory(self):
        gms = GlobalMemorySystem(1, 100)
        gms.access(0, "a", 60)
        gms.access(0, "b", 60)  # evicts a locally
        assert "a" not in gms
        assert gms.holders_of("a") == set()

    def test_single_node_behaves_like_plain_cache(self):
        gms = GlobalMemorySystem(1, 1000)
        gms.access(0, "a", 10)
        result = gms.access(0, "a", 10)
        assert result.outcome is GMSOutcome.LOCAL_HIT
        assert gms.stats.remote_hits == 0

    def test_drop_node(self):
        gms = GlobalMemorySystem(2, 1000)
        gms.access(0, "a", 10)
        gms.access(0, "b", 10)
        gms.access(1, "a", 10)  # a copied to node 1
        dropped = gms.drop_node(0)
        assert dropped == 2
        assert gms.holders_of("a") == {1}
        assert gms.holders_of("b") == set()

    def test_stats_counters(self):
        gms = GlobalMemorySystem(2, 1000)
        gms.access(0, "a", 10)  # miss
        gms.access(0, "a", 10)  # local
        gms.access(1, "a", 10)  # remote
        assert gms.stats.misses == 1
        assert gms.stats.local_hits == 1
        assert gms.stats.remote_hits == 1
        assert gms.stats.miss_ratio == pytest.approx(1 / 3)
        assert gms.stats.memory_hit_ratio == pytest.approx(2 / 3)

    def test_cached_targets_listing(self):
        gms = GlobalMemorySystem(2, 1000)
        gms.access(0, "a", 10)
        gms.access(1, "b", 10)
        assert set(gms.cached_targets()) == {"a", "b"}
        assert gms.cached_targets(0) == ["a"]
        assert len(gms) == 2

    def test_node_capacity_respected(self):
        gms = GlobalMemorySystem(2, 100)
        for i in range(20):
            gms.access(i % 2, f"t{i}", 30)
            assert gms.node_used_bytes(0) <= 100
            assert gms.node_used_bytes(1) <= 100

    def test_oversized_file_rejected(self):
        gms = GlobalMemorySystem(2, 100)
        gms.access(0, "big", 200)
        assert "big" not in gms
        assert gms.stats.rejected == 1


def test_invalid_construction():
    with pytest.raises(CacheError):
        GlobalMemorySystem(0, 100)
    with pytest.raises(CacheError):
        GlobalMemorySystem(2, 0)
    # One system, no modes: the keywords that chose one are gone.
    for gone in ("replacement", "copy_on_remote_hit", "max_cacheable_bytes"):
        with pytest.raises(TypeError):
            GlobalMemorySystem(2, 100, **{gone: None})


def test_bad_node_id():
    gms = GlobalMemorySystem(2, 100)
    with pytest.raises(CacheError):
        gms.access(5, "a", 10)
    with pytest.raises(CacheError):
        gms.drop_node(-1)
