"""Unit tests for the serving substrate: VirtualClock and LRUCache
(which lives in :mod:`repro.db.stmtcache`)."""

import pytest

from repro.db import LRUCache
from repro.serve import VirtualClock


class TestVirtualClock:
    def test_starts_at_zero(self):
        assert VirtualClock().now() == 0.0

    def test_advance_accumulates(self):
        clock = VirtualClock()
        assert clock.advance(1.5) == 1.5
        assert clock.advance(0.5) == 2.0
        assert clock.now() == 2.0

    def test_custom_start(self):
        assert VirtualClock(start=10.0).now() == 10.0

    def test_rejects_negative_advance(self):
        with pytest.raises(ValueError):
            VirtualClock().advance(-0.1)


class TestLRUCache:
    def test_put_get(self):
        cache = LRUCache(4)
        cache.put("k", "v")
        assert cache.get("k") == "v"
        assert "k" in cache

    def test_miss_returns_default(self):
        cache = LRUCache(4)
        assert cache.get("missing") is None
        assert cache.get("missing", 7) == 7

    def test_evicts_least_recently_used(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh a; b becomes LRU
        cache.put("c", 3)
        assert "a" in cache
        assert "b" not in cache
        assert "c" in cache

    def test_put_refreshes_existing_key(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)  # rewrite refreshes recency
        cache.put("c", 3)
        assert cache.get("a") == 10
        assert "b" not in cache

    def test_zero_capacity_disables(self):
        cache = LRUCache(0)
        cache.put("a", 1)
        assert "a" not in cache
        assert len(cache) == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            LRUCache(-1)

    def test_clear(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        cache.clear()
        assert len(cache) == 0

    # -- what promotes --------------------------------------------------

    def test_snapshot_returns_without_promoting(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.snapshot() == {"a": 1, "b": 2}  # oldest first
        assert list(cache.snapshot()) == ["a", "b"]
        cache.put("c", 3)
        assert "a" not in cache
        assert "b" in cache

    def test_contains_is_a_peek(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert "a" in cache  # membership must not refresh recency
        cache.put("c", 3)
        assert "a" not in cache
        assert "b" in cache

    def test_get_promotes_eviction_order(self):
        """Pin the full eviction order: only get/put touch recency."""
        cache = LRUCache(3)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)
        cache.get("a")  # order now b, c, a (LRU first)
        cache.snapshot()  # no-op for recency
        assert "b" in cache  # no-op for recency
        assert len(cache) == 3  # no-op for recency
        cache.put("d", 4)  # evicts b
        cache.put("e", 5)  # evicts c
        assert "b" not in cache
        assert "c" not in cache
        assert "a" in cache
        assert "d" in cache
        assert "e" in cache
