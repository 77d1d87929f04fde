"""Tests for repro.service.cache (fingerprint + LRU/TTL result cache)."""

import pytest

from repro.dataset.relation import MISSING, Relation
from repro.service.cache import ResultCache, dataset_fingerprint
from repro.service.protocol import Hyperparameters


def rel(rows, names=("a", "b")):
    return Relation.from_rows(list(names), rows)


HP = Hyperparameters()


class TestFingerprint:
    def test_deterministic(self):
        r = rel([(1, 2), (3, 4)])
        assert dataset_fingerprint(r, HP) == dataset_fingerprint(rel([(1, 2), (3, 4)]), HP)

    def test_sensitive_to_content(self):
        assert dataset_fingerprint(rel([(1, 2)]), HP) != dataset_fingerprint(rel([(1, 3)]), HP)

    def test_sensitive_to_value_types(self):
        assert dataset_fingerprint(rel([(1, 2)]), HP) != dataset_fingerprint(rel([("1", 2)]), HP)
        assert dataset_fingerprint(rel([(1, 2)]), HP) != dataset_fingerprint(rel([(1.0, 2)]), HP)

    def test_sensitive_to_missing_cells(self):
        assert dataset_fingerprint(rel([(1, MISSING)]), HP) != dataset_fingerprint(rel([(1, "M")]), HP)

    def test_sensitive_to_attribute_names_and_shape(self):
        assert dataset_fingerprint(rel([(1, 2)]), HP) != dataset_fingerprint(
            rel([(1, 2)], names=("a", "c")), HP
        )
        assert dataset_fingerprint(rel([(1, 2)]), HP) != dataset_fingerprint(
            rel([(1, 2), (1, 2)]), HP
        )

    def test_sensitive_to_hyperparameters(self):
        r = rel([(1, 2)])
        assert dataset_fingerprint(r, HP) != dataset_fingerprint(
            r, Hyperparameters(lam=0.5)
        )

    def test_column_order_matters(self):
        a = dataset_fingerprint(rel([(1, 2)]), HP)
        b = dataset_fingerprint(rel([(2, 1)], names=("b", "a")), HP)
        assert a != b


class TestResultCache:
    def test_miss_then_hit(self):
        cache = ResultCache(max_entries=4)
        assert cache.get("k") is None
        cache.put("k", {"v": 1})
        assert cache.get("k") == {"v": 1}
        assert cache.hits == 1 and cache.misses == 1
        assert cache.stats()["hit_rate"] == 0.5

    def test_lru_eviction_order(self):
        cache = ResultCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh recency of "a"
        cache.put("c", 3)  # evicts "b"
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3
        assert cache.evictions == 1

    def test_ttl_expiry(self, monkeypatch):
        import repro.service.cache as cache_mod

        now = [0.0]
        monkeypatch.setattr(cache_mod.time, "monotonic", lambda: now[0])
        cache = ResultCache(max_entries=4, ttl_seconds=10.0)
        cache.put("k", 1)
        now[0] = 5.0
        assert cache.get("k") == 1
        now[0] = 20.0
        assert cache.get("k") is None
        assert cache.expirations == 1
        assert len(cache) == 0

    def test_zero_capacity_disables_cache(self):
        cache = ResultCache(max_entries=0)
        cache.put("k", 1)
        assert cache.get("k") is None
        assert len(cache) == 0

    def test_put_same_key_replaces(self):
        cache = ResultCache(max_entries=2)
        cache.put("k", 1)
        cache.put("k", 2)
        assert cache.get("k") == 2
        assert len(cache) == 1

    def test_clear(self):
        cache = ResultCache(max_entries=2)
        cache.put("k", 1)
        cache.clear()
        assert cache.get("k") is None


def test_one_results_cache_event_per_discover_request():
    """A body-memo hit whose result was evicted is one miss, not two."""
    import json

    from repro.service.protocol import relation_to_wire
    from repro.service.server import DiscoveryService

    def body(seed):
        rows = [(i % 7, (i * seed) % 5, i % 3) for i in range(60)]
        relation = Relation.from_rows(["a", "b", "c"], rows)
        return json.dumps({"relation": relation_to_wire(relation)}).encode()

    service = DiscoveryService(workers=1, cache_entries=1)
    try:
        a, b = body(1), body(2)
        for raw in (a, b, a, a):
            status, _ = service.discover_bytes(raw)
            assert status == 200
        stats = service.cache.stats()
        assert (stats["misses"], stats["hits"]) == (3, 1)
        counters = service.registry.snapshot()["counters"]
        assert counters["discover_cache_misses"] == 3
        assert counters["discover_cache_hits"] == 1
        assert counters["cache_events_total{cache=results,event=miss}"] == 3
    finally:
        service.close()
