"""Fingerprinted result cache for the discovery service.

Discovery is deterministic given (dataset, hyperparameters, seed), so the
service can memoize: two requests shipping the same relation with the
same knobs get one computation. The key is a SHA-256 *dataset
fingerprint* over

* the relation shape,
* the schema (attribute names and declared types, in order),
* a per-column content hash (cell values in row order, with an
  unambiguous encoding of missing cells), and
* the canonicalized hyperparameters.

Entries are evicted LRU beyond ``max_entries`` and lazily expired after
``ttl_seconds``. All operations are thread-safe; hit/miss/eviction
counters feed ``/v1/metrics``.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import OrderedDict
from typing import Any

from ..dataset.relation import MISSING, Relation
from .protocol import Hyperparameters


def dataset_fingerprint(relation: Relation, hyperparameters: Hyperparameters) -> str:
    """Stable hex digest identifying (relation content, hyperparameters)."""
    h = hashlib.sha256()
    h.update(f"shape:{relation.n_rows}x{relation.n_attributes}".encode())
    for attr in relation.schema.attributes:
        h.update(f"|attr:{attr.name}:{attr.dtype.value}".encode())
    for name in relation.schema.names:
        h.update(f"|col:{name}".encode())
        h.update(_column_digest(relation.column(name)))
    for key, value in hyperparameters.canonical():
        h.update(f"|hp:{key}={value}".encode())
    return h.hexdigest()


def _column_digest(values) -> bytes:
    """One joined, type-prefixed encoding of a column's cells.

    Type-prefixed reprs keep ``1``, ``1.0`` and ``"1"`` distinct; missing
    cells get their own token. Joining before hashing beats per-cell
    ``update`` calls by a wide margin on large relations.
    """
    return "\x00".join(
        "M" if value is MISSING else f"{type(value).__name__}:{value!r}"
        for value in values
    ).encode()


class ResultCache:
    """Thread-safe LRU + TTL cache from fingerprint to a result payload.

    ``max_entries <= 0`` disables caching entirely (every ``get`` is a
    miss and ``put`` is a no-op) — useful for load tests.

    When an observability ``registry``
    (:class:`repro.obs.registry.MetricsRegistry`) is supplied, every
    hit/miss/eviction/expiration also increments a
    ``cache_events_total{cache=<name>, event=...}`` counter so cache
    behaviour shows up in the Prometheus exposition.
    """

    def __init__(
        self,
        max_entries: int = 128,
        ttl_seconds: float = 3600.0,
        registry=None,
        name: str = "results",
    ) -> None:
        self.max_entries = max_entries
        self.ttl_seconds = ttl_seconds
        self.name = name
        self._registry = registry
        self._entries: OrderedDict[str, tuple[float, Any]] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.expirations = 0

    def _record(self, event: str, by: int = 1) -> None:
        if self._registry is not None:
            self._registry.counter(
                "cache_events_total",
                labels={"cache": self.name, "event": event},
                help="Result-cache events by cache and outcome",
            ).inc(by)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: str, *, count_miss: bool = True) -> Any | None:
        """Return the cached payload or None; refreshes LRU recency.

        ``count_miss=False`` leaves a miss uncounted, for a caller that
        will look the same key up again in the same request.
        """
        now = time.monotonic()
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and now - entry[0] > self.ttl_seconds:
                del self._entries[key]
                self.expirations += 1
                self._record("expiration")
                entry = None
            if entry is None:
                if count_miss:
                    self.misses += 1
                    self._record("miss")
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            self._record("hit")
            return entry[1]

    def put(self, key: str, payload: Any) -> None:
        if self.max_entries <= 0:
            return
        with self._lock:
            self._entries[key] = (time.monotonic(), payload)
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1
                self._record("eviction")

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def stats(self) -> dict:
        with self._lock:
            total = self.hits + self.misses
            return {
                "entries": len(self._entries),
                "max_entries": self.max_entries,
                "ttl_seconds": self.ttl_seconds,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "expirations": self.expirations,
                "hit_rate": (self.hits / total) if total else 0.0,
            }
