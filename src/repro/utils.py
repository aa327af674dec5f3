"""Small shared utilities used across subsystems."""

from __future__ import annotations

__all__ = ["lru_get", "lru_put"]


def lru_get(cache: dict, key):
    """Bounded-LRU read: refresh recency on hit.

    A plain dict is the store — insertion order is the recency order.
    Shared by the zone-map mask caches and the executor's and the cost
    evaluator's compiled-workload caches.
    """
    value = cache.get(key)
    if value is not None:
        cache[key] = cache.pop(key)
    return value


def lru_put(cache: dict, key, value, cap: int):
    """Bounded-LRU write: evict oldest-inserted entries down to ``cap``."""
    while len(cache) >= cap:
        cache.pop(next(iter(cache)))
    cache[key] = value
    return value
