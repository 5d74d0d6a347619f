"""Bounded LRU cache of query results for the serving layer.

Interactive exploration workloads repeat themselves: the same sample
sequence is re-submitted with a tweaked ``k``, or many users probe the
same canonical shapes. The :class:`ResultCache` memoizes fully-refined
answers keyed by a digest of the (normalized) query values plus every
parameter that affects the result — length constraint, ``k``, the
index's similarity threshold — so a repeated request costs one dict
lookup instead of a representative scan. All operations take one lock;
hit/miss/eviction counters are surfaced through ``OnexService.info``
(and the ``info`` op of ``onex serve``).
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from collections.abc import Hashable
from typing import Any

import numpy as np


def query_digest(values: np.ndarray) -> str:
    """Content digest of a query sequence (dtype- and shape-stable)."""
    array = np.ascontiguousarray(values, dtype=np.float64)
    return hashlib.sha1(array.tobytes()).hexdigest()


class ResultCache:
    """Thread-safe LRU map from query keys to result lists.

    Parameters
    ----------
    capacity:
        Maximum number of cached results; the least recently used entry
        is evicted beyond it. ``0`` disables caching (every lookup is a
        miss and nothing is stored).
    max_bytes:
        Byte budget over the cached match arrays (a ``within`` result
        near the index ST can carry every qualifying subsequence's
        values — entry counts alone would not bound memory in a
        long-lived server). Least recently used entries are evicted
        beyond it, and a single result larger than the whole budget is
        served but never stored.
    """

    DEFAULT_MAX_BYTES = 256 * 1024 * 1024

    def __init__(
        self, capacity: int = 1024, max_bytes: int | None = None
    ) -> None:
        if capacity < 0:
            raise ValueError(f"cache capacity must be >= 0, got {capacity}")
        self.capacity = int(capacity)
        self.max_bytes = (
            self.DEFAULT_MAX_BYTES if max_bytes is None else int(max_bytes)
        )
        if self.max_bytes < 0:
            raise ValueError(f"cache max_bytes must be >= 0, got {max_bytes}")
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()  # guarded-by: _lock
        self._sizes: dict[Hashable, int] = {}  # guarded-by: _lock
        self._bytes = 0  # guarded-by: _lock
        self._lock = threading.Lock()
        self.hits = 0  # guarded-by: _lock
        self.misses = 0  # guarded-by: _lock
        self.evictions = 0  # guarded-by: _lock

    @staticmethod
    def make_key(values: np.ndarray, **params: object) -> tuple:
        """Cache key: query digest + the parameters shaping the result."""
        return (
            query_digest(values),
            int(np.asarray(values).shape[0]),
            tuple(sorted(params.items())),
        )

    def get(self, key: Hashable) -> Any | None:
        """The cached result for ``key`` (refreshing recency), or ``None``."""
        with self._lock:
            try:
                value = self._entries[key]
            except KeyError:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return value

    @staticmethod
    def _result_bytes(value: Any) -> int:
        """Approximate footprint of a cached result (match value arrays)."""
        total = 0
        for item in value if isinstance(value, (tuple, list)) else (value,):
            values = getattr(item, "values", None)
            total += values.nbytes if isinstance(values, np.ndarray) else 64
        return total + 128  # key + tuple overhead, roughly

    def put(self, key: Hashable, value: Any) -> None:
        """Store a result, evicting least-recently-used entries if full."""
        if self.capacity == 0:
            return
        size = self._result_bytes(value)
        if size > self.max_bytes:
            return  # larger than the whole budget: serve it, don't keep it
        with self._lock:
            if key in self._entries:
                self._bytes -= self._sizes[key]
            self._entries[key] = value
            self._entries.move_to_end(key)
            self._sizes[key] = size
            self._bytes += size
            while (
                len(self._entries) > self.capacity
                or self._bytes > self.max_bytes
            ):
                evicted_key, _ = self._entries.popitem(last=False)
                self._bytes -= self._sizes.pop(evicted_key)
                self.evictions += 1

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        with self._lock:
            self._entries.clear()
            self._sizes.clear()
            self._bytes = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def stats(self) -> dict:
        """Hit/miss counters plus occupancy, as one JSON-friendly dict."""
        with self._lock:
            hits, misses, evictions = self.hits, self.misses, self.evictions
            entries = len(self._entries)
            cached_bytes = self._bytes
        total = hits + misses
        return {
            "hits": hits,
            "misses": misses,
            "evictions": evictions,
            "entries": entries,
            "capacity": self.capacity,
            "bytes": cached_bytes,
            "max_bytes": self.max_bytes,
            "hit_rate": (hits / total) if total else 0.0,
        }

    def __repr__(self) -> str:
        # One lock acquisition for a consistent (entries, hits, misses)
        # snapshot — the previous unguarded counter reads were the
        # lockset checker's (ONEX301) first real catch.
        with self._lock:
            entries, hits, misses = len(self._entries), self.hits, self.misses
        return (
            f"<ResultCache {entries}/{self.capacity} "
            f"hits={hits} misses={misses}>"
        )
