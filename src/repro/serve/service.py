"""The thread-safe ONEX serving front end.

:class:`OnexService` wraps a built (or lazily loaded v3)
:class:`~repro.core.onex.OnexIndex` for concurrent multi-user traffic —
the online half of the paper run as a long-lived process rather than a
one-shot script. It adds exactly three things on top of the index:

* **Safe concurrency.** All lazily-built query state — v3 bucket
  hydration, representative envelope stacks, member-matrix stacks, store
  views — is build-once-under-contention (per-bucket/per-payload locks
  in the core), so any number of threads may call :meth:`query`,
  :meth:`within`, :meth:`seasonal` or :meth:`recommend` simultaneously
  and receive results bit-identical to serial execution.
* **An LRU result cache** (:class:`~repro.serve.cache.ResultCache`)
  keyed by query digest plus the parameters that shape the answer
  (length constraint, ``k``, the index's ST). Hit/miss statistics are
  surfaced through :meth:`info` and the ``info`` op of ``onex serve``.
* **A real batch executor**: :meth:`query_batch` groups queries by
  resolved length and runs stacked representative scans plus thread-pool
  refinement (:mod:`repro.serve.batch`) over a pool owned by the
  service, so the pool's threads are reused across requests.
* **A warm kernel backend**: construction resolves the active kernel
  backend (:mod:`repro.distances.backend`) and warms it up — for the
  JIT backend that means compiling every kernel *now*, so the first
  query never eats compile latency. The backend identity, warmup time,
  and the per-stage cascade counters accumulated across all queries
  (merged from every worker thread) are surfaced through :meth:`info`.
"""

from __future__ import annotations

import dataclasses
import threading
from concurrent.futures import ThreadPoolExecutor
from collections.abc import Sequence

import numpy as np

from repro.core.query_processor import QueryStats, _RepScan
from repro.core.results import (
    Match,
    SeasonalResult,
    ThresholdRecommendation,
)
from repro.distances.backend import get_backend
from repro.serve.batch import default_workers, execute_batch
from repro.serve.cache import ResultCache
from repro.utils.validation import as_float_array


class OnexService:
    """Serve one :class:`~repro.core.onex.OnexIndex` to many callers.

    Parameters
    ----------
    index:
        The built index to serve (commonly a lazily-loaded v3
        directory: buckets hydrate on first demand, exactly once, even
        under concurrent first queries).
    max_workers:
        Threads in the service's refinement pool (default:
        :func:`~repro.serve.batch.default_workers`).
    cache_size:
        Entry capacity of the LRU result cache; ``0`` disables caching.
    cache_bytes:
        Byte budget over the cached match arrays (default
        :data:`~repro.serve.cache.ResultCache.DEFAULT_MAX_BYTES`).
    """

    def __init__(
        self,
        index,
        max_workers: int | None = None,
        cache_size: int = 1024,
        cache_bytes: int | None = None,
    ) -> None:
        self.index = index
        self.max_workers = (
            default_workers() if max_workers is None else max(1, int(max_workers))
        )
        self.cache = ResultCache(cache_size, max_bytes=cache_bytes)
        self._pool = ThreadPoolExecutor(
            max_workers=self.max_workers, thread_name_prefix="onex-serve"
        )
        self._closed = False
        # Warm the refinement kernels now: a JIT backend compiles on
        # first use, and that latency belongs to startup, not to the
        # first user's query.
        self.backend = get_backend()
        self.backend_warmup_seconds = self.backend.warmup()
        # Service-lifetime work counters, merged from every thread that
        # answered a query (the batch executor already folds its
        # workers' counters into the calling thread's).
        self._stats_lock = threading.Lock()
        self._query_stats = QueryStats()  # guarded-by: _stats_lock

    def _absorb_query_stats(self) -> None:
        """Fold the calling thread's last-query counters into the totals."""
        stats = self.index.processor.last_stats
        with self._stats_lock:
            self._query_stats.merge(stats)

    # ------------------------------------------------------------------
    # Class I
    # ------------------------------------------------------------------
    def _prepare(self, values: np.ndarray, normalized: bool) -> np.ndarray:
        values = as_float_array(values, "query")
        if not normalized:
            values = self.index.normalize_query(values)
        return values

    def query(
        self,
        values: np.ndarray,
        length: int | None = None,
        k: int = 1,
        normalized: bool = True,
        stop_at_half_st: bool = True,
    ) -> list[Match]:
        """Best match(es) for one sample sequence (Q1), cached."""
        values = self._prepare(values, normalized)
        key = ResultCache.make_key(
            values,
            kind="query",
            length=length,
            k=int(k),
            st=self.index.st,
            stop=bool(stop_at_half_st),
        )
        cached = self.cache.get(key)
        if cached is not None:
            return list(cached)
        matches = self.index.query(
            values, length=length, k=k, stop_at_half_st=stop_at_half_st
        )
        self._absorb_query_stats()
        self.cache.put(key, tuple(matches))
        return matches

    def query_batch(
        self,
        queries: Sequence[np.ndarray],
        length: int | None = None,
        k: int = 1,
        normalized: bool = True,
        stop_at_half_st: bool = True,
    ) -> list[list[Match]]:
        """Answer a batch of Q1 queries through the grouped executor.

        Cache hits are answered immediately; the remaining queries run
        length-grouped over the service pool, and their results are
        cached for the next request.
        """
        prepared = [self._prepare(values, normalized) for values in queries]
        keys = [
            ResultCache.make_key(
                values,
                kind="query",
                length=length,
                k=int(k),
                st=self.index.st,
                stop=bool(stop_at_half_st),
            )
            for values in prepared
        ]
        results: list[list[Match] | None] = [
            None if (hit := self.cache.get(key)) is None else list(hit)
            for key in keys
        ]
        missing = [i for i, result in enumerate(results) if result is None]
        if missing:
            fresh = execute_batch(
                self.index,
                [prepared[i] for i in missing],
                length=length,
                k=k,
                normalized=True,
                stop_at_half_st=stop_at_half_st,
                pool=self._pool,
            )
            self._absorb_query_stats()
            for i, matches in zip(missing, fresh, strict=True):
                self.cache.put(keys[i], tuple(matches))
                results[i] = matches
        return results  # type: ignore[return-value]

    def within(
        self,
        values: np.ndarray,
        st: float | None = None,
        length: int | None = None,
        normalized: bool = True,
        refine: bool = True,
        lengths: Sequence[int] | None = None,
    ) -> list[Match]:
        """All subsequences within ``st`` of the sample (Q1 range form).

        ``lengths`` restricts the sweep to a subset of indexed lengths
        (the cluster tier sends each shard worker its owned lengths);
        mutually exclusive with ``length``.
        """
        values = self._prepare(values, normalized)
        key = ResultCache.make_key(
            values,
            kind="within",
            st=self.index.st if st is None else float(st),
            length=length,
            refine=bool(refine),
            lengths=None if lengths is None else tuple(sorted(lengths)),
        )
        cached = self.cache.get(key)
        if cached is not None:
            return list(cached)
        matches = self.index.processor.within_threshold(
            values, st=st, length=length, refine=refine, lengths=lengths
        )
        self.cache.put(key, tuple(matches))
        return matches

    # ------------------------------------------------------------------
    # Cluster primitives (see repro.serve.cluster)
    # ------------------------------------------------------------------
    def scan(
        self,
        values: np.ndarray,
        lengths: Sequence[int],
        normalized: bool = True,
    ) -> dict[int, list[tuple[int, float, float]]]:
        """Open-bound representative scans of ``lengths`` for one query.

        Returns ``{length: [(group_index, dtw_raw, dtw_normalized),
        ...]}``. Each length's scan is cached independently, so a
        repeated query costs one dict lookup per length.
        """
        values = self._prepare(values, normalized)
        result: dict[int, list[tuple[int, float, float]]] = {}
        for length in lengths:
            length = int(length)
            key = ResultCache.make_key(
                values, kind="scan", length=length, st=self.index.st
            )
            cached = self.cache.get(key)
            if cached is None:
                scans = self.index.processor.scan_length(length, values)
                self._absorb_query_stats()
                cached = tuple(
                    (scan.group_index, scan.dtw_raw, scan.dtw_normalized)
                    for scan in scans
                )
                self.cache.put(key, cached)
            result[length] = list(cached)
        return result

    def sweep(
        self,
        queries: Sequence[np.ndarray],
        runs: Sequence[Sequence[int]],
        bounds: Sequence[float | None],
        normalized: bool = True,
    ) -> list[tuple]:
        """One segment of each query's §5.3 sweep (see the cluster router).

        Query ``i`` visits the lengths of ``runs[i]`` in order, seeded
        with the best-so-far ``bounds[i]`` (``None`` for none). Returns
        per query ``(length, scans, stopped)`` — the selected length,
        its scans as :meth:`scan` would list them, and whether the sweep
        ends here (a representative within ``ST/2``) — or ``()`` when
        nothing in the run beats the bound. Queries of equal length
        sharing a run are scanned as one stack; outcomes are cached per
        query, so a repeated query examines no representative.
        """
        prepared = [self._prepare(values, normalized) for values in queries]
        runs = [tuple(int(length) for length in run) for run in runs]
        keys = [
            ResultCache.make_key(
                values, kind="sweep", run=run, bound=bound, st=self.index.st
            )
            for values, run, bound in zip(prepared, runs, bounds, strict=True)
        ]
        outcomes = [self.cache.get(key) for key in keys]
        stacks: dict[tuple, list[int]] = {}
        for i, outcome in enumerate(outcomes):
            if outcome is None:
                stacks.setdefault((prepared[i].shape[0], runs[i]), []).append(i)
        processor = self.index.processor
        for (_, run), members in stacks.items():
            processor.last_stats = QueryStats()
            selected = processor.assign_buckets_stacked(
                np.stack([prepared[i] for i in members]),
                lengths=run,
                bounds=[
                    np.inf if bounds[i] is None else bounds[i] for i in members
                ],
            )
            self._absorb_query_stats()
            for i, selection in zip(members, selected, strict=True):
                outcome = ()
                if selection is not None:
                    bucket, scans = selection
                    outcome = (
                        bucket.length,
                        tuple(
                            (scan.group_index, scan.dtw_raw, scan.dtw_normalized)
                            for scan in scans
                        ),
                        scans[0].dtw_normalized <= self.index.st / 2.0,
                    )
                self.cache.put(keys[i], outcome)
                outcomes[i] = outcome
        return outcomes

    def refine(
        self,
        values: np.ndarray,
        length: int,
        scans: Sequence[tuple[int, float, float]],
        k: int = 1,
        normalized: bool = True,
    ) -> list[Match]:
        """In-group refinement of the length a sweep selected.

        ``scans`` is the selected length's scan list exactly as
        :meth:`sweep` (or :meth:`scan`) returned it; the answer is
        exactly what :meth:`query` would return for this query when the
        §5.3 sweep selects ``length``.
        """
        values = self._prepare(values, normalized)
        scan_objs = [
            _RepScan(
                group_index=int(group_index),
                dtw_raw=float(dtw_raw),
                dtw_normalized=float(dtw_normalized),
            )
            for group_index, dtw_raw, dtw_normalized in scans
        ]
        key = ResultCache.make_key(
            values,
            kind="refine",
            length=int(length),
            k=int(k),
            st=self.index.st,
            scans=tuple(
                (scan.group_index, scan.dtw_raw) for scan in scan_objs
            ),
        )
        cached = self.cache.get(key)
        if cached is not None:
            return list(cached)
        matches = self.index.processor.refine_scans(
            length, scan_objs, values, k=k
        )
        self._absorb_query_stats()
        self.cache.put(key, tuple(matches))
        return matches

    def shard_info(self, lengths: Sequence[int] | None = None) -> dict:
        """Lightweight per-shard introspection (no full hydration).

        Unlike :meth:`info`, this never touches buckets outside
        ``lengths`` — :meth:`info` calls ``index.stats()``, which
        hydrates *every* length and would defeat shard isolation.
        """
        owned = (
            self.index.rspace.lengths
            if lengths is None
            else sorted(int(length) for length in lengths)
        )
        with self._stats_lock:
            query_stats = dataclasses.asdict(self._query_stats)
        return {
            "dataset": self.index.dataset.name,
            "st": self.index.st,
            "lengths": owned,
            "hydrated_lengths": [
                length
                for length in self.index.rspace.hydrated_lengths
                if length in owned
            ],
            "workers": self.max_workers,
            "cache": self.cache.stats,
            "backend": {
                "name": self.backend.name,
                "jit": self.backend.jit,
                "warmup_seconds": self.backend_warmup_seconds,
            },
            "query_stats": query_stats,
        }

    # ------------------------------------------------------------------
    # Classes II and III (already read-only; locks in the core make the
    # lazy hydration they trigger safe under concurrency)
    # ------------------------------------------------------------------
    def seasonal(
        self, length: int, series: int | None = None, min_members: int = 2
    ) -> SeasonalResult:
        return self.index.seasonal(length, series=series, min_members=min_members)

    def recommend(
        self, degree=None, length: int | None = None
    ) -> list[ThresholdRecommendation]:
        return self.index.recommend(degree=degree, length=length)

    # ------------------------------------------------------------------
    # Introspection and lifecycle
    # ------------------------------------------------------------------
    def info(self) -> dict:
        """Index statistics plus live serving counters, JSON-friendly.

        ``backend`` names the active kernel backend and its startup
        warmup time; ``query_stats`` holds the service-lifetime work
        counters (including the per-stage cascade kills:
        ``cascade_kim`` / ``cascade_keogh`` / ``cascade_keogh_reverse``
        / ``cascade_dtw_abandon``), merged across every serve worker.
        Cache hits do no refinement work and therefore add nothing.
        ``build`` mirrors that for the construction path: the backend
        that ran the assignment loops plus per-length assign throughput
        from the build profile.
        """
        stats = self.index.stats()
        with self._stats_lock:
            query_stats = dataclasses.asdict(self._query_stats)
        return {
            "dataset": stats.dataset,
            "st": stats.st,
            "n_series": stats.n_series,
            "lengths": self.index.rspace.lengths,
            "hydrated_lengths": self.index.rspace.hydrated_lengths,
            "n_groups": stats.n_groups,
            "n_representatives": stats.n_representatives,
            "n_subsequences": stats.n_subsequences,
            "size_mb": stats.size_mb,
            "workers": self.max_workers,
            "cache": self.cache.stats,
            "backend": {
                "name": self.backend.name,
                "jit": self.backend.jit,
                "warmup_seconds": self.backend_warmup_seconds,
            },
            "build": {
                "backend": getattr(self.index, "build_backend", "numpy"),
                "assign_mode": getattr(
                    self.index, "assign_mode", "sequential"
                ),
                "seconds": stats.build_seconds,
                "profile": [
                    {
                        **entry,
                        "rows_per_second": (
                            entry["n_subsequences"] / entry["seconds"]
                            if entry.get("seconds")
                            else None
                        ),
                    }
                    for entry in getattr(self.index, "build_profile", [])
                ],
            },
            "query_stats": query_stats,
        }

    def close(self) -> None:
        """Shut the refinement pool down (idempotent)."""
        if not self._closed:
            self._closed = True
            self._pool.shutdown(wait=True)

    def __enter__(self) -> "OnexService":
        return self

    def __exit__(self, *_: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"<OnexService {self.index.dataset.name!r} "
            f"workers={self.max_workers} cache={len(self.cache)}>"
        )
