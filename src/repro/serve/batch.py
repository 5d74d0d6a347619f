"""Batched execution of Class I similarity queries.

``OnexIndex.query_batch`` and ``OnexService.query_batch`` run through
the executor here, in two moves:

1. **Length-grouped stacked scans.** Incoming queries are grouped by
   resolved length — queries of one length visit the same buckets in
   the same §5.3 order — and each group selects its buckets through
   :meth:`~repro.core.query_processor.QueryProcessor.assign_buckets_stacked`,
   the same sweep a single ``query`` runs with a one-row stack.
   Underneath, the scan is one stacked kernel pass per bucket: the full
   (query, representative) lower-bound matrix in a few NumPy
   reductions, then fused :func:`~repro.distances.batch.dtw_pairs`
   sweeps whose Python-level DP loop is paid per chunk stage instead of
   per query.
2. **Fanned refinement.** The per-query in-group searches that follow
   are independent, so they run across a thread pool; the underlying
   payload construction is build-once-under-contention (bucket payload
   locks), so workers share stacks instead of rebuilding them, and each
   worker's thread-local stats merge back into the caller's.

The result is **bit-identical** to the per-query ``query`` loop
(``benchmarks/bench_serving.py`` asserts both the identity and the
throughput win).
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from collections.abc import Sequence

import numpy as np

from repro.core.query_processor import QueryStats
from repro.core.results import Match
from repro.exceptions import QueryError
from repro.utils.validation import as_float_array


def default_workers() -> int:
    """Default refinement fan-out: the core count, bounded sanely."""
    return max(1, min(32, os.cpu_count() or 1))


def execute_batch(
    index,
    queries: Sequence[np.ndarray],
    length: int | None = None,
    k: int = 1,
    normalized: bool = True,
    stop_at_half_st: bool = True,
    pool: ThreadPoolExecutor | None = None,
    max_workers: int | None = None,
) -> list[list[Match]]:
    """Answer a batch of Q1 queries through the grouped executor.

    Parameters mirror :meth:`repro.core.onex.OnexIndex.query_batch`;
    ``pool`` lets a long-lived caller (:class:`~repro.serve.service.OnexService`)
    reuse its thread pool, otherwise a transient pool of ``max_workers``
    threads (default: :func:`default_workers`) refines the groups.
    Returns one match list per query, in input order — bit-identical to
    the per-query ``query`` loop.
    """
    if k < 1:
        raise QueryError(f"k must be >= 1, got {k}")
    prepared = []
    for query in queries:
        query = as_float_array(query, "query")
        if not normalized:
            query = index.normalize_query(query)
        prepared.append(query)
    if not prepared:
        return []
    processor = index.processor
    processor.last_stats = QueryStats()

    # Group queries by resolved length: an explicit Exact(L) pins every
    # query to bucket L; Match=Any queries of one sample length share
    # the same §5.3 length order, so they sweep together.
    groups: dict[int, list[int]] = {}
    for position, query in enumerate(prepared):
        groups.setdefault(query.shape[0], []).append(position)

    assignments: list[tuple | None] = [None] * len(prepared)
    for positions in groups.values():
        matrix = np.stack([prepared[position] for position in positions])
        assigned = processor.assign_buckets_stacked(
            matrix, length=length, stop_at_half_st=stop_at_half_st
        )
        for position, assignment in zip(positions, assigned, strict=True):
            assignments[position] = assignment

    # Refinement runs on pool threads whose thread-local stats would be
    # discarded; give each task fresh counters and merge them back so
    # the caller's ``last_stats`` reflects the whole batch's work.
    caller_stats = processor.last_stats
    merge_lock = threading.Lock()

    def refine(position: int) -> list[Match]:
        bucket, scans = assignments[position]
        if processor.last_stats is caller_stats:
            return processor.search_groups(bucket, scans, prepared[position], k)
        processor.last_stats = task_stats = QueryStats()
        matches = processor.search_groups(bucket, scans, prepared[position], k)
        with merge_lock:
            caller_stats.merge(task_stats)
        return matches

    order = range(len(prepared))
    if pool is not None:
        return list(pool.map(refine, order))
    workers = default_workers() if max_workers is None else int(max_workers)
    workers = min(max(1, workers), len(prepared))
    if workers <= 1:
        return [refine(position) for position in order]
    with ThreadPoolExecutor(
        max_workers=workers, thread_name_prefix="onex-batch"
    ) as transient:
        return list(transient.map(refine, order))
