"""Serving-layer throughput: ``query_batch`` vs the per-query ``query`` loop.

The ISSUE-4 tentpole claims:

* Length-grouped batch execution — stacked representative scans
  (:func:`~repro.distances.batch.dtw_pairs` over every (query,
  representative) pair of a length group) plus thread-pool refinement —
  is at least 2x the throughput of the per-query ``index.query`` loop on a
  machine with >= 4 usable cores, with **bit-identical** matches. The
  identity contract is asserted unconditionally; the wall-clock
  contract is core-count-gated exactly like ``bench_parallel_build``
  (the stacked scans alone deliver most of the win even single-core,
  but the refinement fan-out needs real cores to overlap).
* Concurrent queries against a thread-safe :class:`OnexService` over a
  freshly loaded (fully lazy) v3 index return results identical to
  serial execution — hammered here from ``N_THREADS`` threads as a
  throughput-shaped regression, and the cache turns repeat traffic into
  dict lookups (hit-rate reported).

Set ``ONEX_BENCH_QUICK=1`` for the CI smoke run (smaller dataset; both
identity contracts still hold).
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.bench.reporting import registry
from repro.core.onex import OnexIndex
from repro.core.persistence import load_index, save_index
from repro.data.normalize import min_max_normalize_dataset
from repro.data.synthetic import make_dataset
from repro.serve import OnexService

QUICK = os.environ.get("ONEX_BENCH_QUICK", "") not in ("", "0")
N_SERIES = 48 if QUICK else 64
SERIES_LENGTH = 192 if QUICK else 256
ST = 0.15
N_QUERIES = 64 if QUICK else 128
N_WORKERS = 4
N_THREADS = 4
MIN_SPEEDUP = 2.0
N_REPEATS = 2  # best-of-2 in both modes: the contract compares wall times
_CORES = os.cpu_count() or 1

_rows: dict[str, list[object]] = {}


def _register() -> None:
    if _rows:
        registry.add_table(
            "serving_throughput",
            f"Serving layer: query_batch vs per-query loop "
            f"(ECG-style, {N_SERIES} series x {SERIES_LENGTH}, "
            f"{N_QUERIES} queries, {_CORES} cores)",
            ["mode", "seconds", "queries/s", "vs sequential"],
            [_rows[key] for key in sorted(_rows)],
        )


@pytest.fixture(scope="module")
def index():
    dataset = min_max_normalize_dataset(
        make_dataset("ECG", n_series=N_SERIES, length=SERIES_LENGTH, seed=3)
    )
    grid = sorted(
        set(
            int(value)
            for value in np.linspace(SERIES_LENGTH // 4, SERIES_LENGTH, 7).round()
        )
    )
    return OnexIndex.build(dataset, st=ST, lengths=grid, normalize=False, seed=0)


@pytest.fixture(scope="module")
def queries(index):
    """Noisy subsequence probes across three indexed lengths."""
    rng = np.random.default_rng(1)
    dataset = index.dataset
    lengths = index.rspace.lengths
    picks = [lengths[0], lengths[len(lengths) // 2], lengths[-2]]
    batch = []
    for _ in range(N_QUERIES):
        length = int(rng.choice(picks))
        series = int(rng.integers(0, len(dataset)))
        start = int(rng.integers(0, len(dataset[series]) - length + 1))
        values = dataset[series].values[start : start + length]
        batch.append(np.clip(values + rng.normal(0, 0.01, length), 0.0, 1.0))
    return batch


def _best_time(run, repeats=N_REPEATS):
    best_seconds = float("inf")
    result = None
    for _ in range(repeats):
        started = time.perf_counter()
        result = run()
        best_seconds = min(best_seconds, time.perf_counter() - started)
    return best_seconds, result


def _assert_identical(batch_a, batch_b) -> None:
    assert len(batch_a) == len(batch_b)
    for matches_a, matches_b in zip(batch_a, batch_b, strict=True):
        assert [m.ssid for m in matches_a] == [m.ssid for m in matches_b]
        assert [m.dtw for m in matches_a] == [m.dtw for m in matches_b]


def test_grouped_batch_speedup_and_identity(index, queries) -> None:
    def loop():
        return [index.query(query) for query in queries]

    # Hydrate the lazy payloads with one full sequential pass so both
    # timed modes run fully warm — the (first-timed) sequential side
    # must not absorb first-touch payload construction.
    loop()

    sequential_seconds, sequential = _best_time(loop)
    grouped_seconds, grouped = _best_time(
        lambda: index.query_batch(queries, max_workers=N_WORKERS)
    )
    speedup = sequential_seconds / grouped_seconds

    _assert_identical(sequential, grouped)

    _rows["a_sequential"] = [
        "sequential per-query loop",
        sequential_seconds,
        len(queries) / sequential_seconds,
        1.0,
    ]
    _rows["b_grouped"] = [
        f"grouped batch ({N_WORKERS} workers)",
        grouped_seconds,
        len(queries) / grouped_seconds,
        speedup,
    ]
    _register()

    # Wall-clock contract: the refinement fan-out needs >= 4 cores to
    # overlap; smaller machines verify identity and report the speedup.
    if _CORES >= N_WORKERS:
        assert speedup >= MIN_SPEEDUP, (
            f"grouped query_batch only {speedup:.2f}x the sequential loop "
            f"(required >= {MIN_SPEEDUP}x on {_CORES} cores)"
        )


def test_concurrent_service_identity_and_cache(index, queries, tmp_path) -> None:
    """N threads against a fresh (fully lazy) v3 index == serial results."""
    v3_path = tmp_path / "serving.onex"
    save_index(index, v3_path)
    serial = load_index(v3_path)
    expected = [serial.query(query) for query in queries]

    hammered = load_index(v3_path)
    assert hammered.rspace.hydrated_lengths == []
    with OnexService(hammered, max_workers=N_THREADS) as service:
        cold_started = time.perf_counter()

        def run(thread_index: int):
            order = list(range(len(queries)))
            shifted = order[thread_index:] + order[:thread_index]
            return {i: service.query(queries[i]) for i in shifted}

        with ThreadPoolExecutor(max_workers=N_THREADS) as pool:
            outcomes = list(pool.map(run, range(N_THREADS)))
        cold_seconds = time.perf_counter() - cold_started

        for outcome in outcomes:
            _assert_identical(
                [outcome[i] for i in range(len(queries))], expected
            )

        # Repeat traffic: everything is now cached.
        warm_started = time.perf_counter()
        warm = [service.query(query) for query in queries]
        warm_seconds = time.perf_counter() - warm_started
        _assert_identical(warm, expected)
        stats = service.cache.stats
        assert stats["hits"] >= len(queries)

    total = N_THREADS * len(queries)
    _rows["c_service_cold"] = [
        f"service, {N_THREADS} threads, cold cache",
        cold_seconds,
        total / cold_seconds,
        "",
    ]
    _rows["d_service_warm"] = [
        f"service, warm cache (hit rate {stats['hit_rate']:.2f})",
        warm_seconds,
        len(queries) / warm_seconds,
        "",
    ]
    _register()
