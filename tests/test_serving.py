"""Tests for the serving layer: thread safety, caching, batch execution.

The concurrency tests hammer a *freshly loaded* v3 index — the worst
case, where every lazy payload (bucket hydration, envelope stacks,
member matrices) is built under contention — and assert the results are
bit-identical to serial execution, and that each lazy payload was
constructed exactly once.
"""

from __future__ import annotations

import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import repro.core.rspace as rspace_module
from repro.core.persistence import load_index, save_index
from repro.core.query_processor import QueryProcessor, QueryStats
from repro.exceptions import QueryError
from repro.serve import (
    OnexService,
    ResultCache,
    execute_batch,
    serve_lines,
)
from tests.oracles import scalar_query

N_THREADS = 8


@pytest.fixture(scope="module")
def v3_path(small_index, tmp_path_factory):
    path = tmp_path_factory.mktemp("serving") / "index.onex"
    save_index(small_index, path, version=3)
    return path


@pytest.fixture(scope="module")
def workload(small_index):
    """A deterministic mix of queries across every indexed length."""
    rng = np.random.default_rng(42)
    dataset = small_index.dataset
    queries = []
    for length in small_index.rspace.lengths:
        for _ in range(4):
            series = int(rng.integers(0, len(dataset)))
            start = int(rng.integers(0, len(dataset[series]) - length + 1))
            queries.append(dataset[series].values[start : start + length])
    return queries


def _serial_answers(index, queries):
    return [index.query(query) for query in queries]


def _identical(batch_a, batch_b):
    assert len(batch_a) == len(batch_b)
    for matches_a, matches_b in zip(batch_a, batch_b, strict=True):
        assert [m.ssid for m in matches_a] == [m.ssid for m in matches_b]
        assert [m.dtw for m in matches_a] == [m.dtw for m in matches_b]
        assert [m.dtw_normalized for m in matches_a] == [
            m.dtw_normalized for m in matches_b
        ]


class TestConcurrentQueries:
    def test_threads_match_serial_on_fresh_v3_index(self, v3_path, workload):
        expected = _serial_answers(load_index(v3_path), workload)
        hammered = load_index(v3_path)
        assert hammered.rspace.hydrated_lengths == []  # everything lazy
        barrier = threading.Barrier(N_THREADS)

        def run(thread_index: int):
            barrier.wait()  # maximize hydration contention
            # Each thread walks the workload from its own offset so
            # different threads hit different lengths simultaneously.
            order = list(range(len(workload)))
            shifted = order[thread_index:] + order[:thread_index]
            return {i: hammered.query(workload[i]) for i in shifted}

        with ThreadPoolExecutor(max_workers=N_THREADS) as pool:
            outcomes = list(pool.map(run, range(N_THREADS)))
        for outcome in outcomes:
            _identical(
                [outcome[i] for i in range(len(workload))], expected
            )

    def test_buckets_hydrate_exactly_once_under_contention(self, v3_path):
        loaded = load_index(v3_path)
        calls: dict[int, int] = {}
        lock = threading.Lock()

        def wrap(length, loader):
            def counted():
                with lock:
                    calls[length] = calls.get(length, 0) + 1
                time.sleep(0.02)  # widen the race window
                return loader()

            return counted

        loaded.rspace._loaders = {
            length: wrap(length, loader)
            for length, loader in loaded.rspace._loaders.items()
        }
        lengths = loaded.rspace.lengths
        barrier = threading.Barrier(N_THREADS)

        def hammer(_):
            barrier.wait()
            return [loaded.rspace.bucket(length) for length in lengths]

        with ThreadPoolExecutor(max_workers=N_THREADS) as pool:
            outcomes = list(pool.map(hammer, range(N_THREADS)))
        assert calls == {length: 1 for length in lengths}
        # Every thread observed the very same bucket objects.
        for outcome in outcomes[1:]:
            for mine, first in zip(outcome, outcomes[0], strict=True):
                assert mine is first

    def test_envelope_stacks_built_exactly_once(
        self, v3_path, workload, monkeypatch
    ):
        loaded = load_index(v3_path)
        counts: dict[tuple[int, int], int] = {}
        lock = threading.Lock()
        real = rspace_module.envelope_matrix

        def counted(matrix, radius):
            with lock:
                key = (matrix.shape[1], int(radius))
                counts[key] = counts.get(key, 0) + 1
            time.sleep(0.01)
            return real(matrix, radius)

        monkeypatch.setattr(rspace_module, "envelope_matrix", counted)
        barrier = threading.Barrier(N_THREADS)

        def hammer(thread_index):
            barrier.wait()
            return [loaded.query(query) for query in workload]

        with ThreadPoolExecutor(max_workers=N_THREADS) as pool:
            list(pool.map(hammer, range(N_THREADS)))
        assert counts  # the batch path did build envelope stacks
        assert all(count == 1 for count in counts.values()), counts

    def test_member_matrices_cached_and_readonly(self, small_index):
        bucket = small_index.rspace.bucket(12)
        first = bucket.member_matrix(0, small_index.dataset)
        again = bucket.member_matrix(0, small_index.dataset)
        assert first is again
        assert not first.flags.writeable

    def test_member_matrix_cache_is_byte_bounded(self, v3_path):
        loaded = load_index(v3_path)
        bucket = loaded.rspace.bucket(12)
        assert bucket.n_groups > 2
        stack_bytes = sorted(
            group.count * bucket.length * 8 for group in bucket.groups
        )
        # Budget fits only the two largest stacks: older entries evict.
        bucket.MEMBER_MATRIX_CACHE_BYTES = stack_bytes[-1] + stack_bytes[-2]
        for g in range(bucket.n_groups):
            bucket.member_matrix(g, loaded.dataset)
        assert len(bucket._member_matrices) < bucket.n_groups
        assert bucket._member_matrix_bytes <= bucket.MEMBER_MATRIX_CACHE_BYTES
        # An evicted stack rebuilds correctly (and re-enters the LRU).
        rebuilt = bucket.member_matrix(0, loaded.dataset)
        np.testing.assert_array_equal(
            rebuilt, bucket.store_view.values(bucket.groups[0].member_rows)
        )


class TestBatchExecutor:
    def test_exact_length_identical_to_loop(self, small_index, workload):
        queries = [q for q in workload if q.shape[0] == 12]
        _identical(
            small_index.query_batch(queries, length=12),
            [small_index.query(q, length=12) for q in queries],
        )

    def test_any_length_identical_to_loop(self, small_index, workload):
        _identical(
            small_index.query_batch(workload), _serial_answers(small_index, workload)
        )

    def test_k_and_no_stop_identical(self, small_index, workload):
        _identical(
            small_index.query_batch(workload, k=3, stop_at_half_st=False),
            [small_index.query(q, k=3, stop_at_half_st=False) for q in workload],
        )

    def test_single_worker_identical(self, small_index, workload):
        _identical(
            small_index.query_batch(workload, max_workers=1),
            _serial_answers(small_index, workload),
        )

    def test_empty_batch(self, small_index):
        assert small_index.query_batch([]) == []

    def test_k_validation(self, small_index, workload):
        with pytest.raises(QueryError, match="k must be"):
            execute_batch(small_index, workload[:2], k=0)

    def test_unreachable_length_raises(self, small_index, workload):
        with pytest.raises(QueryError, match="not indexed"):
            small_index.query_batch(workload[:2], length=13)

    def test_batch_on_fresh_v3_index(self, v3_path, workload, small_index):
        loaded = load_index(v3_path)
        _identical(
            loaded.query_batch(workload), _serial_answers(small_index, workload)
        )

    def test_worker_refinement_stats_merge_into_caller(
        self, small_index, workload
    ):
        processor = small_index.processor
        small_index.query_batch(workload, max_workers=4)
        stats = processor.last_stats
        # The in-group search ran on pool threads; its counters must
        # still land in the calling thread's stats.
        assert stats.members_examined > 0
        assert stats.reps_examined > 0

    def test_single_query_stats_equal_one_element_batch(
        self, small_index, workload
    ):
        processor = small_index.processor
        for query in (workload[0], workload[5], workload[-1]):
            for length in (None, 12):
                processor.best_match(query, length=length, k=2)
                single = processor.last_stats
                small_index.query_batch([query], length=length, k=2)
                assert processor.last_stats == single
                assert single.reps_examined > 0 and single.members_examined > 0


class TestStackedScan:
    def test_matches_scalar_oracle_scan(self, small_index, workload):
        processor = small_index.processor
        bucket = small_index.rspace.bucket(12)
        queries = np.stack([q for q in workload if q.shape[0] == 12])
        stacked = processor.scan_representatives_stacked(bucket, queries)
        for query, scans in zip(queries, stacked, strict=True):
            single = scalar_query.scan_representatives(processor, bucket, query)
            assert [s.group_index for s in scans] == [
                s.group_index for s in single
            ]
            assert [s.dtw_raw for s in scans] == pytest.approx(
                [s.dtw_raw for s in single], abs=1e-9
            )

    @pytest.mark.parametrize("n_probe", [1, 3])
    @pytest.mark.parametrize("finite_bounds", [False, True])
    def test_one_row_stack_equals_row_of_many(
        self, small_index, workload, n_probe, finite_bounds
    ):
        """A query's scans do not depend on which rows share its stack."""
        processor = QueryProcessor(
            small_index.rspace,
            small_index.dataset,
            st=small_index.st,
            window=small_index.window,
            n_probe=n_probe,
        )
        bucket = small_index.rspace.bucket(12)
        queries = np.stack([q for q in workload if q.shape[0] == 12])
        bounds = None
        if finite_bounds:
            # Each query's own best distance (tie: scan survives) scaled
            # so that some rows keep their probes and others lose them.
            open_scans = processor.scan_representatives_stacked(bucket, queries)
            factors = np.resize([1.0, 0.5, 2.0], len(queries))
            bounds = np.array(
                [scans[0].dtw_normalized for scans in open_scans]
            ) * factors
        many = processor.scan_representatives_stacked(bucket, queries, bounds)
        assert any(many)
        for row, query in enumerate(queries):
            alone = processor.scan_representatives_stacked(
                bucket,
                query[None, :],
                None if bounds is None else bounds[row : row + 1],
            )
            assert alone == [many[row]]

    @pytest.mark.parametrize("n_probe", [1, 3])
    @pytest.mark.parametrize("finite_seeds", [False, True])
    @pytest.mark.parametrize("st", [0.2, 0.01])
    @pytest.mark.parametrize("query_length", [12, 15])
    def test_chained_segments_equal_whole_sweep(
        self, small_index, n_probe, finite_seeds, st, query_length
    ):
        """The sweep cut into runs, each seeded with the best top so far,
        selects what one call over the whole order selects (at ``st`` 0.01
        nothing stops early, so every query crosses every cut)."""
        processor = QueryProcessor(
            small_index.rspace,
            small_index.dataset,
            st=st,
            window=small_index.window,
            n_probe=n_probe,
        )
        rng = np.random.default_rng(query_length)
        queries = rng.random((6, query_length)) * 0.8 + 0.1
        order = small_index.rspace.search_length_order(query_length)
        seeds = np.full(len(queries), np.inf)
        if finite_seeds:
            # Around each query's own global best: some rows keep every
            # probe, some lose all of them (a row of None). A carried
            # bound is always above ST/2 — at or below it the sweep has
            # stopped.
            whole = processor.assign_buckets_stacked(queries, lengths=order)
            factors = np.resize([1.0, 0.5, 2.0], len(queries))
            seeds = np.array([s[1][0].dtw_normalized for s in whole]) * factors
            seeds = np.maximum(seeds, np.nextafter(st / 2.0, np.inf))

        def selection(selected):
            return [
                None if s is None else (s[0].length, s[1]) for s in selected
            ]

        processor.last_stats = QueryStats()
        whole = selection(
            processor.assign_buckets_stacked(queries, lengths=order, bounds=seeds)
        )
        whole_stats = processor.last_stats
        if not finite_seeds:
            processor.last_stats = QueryStats()
            assert whole == selection(processor.assign_buckets_stacked(queries))
            assert processor.last_stats == whole_stats

        for cuts in ([1], [2], [1, 3], [1, 2, 3]):
            processor.last_stats = QueryStats()
            best = [None] * len(queries)
            bounds = seeds.copy()
            active = list(range(len(queries)))
            for run in np.split(np.array(order), cuts):
                if not active:
                    break
                selected = processor.assign_buckets_stacked(
                    queries[active], lengths=run.tolist(), bounds=bounds[active]
                )
                still_active = []
                for q, chosen in zip(active, selection(selected), strict=True):
                    if chosen is not None:
                        best[q] = chosen
                        bounds[q] = chosen[1][0].dtw_normalized
                        if bounds[q] <= st / 2.0:
                            continue
                    still_active.append(q)
                active = still_active
            assert best == whole
            assert processor.last_stats == whole_stats

    def test_seeded_bounds_prune_like_per_query(self, small_index, workload):
        processor = small_index.processor
        bucket = small_index.rspace.bucket(12)
        queries = np.stack([q for q in workload if q.shape[0] == 12])
        bounds = np.full(queries.shape[0], 1e-9)  # nothing can beat this
        stacked = processor.scan_representatives_stacked(bucket, queries, bounds)
        assert all(scans == [] for scans in stacked)

    def test_stats_are_thread_local(self, small_index, workload):
        processor = small_index.processor
        seen = {}

        def run(name, query):
            processor.best_match(query)
            seen[name] = processor.last_stats

        a = threading.Thread(target=run, args=("a", workload[0]))
        b = threading.Thread(target=run, args=("b", workload[-1]))
        a.start(), b.start(), a.join(), b.join()
        assert seen["a"] is not seen["b"]


class TestResultCache:
    def test_hit_miss_counters(self):
        cache = ResultCache(capacity=2)
        key = ResultCache.make_key(np.arange(4.0), kind="query", k=1)
        assert cache.get(key) is None
        cache.put(key, ("value",))
        assert cache.get(key) == ("value",)
        assert cache.stats["hits"] == 1
        assert cache.stats["misses"] == 1
        assert cache.stats["hit_rate"] == 0.5

    def test_lru_eviction(self):
        cache = ResultCache(capacity=2)
        keys = [
            ResultCache.make_key(np.arange(4.0) + i, kind="query") for i in range(3)
        ]
        cache.put(keys[0], 0)
        cache.put(keys[1], 1)
        assert cache.get(keys[0]) == 0  # refresh 0: now 1 is least recent
        assert cache.stats["evictions"] == 0
        cache.put(keys[2], 2)
        assert cache.stats["evictions"] == 1
        cache.put(keys[2], 3)  # overwriting in place evicts nothing
        assert cache.stats["evictions"] == 1
        assert cache.get(keys[2]) == 3
        cache.put(keys[2], 2)
        assert cache.get(keys[1]) is None
        assert cache.get(keys[0]) == 0
        assert cache.get(keys[2]) == 2
        assert len(cache) == 2

    def test_capacity_zero_disables(self):
        cache = ResultCache(capacity=0)
        key = ResultCache.make_key(np.arange(3.0), kind="query")
        cache.put(key, 1)
        assert cache.get(key) is None
        assert len(cache) == 0

    def test_params_change_key(self):
        values = np.arange(6.0)
        assert ResultCache.make_key(values, k=1) != ResultCache.make_key(
            values, k=2
        )
        assert ResultCache.make_key(values, k=1) == ResultCache.make_key(
            values.copy(), k=1
        )

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError, match="capacity"):
            ResultCache(capacity=-1)
        with pytest.raises(ValueError, match="max_bytes"):
            ResultCache(max_bytes=-1)

    def test_byte_budget_evicts_and_skips_oversized(self, small_index):
        matches = tuple(small_index.query(small_index.dataset[0].values[:12], k=4))
        one_result = ResultCache._result_bytes(matches)
        cache = ResultCache(capacity=100, max_bytes=2 * one_result)
        keys = [
            ResultCache.make_key(np.arange(12.0) + i, kind="query")
            for i in range(4)
        ]
        for key in keys:
            cache.put(key, matches)
        # Entry count is far under capacity, but bytes bound the cache.
        assert len(cache) == 2
        assert cache.stats["bytes"] <= cache.max_bytes
        assert cache.get(keys[0]) is None  # oldest evicted
        assert cache.get(keys[-1]) == matches
        # A single result bigger than the whole budget is never stored.
        tiny = ResultCache(capacity=100, max_bytes=one_result - 1)
        tiny.put(keys[0], matches)
        assert len(tiny) == 0


class TestOnexService:
    def test_query_caches(self, small_index, workload):
        with OnexService(small_index, max_workers=2, cache_size=8) as service:
            first = service.query(workload[0])
            second = service.query(workload[0])
            _identical([first], [second])
            assert service.cache.stats["hits"] == 1
            assert service.cache.stats["misses"] == 1

    def test_batch_fills_and_uses_cache(self, small_index, workload):
        queries = [q for q in workload if q.shape[0] == 12]
        with OnexService(small_index, max_workers=2, cache_size=32) as service:
            first = service.query_batch(queries, length=12)
            assert service.cache.stats["misses"] == len(queries)
            second = service.query_batch(queries, length=12)
            assert service.cache.stats["hits"] == len(queries)
            _identical(first, second)
            _identical(first, [small_index.query(q, length=12) for q in queries])

    def test_concurrent_service_queries_match_serial(self, v3_path, workload):
        expected = _serial_answers(load_index(v3_path), workload)
        with OnexService(load_index(v3_path), max_workers=4) as service:
            barrier = threading.Barrier(4)

            def run(_):
                barrier.wait()
                return [service.query(query) for query in workload]

            with ThreadPoolExecutor(max_workers=4) as pool:
                outcomes = list(pool.map(run, range(4)))
        for outcome in outcomes:
            _identical(outcome, expected)

    def test_within_seasonal_recommend_delegate(self, small_index, workload):
        with OnexService(small_index, max_workers=1) as service:
            query = workload[-1]
            assert [m.ssid for m in service.within(query, st=0.4)] == [
                m.ssid for m in small_index.within(query, st=0.4)
            ]
            assert service.seasonal(12).groups == small_index.seasonal(12).groups
            assert service.recommend() == small_index.recommend()

    def test_info_shape(self, small_index):
        with OnexService(small_index, max_workers=2, cache_size=4) as service:
            info = service.info()
        assert info["dataset"] == small_index.dataset.name
        assert info["lengths"] == small_index.rspace.lengths
        assert info["workers"] == 2
        assert set(info["cache"]) == {
            "hits",
            "misses",
            "evictions",
            "entries",
            "capacity",
            "bytes",
            "max_bytes",
            "hit_rate",
        }

    def test_close_is_idempotent(self, small_index):
        service = OnexService(small_index, max_workers=1)
        service.close()
        service.close()


class TestServeProtocol:
    @pytest.fixture
    def service(self, small_index):
        with OnexService(small_index, max_workers=2) as service:
            yield service

    def _roundtrip(self, service, request):
        (line,) = list(serve_lines(service, [json.dumps(request)]))
        return json.loads(line)

    def test_query_op(self, service, small_index, workload):
        query = workload[4]
        response = self._roundtrip(
            service, {"op": "query", "values": query.tolist(), "id": 7}
        )
        assert response["ok"] and response["id"] == 7
        expected = small_index.query(query)[0]
        got = response["matches"][0]
        assert (got["series"], got["start"], got["length"]) == (
            expected.ssid.series,
            expected.ssid.start,
            expected.ssid.length,
        )
        assert got["dtw"] == expected.dtw

    def test_batch_query_op(self, service, workload):
        queries = [q.tolist() for q in workload[:3]]
        response = self._roundtrip(service, {"op": "query", "queries": queries})
        assert response["ok"]
        assert len(response["results"]) == 3

    def test_within_seasonal_recommend_info_ops(self, service, workload):
        query = workload[-1].tolist()
        assert self._roundtrip(service, {"op": "within", "values": query})["ok"]
        seasonal = self._roundtrip(service, {"op": "seasonal", "length": 12})
        assert seasonal["ok"] and seasonal["seasonal"]["length"] == 12
        recs = self._roundtrip(service, {"op": "recommend"})
        assert recs["ok"] and {r["degree"] for r in recs["recommendations"]} == {
            "S",
            "M",
            "L",
        }
        info = self._roundtrip(service, {"op": "info"})
        assert info["ok"] and info["info"]["cache"]["evictions"] == 0

    def test_errors_keep_loop_alive(self, service, workload):
        lines = [
            "this is not json",
            json.dumps({"op": "wat"}),
            json.dumps({"op": "query"}),
            # Adversarial payloads that raise outside the OnexError
            # family (OverflowError, AttributeError): the loop must
            # answer an error line, not die.
            json.dumps(
                {"op": "query", "values": workload[0].tolist(), "k": 1e400}
            ),
            json.dumps({"op": "recommend", "degree": 5}),
            json.dumps({"op": "seasonal", "length": "not-a-number"}),
            json.dumps({"op": "query", "values": workload[0].tolist()}),
        ]
        responses = [json.loads(line) for line in serve_lines(service, lines)]
        assert [r["ok"] for r in responses] == [
            False,
            False,
            False,
            False,
            False,
            False,
            True,
        ]

    def test_blank_lines_skipped(self, service):
        assert list(serve_lines(service, ["", "   ", "\n"])) == []
