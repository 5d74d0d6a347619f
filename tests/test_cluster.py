"""The sharded serving tier: shard map, router, workers, metrics, jobs.

The end-to-end tests spawn real worker subprocesses over a saved v3
directory and assert the router's responses are bit-identical (as JSON)
to a single-process ``OnexService`` answering the same requests.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import socket

import numpy as np
import pytest

from repro.core.onex import OnexIndex
from repro.core.persistence import read_manifest, save_index
from repro.data.synthetic import make_dataset
from repro.serve.cluster.jobs import JobQueue
from repro.serve.cluster.metrics import ClusterMetrics, LatencyHistogram
from repro.serve.cluster.router import (
    Budget,
    CircuitBreaker,
    ClusterRouter,
    DeadlineExceeded,
    ShardUnavailable,
    merge_within,
    respawn_delay,
    sweep_runs,
)
from repro.serve.cluster.shardmap import (
    ShardMap,
    assign_replicas,
    compute_shard_map,
    shard_map_from_manifest,
)
from repro.serve.server import handle_request, match_to_dict, respond
from repro.serve.service import OnexService


@pytest.fixture(scope="module")
def v3_path(small_index, tmp_path_factory) -> str:
    path = tmp_path_factory.mktemp("cluster") / "index_v3"
    save_index(small_index, path)
    return str(path)


@pytest.fixture(scope="module")
def single_service(v3_path) -> OnexService:
    service = OnexService(
        OnexIndex.load(v3_path), max_workers=2, cache_size=256
    )
    yield service
    service.close()


def _requests(lengths: list[int]) -> list[dict]:
    rng = np.random.default_rng(42)

    def query(length: int) -> list[float]:
        return [float(v) for v in rng.random(length) * 0.8 + 0.1]

    mid = lengths[len(lengths) // 2]
    return [
        {"op": "query", "values": query(lengths[0] + 1), "id": "q-any"},
        {"op": "query", "values": query(mid), "k": 3, "id": "q-any-k"},
        {"op": "query", "values": query(mid), "length": mid, "k": 2, "id": "q-exact"},
        {
            "op": "query",
            "queries": [query(length) for length in lengths],
            "k": 2,
            "id": "q-batch-any",
        },
        {
            "op": "query",
            "queries": [query(mid), query(mid)],
            "length": mid,
            "id": "q-batch-exact",
        },
        {"op": "within", "values": query(mid), "st": 0.6, "id": "w-any"},
        {
            "op": "within",
            "values": query(mid),
            "st": 0.6,
            "length": lengths[-1],
            "id": "w-exact",
        },
        {"op": "seasonal", "length": mid, "id": "s-data"},
        {"op": "seasonal", "length": mid, "series": 1, "id": "s-user"},
        {"op": "recommend", "id": "r-all"},
        {"op": "recommend", "degree": "S", "length": mid, "id": "r-one"},
        # Error paths must be identical too (text and id echo).
        {"op": "query", "id": "e-novalues"},
        {"op": "nonsense", "id": "e-unknown"},
        {"op": "query", "values": query(mid), "k": 0, "id": "e-k"},
        {"op": "seasonal", "id": "e-nolength"},
    ]


def _run(coro):
    return asyncio.run(coro)


# ----------------------------------------------------------------------
# Shard map
# ----------------------------------------------------------------------
class TestShardMap:
    def test_contiguous_and_deterministic(self):
        lengths = [6, 12, 18, 24, 30]
        weights = [500, 300, 200, 100, 50]
        first = compute_shard_map(lengths, weights, 3)
        second = compute_shard_map(lengths, weights, 3)
        assert first == second
        flat = [length for shard in first.shards for length in shard]
        assert flat == sorted(lengths)
        assert first.n_shards == 3

    def test_balances_max_weight(self):
        # One heavy length must sit alone; the optimum max weight is 500.
        shard_map = compute_shard_map([1, 2, 3], [500, 250, 250], 2)
        assert shard_map.shards == ((1,), (2, 3))
        assert max(shard_map.weights) == 500

    def test_clamps_to_length_count(self):
        shard_map = compute_shard_map([10, 20], [1, 1], 8)
        assert shard_map.n_shards == 2

    def test_owner_lookup(self):
        shard_map = compute_shard_map([5, 10, 15], [1, 1, 1], 3)
        assert [shard_map.owner(length) for length in (5, 10, 15)] == [0, 1, 2]
        with pytest.raises(KeyError):
            shard_map.owner(99)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            compute_shard_map([], [], 2)
        with pytest.raises(ValueError):
            compute_shard_map([5], [1], 0)

    def test_replica_assignment(self):
        shard_map = compute_shard_map([5, 10, 15], [1, 1, 1], 3)
        assert assign_replicas(shard_map, 1) == ((0,), (1,), (2,))
        assert assign_replicas(shard_map, 2) == ((0, 1), (2, 3), (4, 5))
        # Deterministic: same inputs, same placement.
        assert assign_replicas(shard_map, 2) == assign_replicas(shard_map, 2)
        with pytest.raises(ValueError):
            assign_replicas(shard_map, 0)

    def test_from_manifest(self, v3_path, small_index):
        manifest = read_manifest(v3_path)
        assert manifest["sharding"]["strategy"] == "contiguous-balanced"
        shard_map = shard_map_from_manifest(manifest, 2)
        assert shard_map.lengths == small_index.rspace.lengths
        # Weights come from the persisted per-length subsequence counts.
        totals = {
            entry["length"]: entry["n_subsequences"]
            for entry in manifest["lengths"]
        }
        assert sum(shard_map.weights) == sum(totals.values())


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
class TestMetrics:
    def test_histogram_counts_and_merge(self):
        histogram = LatencyHistogram()
        histogram.observe(0.001)
        histogram.observe(0.010)
        histogram.observe(5.0)
        snapshot = histogram.to_dict()
        assert snapshot["count"] == 3
        assert snapshot["sum_seconds"] == pytest.approx(5.011)
        assert snapshot["max_seconds"] == pytest.approx(5.0)
        assert sum(b["count"] for b in snapshot["buckets"]) == 3
        assert snapshot["buckets"][-1]["le_ms"] is None  # +inf bucket

        other = LatencyHistogram()
        other.merge_dict(snapshot)
        other.observe(0.002)
        assert other.to_dict()["count"] == 4

    def test_histogram_merge_rejects_foreign_grid(self):
        histogram = LatencyHistogram()
        with pytest.raises(ValueError):
            histogram.merge_dict({"buckets": [{"count": 1}]})

    def test_cluster_counters(self):
        metrics = ClusterMetrics()
        metrics.record_op("query")
        metrics.record_op("query")
        metrics.record_busy()
        metrics.record_shard_error()
        metrics.record_worker_restart()
        snapshot = metrics.to_dict()
        assert snapshot["ops"]["query"] == 2
        assert snapshot["busy_rejected"] == 1
        assert snapshot["errors"]["busy"] == 1
        assert snapshot["shard_errors"] == 1
        assert snapshot["worker_restarts"] == 1
        assert set(snapshot["stages"]) == {
            "parse",
            "route",
            "shard_compute",
            "merge",
        }


# ----------------------------------------------------------------------
# Pure merge helpers
# ----------------------------------------------------------------------
class TestMergeHelpers:
    def test_sweep_runs_cut_the_order_at_shard_boundaries(self):
        shard_map = ShardMap("test", ((6, 12), (18, 24), (30,)), (2, 2, 1))
        # Order for a query of 19: 18, 12, 6, then 24, 30.
        assert sweep_runs(shard_map, 19) == [
            (1, [18]),
            (0, [12, 6]),
            (1, [24]),
            (2, [30]),
        ]
        # From either end the order never returns to a shard.
        assert sweep_runs(shard_map, 3) == [(0, [6, 12]), (1, [18, 24]), (2, [30])]
        assert sweep_runs(shard_map, 99) == [(2, [30]), (1, [24, 18]), (0, [12, 6])]

    def test_merge_within_reproduces_stable_order(self):
        shard0 = [
            {"series": 0, "dtw_normalized": 0.1},
            {"series": 1, "dtw_normalized": 0.3},
        ]
        shard1 = [
            {"series": 2, "dtw_normalized": 0.1},
            {"series": 3, "dtw_normalized": 0.2},
        ]
        merged = merge_within([shard0, shard1])
        # Ties resolve in shard (= generation) order: series 0 before 2.
        assert [match["series"] for match in merged] == [0, 2, 3, 1]


# ----------------------------------------------------------------------
# Failure-model primitives: breaker, budget, respawn backoff
# ----------------------------------------------------------------------
class _FakeClock:
    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now


class TestCircuitBreaker:
    def test_open_half_open_close_cycle(self):
        clock = _FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=2, reset_after=5.0, clock=clock
        )
        assert breaker.state == "closed"
        assert breaker.allows()
        breaker.record_failure()
        assert breaker.state == "closed"  # below threshold
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allows()
        clock.now += 5.1
        assert breaker.allows()  # first call past reset -> half-open probe
        assert breaker.state == "half_open"
        assert not breaker.allows()  # only one probe at a time
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.consecutive_failures == 0
        assert breaker.transitions == {
            "open": 1,
            "half_open": 1,
            "closed": 1,
        }

    def test_failed_probe_reopens(self):
        clock = _FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, reset_after=2.0, clock=clock
        )
        breaker.record_failure()
        assert breaker.state == "open"
        clock.now += 2.5
        assert breaker.allows()
        breaker.record_failure()  # probe failed
        assert breaker.state == "open"
        assert not breaker.allows()  # timer restarted
        clock.now += 2.5
        assert breaker.allows()

    def test_transition_callback_feeds_metrics(self):
        metrics = ClusterMetrics()
        breaker = CircuitBreaker(
            failure_threshold=1,
            reset_after=0.0,
            clock=_FakeClock(),
            on_transition=metrics.record_breaker_transition,
        )
        breaker.record_failure()
        assert metrics.to_dict()["breaker_transitions"] == {"open": 1}


class TestBudgetAndBackoff:
    def test_budget_counts_down_and_raises(self):
        clock = _FakeClock()
        budget = Budget(250.0, clock=clock)
        assert budget.remaining_seconds() == pytest.approx(0.25)
        budget.check()  # plenty left
        clock.now += 0.2
        assert budget.remaining_seconds() == pytest.approx(0.05)
        clock.now += 0.1
        with pytest.raises(DeadlineExceeded):
            budget.check()

    def test_respawn_delay_doubles_to_cap(self):
        delays = [respawn_delay(n, 0.2, 1.0) for n in range(1, 6)]
        assert delays == [0.2, 0.4, 0.8, 1.0, 1.0]


# ----------------------------------------------------------------------
# Background job queue
# ----------------------------------------------------------------------
class TestJobQueue:
    def test_build_job_lifecycle(self, tmp_path):
        queue = JobQueue()
        try:
            ticket = queue.submit(
                "build",
                {
                    "dataset": {"name": "ItalyPower", "n_series": 4, "length": 16},
                    "st": 0.3,
                    "path": str(tmp_path / "job_index"),
                },
            )
            assert ticket["status"] == "queued"
            for _ in range(200):
                status = queue.status(ticket["job"])
                if status["status"] in ("done", "error"):
                    break
                import time

                time.sleep(0.05)
            assert status["status"] == "done", status
            assert (tmp_path / "job_index" / "manifest.json").exists()
            assert status["result"]["lengths"]
            assert queue.list_jobs()[0]["job"] == ticket["job"]
        finally:
            queue.close()

    def test_unknown_kind_and_job(self):
        queue = JobQueue()
        try:
            with pytest.raises(ValueError):
                queue.submit("bogus", {})
            with pytest.raises(KeyError):
                queue.status("job-404")
        finally:
            queue.close()

    def test_close_reports_clean_join(self):
        queue = JobQueue()
        assert queue.closed_clean is None  # no close attempted yet
        assert queue.close() is True
        assert queue.closed_clean is True

    def test_close_timeout_is_detected_and_sticky(self, capsys):
        from repro.serve.cluster import jobs as jobs_module

        release = __import__("threading").Event()
        jobs_module._RUNNERS["_test_hang"] = lambda params: release.wait(10)
        queue = JobQueue()
        try:
            queue.submit("_test_hang", {})
            assert queue.close(join_timeout=0.2) is False
            assert queue.closed_clean is False
            assert "join timed out" in capsys.readouterr().err
            release.set()
            queue._thread.join(timeout=10)
            # A later clean-looking join must not mask the timeout.
            assert queue.close(join_timeout=5) is True
            assert queue.closed_clean is False
        finally:
            release.set()
            jobs_module._RUNNERS.pop("_test_hang", None)


# ----------------------------------------------------------------------
# Single-process server fixes (id echo everywhere)
# ----------------------------------------------------------------------
class TestRespond:
    def test_error_responses_echo_id(self, single_service):
        for request in (
            {"op": "nonsense", "id": 7},
            {"op": "query", "id": 8},
            {"op": "query", "values": [0.1] * 12, "k": 0, "id": 9},
            {"op": "seasonal", "id": 10},
        ):
            response = respond(single_service, request)
            assert response["ok"] is False
            assert response["id"] == request["id"]

    def test_unknown_op_via_handle_request_then_respond(self, single_service):
        # handle_request alone reports the error; respond adds the id.
        assert handle_request(single_service, {"op": "zap"})["ok"] is False
        assert respond(single_service, {"op": "zap", "id": 1})["id"] == 1

    def test_ping_op(self, single_service):
        assert respond(single_service, {"op": "ping", "id": 2}) == {
            "ok": True,
            "pong": True,
            "id": 2,
        }


# ----------------------------------------------------------------------
# Service-level scatter/gather primitives (no subprocesses)
# ----------------------------------------------------------------------
class TestSweepRefine:
    def test_chained_sweeps_then_refine_match_query(self, single_service):
        from repro.core.rspace import search_length_order

        service = single_service
        lengths = service.index.rspace.lengths
        rng = np.random.default_rng(5)
        for query_length in (lengths[0], lengths[0] + 3, lengths[-1]):
            values = rng.random(query_length) * 0.8 + 0.1
            direct = service.query(values, k=2)
            order = search_length_order(lengths, query_length)
            best = None
            for run in (order[:1], order[1:3], order[3:]):
                bound = None if best is None else best[1][0][2]
                (outcome,) = service.sweep([values], [run], [bound])
                if outcome:
                    best = outcome
                    if outcome[2]:
                        break
            assert best is not None
            routed = service.refine(values, best[0], best[1], k=2)
            assert [
                (m.ssid, m.dtw, m.dtw_normalized, m.group) for m in direct
            ] == [
                (m.ssid, m.dtw, m.dtw_normalized, m.group) for m in routed
            ]

    def test_repeated_sweep_is_a_cache_hit(self, single_service):
        service = single_service
        values = np.linspace(0.15, 0.85, 10)
        run = service.index.rspace.lengths[:2]
        first = service.sweep([values], [run], [None])
        before = service.shard_info()
        assert service.sweep([values], [run], [None]) == first
        after = service.shard_info()
        assert after["cache"]["hits"] == before["cache"]["hits"] + 1
        assert after["query_stats"] == before["query_stats"]
        # Another bound is another sweep.
        service.sweep([values], [run], [1e-9])
        assert service.shard_info()["cache"]["hits"] == after["cache"]["hits"]

    def test_within_lengths_partition_merges(self, single_service):
        service = single_service
        lengths = service.index.rspace.lengths
        values = np.linspace(0.2, 0.8, lengths[1])
        whole = service.within(values, st=0.6)
        split = [
            match
            for subset in (lengths[:2], lengths[2:])
            for match in service.within(values, st=0.6, lengths=subset)
        ]
        split.sort(key=lambda match: match.dtw_normalized)
        assert [(m.ssid, m.dtw) for m in whole] == [
            (m.ssid, m.dtw) for m in split
        ]

    def test_within_rejects_length_and_lengths(self, single_service):
        from repro.exceptions import QueryError

        with pytest.raises(QueryError):
            single_service.index.processor.within_threshold(
                np.linspace(0, 1, 12), length=12, lengths=[12]
            )


# ----------------------------------------------------------------------
# End-to-end: real worker subprocesses behind the router
# ----------------------------------------------------------------------
class TestClusterEndToEnd:
    def test_bit_identity_with_single_process(
        self, v3_path, single_service
    ):
        lengths = single_service.index.rspace.lengths
        requests = _requests(lengths)
        expected = [
            json.dumps(respond(single_service, dict(request)), sort_keys=True)
            for request in requests
        ]

        async def run():
            router = ClusterRouter(
                v3_path, n_shards=2, max_inflight=16, ping_interval=30
            )
            await router.start()
            try:
                responses = [
                    json.dumps(
                        await router.process_request(dict(request)),
                        sort_keys=True,
                    )
                    for request in requests
                ]
                health = await router.process_request({"op": "health"})
                metrics = await router.process_request({"op": "metrics"})
                info = await router.process_request({"op": "info"})
            finally:
                await router.drain()
            return responses, health, metrics, info

        responses, health, metrics, info = _run(run())
        for request, want, got in zip(requests, expected, responses, strict=True):
            assert want == got, f"divergence on {request['id']}"

        assert health["health"]["status"] == "ok"
        assert len(health["health"]["shards"]) == 2
        assert all(shard["alive"] for shard in health["health"]["shards"])

        snapshot = metrics["metrics"]
        assert snapshot["ops"]["query"] == 7
        assert snapshot["stages"]["shard_compute"]["count"] > 0
        assert snapshot["stages"]["merge"]["count"] > 0
        assert len(snapshot["shard_latency"]) == 2
        assert snapshot["cache"]["misses"] > 0
        assert snapshot["query_stats"].get("rep_dtw_full", 0) > 0

        assert info["info"]["lengths"] == lengths
        assert info["info"]["n_shards"] == 2

    def test_reply_over_64k_returns(self, tmp_path):
        """Bugfix regression: a worker reply longer than asyncio's default
        64 KiB stream limit used to kill the router's read loop and wedge
        the shard until the request's deadline."""
        dataset = make_dataset("ItalyPower", n_series=120, length=64, seed=3)
        index = OnexIndex.build(dataset, st=0.2, lengths=[8, 48], seed=0)
        path = str(tmp_path / "wide_v3")
        save_index(index, path)
        request = {"op": "seasonal", "length": 8, "id": "s-wide"}
        with OnexService(OnexIndex.load(path), max_workers=1) as service:
            expected = json.dumps(respond(service, dict(request)), sort_keys=True)
        assert len(expected) > 64 * 1024

        async def run():
            router = ClusterRouter(path, n_shards=2, ping_interval=30)
            await router.start()
            try:
                response = await router.process_request(
                    {**request, "timeout_ms": 20000}
                )
                metrics = await router.process_request({"op": "metrics"})
            finally:
                await router.drain()
            return response, metrics["metrics"]

        response, metrics = _run(run())
        assert response["ok"], response
        assert json.dumps(response, sort_keys=True) == expected
        assert metrics["failovers"] == 0 and metrics["retries"] == 0

    def test_tcp_front_frames_over_64k_and_merged_evictions(
        self, v3_path, single_service, monkeypatch
    ):
        """Bugfix regressions: a request line over asyncio's default 64 KiB
        limit used to kill the connection handler (no reply); a line over
        the front's own limit is answered, not reset. Also: the merged
        ``cache.evictions`` is the per-shard sum (it used to read 0)."""
        from repro.serve.cluster import router as router_module

        rng = np.random.default_rng(8)
        batch = {
            "op": "query",
            "queries": [
                [float(v) for v in rng.random(24) * 0.8 + 0.1] for _ in range(240)
            ],
            "length": 24,
            "id": "wide",
        }
        wide = json.dumps(batch)
        assert 100 * 1024 < len(wide) < 200 * 1024
        expected = json.dumps(respond(single_service, dict(batch)), sort_keys=True)
        # Tested with a 256 KiB limit so the over-limit frame stays small.
        monkeypatch.setattr(router_module, "_LINE_LIMIT", 256 * 1024)
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]

        async def run():
            router = ClusterRouter(
                v3_path, n_shards=2, ping_interval=30, cache_size=2
            )
            await router.start()
            server = asyncio.create_task(router.serve_tcp("127.0.0.1", port))
            try:
                for _ in range(200):
                    try:
                        reader, writer = await asyncio.open_connection(
                            "127.0.0.1", port, limit=2**24
                        )
                        break
                    except OSError:
                        await asyncio.sleep(0.02)

                async def roundtrip(line: str) -> dict:
                    writer.write(line.encode() + b"\n")
                    await writer.drain()
                    return json.loads(
                        await asyncio.wait_for(reader.readline(), 60)
                    )

                answered = await roundtrip(wide)
                oversized = await roundtrip("x" * (300 * 1024))
                alive = await roundtrip('{"op": "ping"}')
                for length in (7, 8, 13, 14, 19, 20):
                    assert (
                        await roundtrip(
                            json.dumps({"op": "query", "values": [0.3] * length})
                        )
                    )["ok"]
                metrics = (await roundtrip('{"op": "metrics"}'))["metrics"]
                writer.close()
            finally:
                server.cancel()
                await server  # serve_tcp drains on cancellation
            return answered, oversized, alive, metrics

        answered, oversized, alive, metrics = _run(run())
        assert json.dumps(answered, sort_keys=True) == expected
        assert oversized["ok"] is False
        assert oversized["code"] == "frame_too_large"
        assert alive == {"ok": True, "pong": True}
        per_shard = [info["cache"]["evictions"] for info in metrics["per_shard"]]
        assert metrics["cache"]["evictions"] == sum(per_shard) > 0

    def test_backpressure_rejects_instead_of_buffering(self, v3_path):
        async def run():
            router = ClusterRouter(
                v3_path, n_shards=2, max_inflight=1, ping_interval=30
            )
            await router.start()
            try:
                blocker = asyncio.create_task(
                    router.process_request(
                        {"op": "shard_sleep", "shard": 0, "seconds": 1.5}
                    )
                )
                await asyncio.sleep(0.3)  # the sleep op now holds the slot
                rejected = await router.process_request(
                    {"op": "query", "values": [0.5] * 8, "id": "over"}
                )
                # Observability must bypass admission even under load.
                health = await router.process_request({"op": "health"})
                blocked = await blocker
                # The slot is free again: the same query now succeeds.
                accepted = await router.process_request(
                    {"op": "query", "values": [0.5] * 8, "id": "after"}
                )
                busy_count = router.metrics.busy_rejected
            finally:
                await router.drain()
            return rejected, health, blocked, accepted, busy_count

        rejected, health, blocked, accepted, busy_count = _run(run())
        assert rejected["ok"] is False
        assert rejected["code"] == "busy"
        assert rejected["id"] == "over"  # errors echo the id too
        assert health["ok"] is True
        assert blocked["ok"] is True
        assert accepted["ok"] is True
        assert busy_count == 1

    def test_worker_death_and_recovery(self, v3_path, single_service):
        probe = {"op": "query", "values": [0.4] * 10, "id": "probe"}
        expected = json.dumps(
            respond(single_service, dict(probe)), sort_keys=True
        )

        async def run():
            router = ClusterRouter(
                v3_path, n_shards=2, max_inflight=8, ping_interval=30
            )
            await router.start()
            try:
                victim = asyncio.create_task(
                    router.process_request(
                        {"op": "shard_sleep", "shard": 0, "seconds": 60, "id": "rip"}
                    )
                )
                await asyncio.sleep(0.3)
                os.kill(router.workers[0].pid, signal.SIGKILL)
                failed = await victim
                # The supervisor restarts the worker automatically.
                for _ in range(200):
                    if router.workers[0].alive:
                        try:
                            await router.workers[0].ping()
                            break
                        except ShardUnavailable:
                            pass
                    await asyncio.sleep(0.05)
                restarts = router.workers[0].restarts
                health = await router.process_request({"op": "health"})
                recovered = await router.process_request(dict(probe))
            finally:
                await router.drain()
            return failed, restarts, health, recovered

        failed, restarts, health, recovered = _run(run())
        assert failed["ok"] is False
        assert failed["code"] == "shard_unavailable"
        assert failed["id"] == "rip"
        assert restarts == 1
        assert health["health"]["status"] == "ok"
        assert json.dumps(recovered, sort_keys=True) == expected

    def test_drain_rejects_new_work(self, v3_path):
        async def run():
            router = ClusterRouter(
                v3_path, n_shards=2, max_inflight=4, ping_interval=30
            )
            await router.start()
            await router.drain()
            return await router.process_request(
                {"op": "query", "values": [0.5] * 8, "id": "late"}
            )

        response = _run(run())
        assert response["ok"] is False
        assert response["code"] == "draining"
        assert response["id"] == "late"

    def test_job_submit_and_poll_through_router(self, v3_path, tmp_path):
        async def run():
            router = ClusterRouter(
                v3_path, n_shards=2, max_inflight=4, ping_interval=30
            )
            await router.start()
            try:
                ticket = await router.process_request(
                    {
                        "op": "submit",
                        "kind": "build",
                        "params": {
                            "dataset": {
                                "name": "ItalyPower",
                                "n_series": 4,
                                "length": 16,
                            },
                            "st": 0.3,
                            "path": str(tmp_path / "bg_index"),
                        },
                        "id": "t",
                    }
                )
                assert ticket["ok"], ticket
                status = None
                for _ in range(200):
                    status = await router.process_request(
                        {"op": "job_status", "job": ticket["job"]}
                    )
                    if status["status"] in ("done", "error"):
                        break
                    await asyncio.sleep(0.05)
                listing = await router.process_request({"op": "jobs"})
            finally:
                await router.drain()
            return ticket, status, listing

        ticket, status, listing = _run(run())
        assert ticket["status"] == "queued"
        assert status["status"] == "done", status
        assert (tmp_path / "bg_index" / "manifest.json").exists()
        assert listing["jobs"][0]["job"] == ticket["job"]
        assert listing["closed_clean"] is None  # queue still open


# ----------------------------------------------------------------------
# Replicated shards: failover, deadlines, graceful degradation
# ----------------------------------------------------------------------
async def _kill_and_wait(worker) -> None:
    """SIGKILL one worker and wait until the router has noticed."""
    os.kill(worker.pid, signal.SIGKILL)
    for _ in range(200):
        if not worker.alive:
            return
        await asyncio.sleep(0.02)
    raise AssertionError("worker did not die")


def _stop_forever(worker) -> None:
    """Mark a worker stopping (no respawn) and SIGKILL it."""
    worker._stopping = True
    os.kill(worker.pid, signal.SIGKILL)


class TestReplicatedCluster:
    def test_replica_sets_and_flat_workers(self, v3_path):
        async def run():
            router = ClusterRouter(
                v3_path, n_shards=2, n_replicas=2, ping_interval=30
            )
            await router.start()
            try:
                health = await router.process_request({"op": "health"})
            finally:
                await router.drain()
            return router, health

        router, health = _run(run())
        assert len(router.shards) == 2
        assert [len(s.replicas) for s in router.shards] == [2, 2]
        # Flat view stays shard-major for back-compat and placement.
        assert [(w.shard_index, w.replica_index) for w in router.workers] == [
            (0, 0),
            (0, 1),
            (1, 0),
            (1, 1),
        ]
        assert router.replica_slots == ((0, 1), (2, 3))
        snapshot = health["health"]
        assert snapshot["n_replicas"] == 2
        assert len(snapshot["shards"]) == 4
        assert all(entry["breaker"]["state"] == "closed"
                   for entry in snapshot["shards"])

    def test_kill_one_replica_of_every_shard_bit_identity(
        self, v3_path, single_service
    ):
        """The acceptance scenario: SIGKILL a replica per shard mid-run;
        the mixed workload sees zero errors and bit-identical results."""
        lengths = single_service.index.rspace.lengths
        requests = _requests(lengths)
        expected = [
            json.dumps(respond(single_service, dict(request)), sort_keys=True)
            for request in requests
        ]

        async def run():
            router = ClusterRouter(
                v3_path,
                n_shards=2,
                n_replicas=2,
                ping_interval=30,
                # Slow respawn so the killed replicas stay down while
                # the battery runs: failover, not restart, must answer.
                respawn_backoff=30.0,
            )
            await router.start()
            try:
                warm = [
                    json.dumps(
                        await router.process_request(dict(request)),
                        sort_keys=True,
                    )
                    for request in requests
                ]
                for replica_set in router.shards:
                    await _kill_and_wait(replica_set.replicas[0])
                after = [
                    json.dumps(
                        await router.process_request(dict(request)),
                        sort_keys=True,
                    )
                    for request in requests
                ]
                metrics = await router.process_request({"op": "metrics"})
                health = await router.process_request({"op": "health"})
            finally:
                await router.drain()
            return warm, after, metrics, health

        warm, after, metrics, health = _run(run())
        assert warm == expected
        assert after == expected  # bit-identical across replica failover
        snapshot = metrics["metrics"]
        assert snapshot["failovers"] > 0
        assert snapshot["worker_restarts"] >= 2
        # Dead replicas surface as degraded, not unavailable: every
        # shard still has a live replica answering.
        assert health["health"]["status"] == "degraded"

    def test_kill_replica_mid_sweep_client_sees_success(
        self, v3_path, single_service
    ):
        # Seven points: the sweep starts at the smallest length, which
        # shard 0 owns, so the probe's first RPC goes to the victim.
        probe = {"op": "query", "values": [0.4] * 7, "id": "mid"}
        expected = json.dumps(
            respond(single_service, dict(probe)), sort_keys=True
        )

        async def run():
            router = ClusterRouter(
                v3_path,
                n_shards=2,
                n_replicas=2,
                ping_interval=30,
                replica_timeout_ms=60_000.0,
                respawn_backoff=30.0,
            )
            await router.start()
            try:
                assert sweep_runs(router.shard_map, 7)[0][0] == 0
                # Hold replica 0 of shard 0 busy via the direct path,
                # then kill it mid-request: the sweep in flight on it
                # must fail over to replica 1 invisibly.
                sleeper = asyncio.create_task(
                    router.process_request(
                        {"op": "shard_sleep", "shard": 0, "seconds": 60}
                    )
                )
                await asyncio.sleep(0.3)
                inflight = asyncio.create_task(
                    router.process_request(dict(probe))
                )
                await asyncio.sleep(0.1)
                await _kill_and_wait(router.shards[0].replicas[0])
                answered = await inflight
                stranded = await sleeper
                failovers = router.metrics.failovers
            finally:
                await router.drain()
            return answered, stranded, failovers

        answered, stranded, failovers = _run(run())
        assert json.dumps(answered, sort_keys=True) == expected
        # The direct (no-retry) sleep op reports the death honestly.
        assert stranded["ok"] is False
        assert stranded["code"] == "shard_unavailable"
        assert failovers >= 1

    def test_deadline_propagates_shrunken_budget(self, v3_path):
        async def run():
            router = ClusterRouter(
                v3_path, n_shards=2, n_replicas=1, ping_interval=30
            )
            await router.start()
            try:
                response = await router.process_request(
                    {
                        "op": "shard_sleep",
                        "shard": 0,
                        "seconds": 0,
                        "timeout_ms": 5_000,
                        "id": "b",
                    }
                )
            finally:
                await router.drain()
            return response

        response = _run(run())
        assert response["ok"] is True
        # Child budget <= parent budget, and some of it was spent
        # before the subrequest went out.
        assert 0 < response["budget_ms"] <= 5_000

    def test_deadline_exceeded_is_structured(self, v3_path):
        async def run():
            router = ClusterRouter(
                v3_path, n_shards=2, n_replicas=1, ping_interval=30
            )
            await router.start()
            try:
                response = await router.process_request(
                    {
                        "op": "shard_sleep",
                        "shard": 0,
                        "seconds": 2,
                        "timeout_ms": 300,
                        "id": "d",
                    }
                )
                deadline_count = router.metrics.to_dict()[
                    "deadline_exceeded"
                ]
            finally:
                await router.drain()
            return response, deadline_count

        response, deadline_count = _run(run())
        assert response["ok"] is False
        assert response["code"] == "deadline_exceeded"
        assert response["id"] == "d"
        assert deadline_count == 1

    def test_timeout_ms_validation_matches_single_process(
        self, v3_path, single_service
    ):
        bad = {"op": "query", "values": [0.4] * 10, "timeout_ms": 0, "id": "t"}
        expected = respond(single_service, dict(bad))
        assert expected["ok"] is False

        async def run():
            router = ClusterRouter(v3_path, n_shards=2, ping_interval=30)
            await router.start()
            try:
                return await router.process_request(dict(bad))
            finally:
                await router.drain()

        response = _run(run())
        assert response["error"] == expected["error"]
        assert response["id"] == "t"

    def test_allow_partial_degrades_instead_of_failing(
        self, v3_path, single_service
    ):
        values = [0.4] * 12

        async def run():
            router = ClusterRouter(
                v3_path, n_shards=2, n_replicas=1, ping_interval=30
            )
            await router.start()
            try:
                _stop_forever(router.shards[1].replicas[0])
                for _ in range(200):
                    if not router.shards[1].replicas[0].alive:
                        break
                    await asyncio.sleep(0.02)
                strict = await router.process_request(
                    {"op": "within", "values": values, "st": 0.6, "id": "s"}
                )
                partial = await router.process_request(
                    {
                        "op": "within",
                        "values": values,
                        "st": 0.6,
                        "allow_partial": True,
                        "id": "p",
                    }
                )
                query_partial = await router.process_request(
                    {
                        "op": "query",
                        "values": values[:11],
                        "allow_partial": True,
                        "id": "q",
                    }
                )
                degraded_count = router.metrics.to_dict()[
                    "degraded_responses"
                ]
                health = await router.process_request({"op": "health"})
            finally:
                await router.drain()
            return strict, partial, query_partial, degraded_count, health

        strict, partial, query_partial, degraded_count, health = _run(run())
        assert strict["ok"] is False
        assert strict["code"] == "shard_unavailable"

        assert partial["ok"] is True
        assert partial["degraded"] is True
        assert partial["missing_shards"] == [1]
        # The surviving matches are exactly the single-process answer
        # restricted to the live shard's lengths.
        live_lengths = sorted(
            set(single_service.index.rspace.lengths)
            - set(partial["missing_lengths"])
        )
        expected = handle_request(
            single_service,
            {"op": "within", "values": values, "st": 0.6,
             "lengths": live_lengths},
        )
        assert partial["matches"] == expected["matches"]

        assert query_partial["ok"] is True
        assert query_partial["degraded"] is True
        assert query_partial["matches"]  # re-swept over live lengths
        assert degraded_count >= 2
        assert health["health"]["status"] == "unavailable"


# ----------------------------------------------------------------------
# The segmented §5.3 sweep: walks, carried bounds, degraded semantics
# ----------------------------------------------------------------------
_SWEEP_GRID = [6, 9, 12, 15, 18, 24]


@pytest.fixture(scope="module")
def sweep_indexes(small_dataset, tmp_path_factory) -> dict:
    """``{st: (v3 path, loaded index)}``; at ST 0.02 hardly any
    representative is within ST/2 of a random query, so sweeps cross
    every run."""
    indexes = {}
    for st in (0.2, 0.02):
        index = OnexIndex.build(
            small_dataset, st=st, lengths=_SWEEP_GRID, normalize=False, seed=0
        )
        path = str(tmp_path_factory.mktemp("sweep") / "index_v3")
        save_index(index, path)
        indexes[st] = (path, OnexIndex.load(path))
    return indexes


def _random_query(rng, length: int) -> np.ndarray:
    return rng.random(int(length)) * 0.8 + 0.1


def _library_answer(index, values, k: int) -> tuple[list[dict], int, int]:
    """``OnexIndex.query`` as the wire would carry it, plus its work."""
    matches = [match_to_dict(m) for m in index.query(values, k=k)]
    stats = index.processor.last_stats
    return matches, stats.lengths_visited, stats.reps_examined


def _restricted_answer(index, values, k: int, dead_lengths) -> list[dict]:
    """The in-process sweep skipping ``dead_lengths``."""
    query = np.asarray(values, dtype=np.float64)
    order = [
        length
        for length in index.rspace.search_length_order(len(query))
        if length not in dead_lengths
    ]
    processor = index.processor
    ((bucket, scans),) = processor.assign_buckets_stacked(
        query[None, :], lengths=order
    )
    return [
        match_to_dict(m) for m in processor.search_groups(bucket, scans, query, k)
    ]


def _count_shard_ops(router) -> dict:
    """Count RPCs per ``(shard, op)`` the way the perf ledger traces them."""
    counts: dict = {}

    def counted(replica_set, call):
        def wrapper(payload, budget=None):
            key = (replica_set.shard_index, payload["op"])
            counts[key] = counts.get(key, 0) + 1
            return call(payload, budget)

        return wrapper

    for replica_set in router.shards:
        replica_set.call = counted(replica_set, replica_set.call)
    return counts


class TestSegmentedSweep:
    @pytest.mark.parametrize("st", [0.2, 0.02])
    @pytest.mark.parametrize("n_shards", [2, 3])
    def test_walk_equals_in_process_sweep(self, sweep_indexes, n_shards, st):
        path, index = sweep_indexes[st]
        grid = index.rspace.lengths
        rng = np.random.default_rng(n_shards)
        # Shorter than the smallest, longer than the largest, on-grid,
        # and a random spread of on- and off-grid lengths.
        query_lengths = [3, 30, grid[0], grid[-1], int(rng.choice(grid))]
        query_lengths += rng.integers(4, 28, size=7).tolist()
        requests, expected = [], []
        lengths_visited = reps_examined = 0
        for length in query_lengths:
            for k in (1, 3):
                values = _random_query(rng, length)
                matches, visited, examined = _library_answer(index, values, k)
                lengths_visited += visited
                reps_examined += examined
                requests.append({"op": "query", "values": values.tolist(), "k": k})
                expected.append({"ok": True, "matches": matches})
        batch = [_random_query(rng, n) for n in rng.integers(4, 28, size=16)]
        batch_expected = []
        for values in batch:
            matches, visited, examined = _library_answer(index, values, 2)
            lengths_visited += visited
            reps_examined += examined
            batch_expected.append(matches)

        async def run():
            router = ClusterRouter(path, n_shards=n_shards, ping_interval=30)
            await router.start()
            try:
                answers = [
                    await router.process_request(dict(request))
                    for request in requests
                ]
                singles = (await router.process_request({"op": "metrics"}))["metrics"]
                counts = _count_shard_ops(router)
                batch_answer = await router.process_request(
                    {
                        "op": "query",
                        "queries": [values.tolist() for values in batch],
                        "k": 2,
                    }
                )
                ops = dict(counts)
                cold = (await router.process_request({"op": "metrics"}))["metrics"]
                # (d) a repeat is answered from the worker's cache.
                repeat = await router.process_request(dict(requests[0]))
                warm = (await router.process_request({"op": "metrics"}))["metrics"]
                max_runs = max(
                    len(sweep_runs(router.shard_map, len(values)))
                    for values in batch
                )
            finally:
                await router.drain()
            return answers, singles, ops, batch_answer, cold, repeat, warm, max_runs

        answers, singles, ops, batch_answer, cold, repeat, warm, max_runs = _run(
            run()
        )
        assert answers == expected
        assert batch_answer == {"ok": True, "results": batch_expected}
        # Same function, same order, same bounds: the work is equal too.
        assert cold["query_stats"]["lengths_visited"] == lengths_visited
        assert cold["query_stats"]["reps_examined"] == reps_examined
        assert singles["any_length_queries"] == len(requests)
        assert cold["any_length_queries"] == len(requests) + len(batch)
        if st == 0.2:
            # Every sweep stops in its first run: one RPC, one length.
            assert singles["any_length_shard_rpcs"] == len(requests)
            assert lengths_visited == len(requests) + len(batch)
            assert not any(op == "refine" for _, op in ops)
        else:
            # Most sweeps visit every length, crossing every run.
            assert singles["any_length_shard_rpcs"] > 2 * len(requests)
            assert lengths_visited > 5 * (len(requests) + len(batch))
        # (c) a batch round is at most one sweep RPC per shard.
        assert {op for _, op in ops} <= {"sweep", "refine"}
        assert all(count <= max_runs for count in ops.values()), ops
        assert repeat == expected[0]
        assert warm["cache"]["hits"] > cold["cache"]["hits"]
        assert warm["query_stats"] == cold["query_stats"]

    @pytest.mark.parametrize("st", [0.2, 0.02])
    def test_allow_partial_names_only_shards_the_sweep_needed(
        self, sweep_indexes, st
    ):
        path, index = sweep_indexes[st]
        rng = np.random.default_rng(21)
        low, high = _random_query(rng, 7), _random_query(rng, 23)

        async def run():
            router = ClusterRouter(
                path, n_shards=2, n_replicas=1, ping_interval=30
            )
            await router.start()
            try:
                dead = list(router.shards[1].lengths)
                assert sweep_runs(router.shard_map, 7)[0][0] == 0
                assert sweep_runs(router.shard_map, 23)[0][0] == 1
                _stop_forever(router.shards[1].replicas[0])
                for _ in range(200):
                    if not router.shards[1].replicas[0].alive:
                        break
                    await asyncio.sleep(0.02)
                answers = [
                    await router.process_request(
                        {
                            "op": "query",
                            "values": values.tolist(),
                            "k": 2,
                            "allow_partial": True,
                        }
                    )
                    for values in (low, high)
                ]
                batch = await router.process_request(
                    {
                        "op": "query",
                        "queries": [low.tolist(), high.tolist()],
                        "k": 3,
                        "allow_partial": True,
                    }
                )
                strict = await router.process_request(
                    {"op": "query", "values": high.tolist(), "id": "s"}
                )
            finally:
                await router.drain()
            return dead, answers, batch, strict

        dead, (from_low, from_high), batch, strict = _run(run())
        degraded = {
            "degraded": True,
            "missing_shards": [1],
            "missing_lengths": dead,
        }
        assert from_high == {
            "ok": True,
            "matches": _restricted_answer(index, high, 2, dead),
            **degraded,
        }
        _, visited, _ = _library_answer(index, low, 2)
        if visited == 1:
            # The sweep stopped on shard 0: the dead shard is none of
            # this query's business.
            assert from_low == {
                "ok": True,
                "matches": _library_answer(index, low, 2)[0],
            }
        else:
            assert from_low == {
                "ok": True,
                "matches": _restricted_answer(index, low, 2, dead),
                **degraded,
            }
        assert batch == {
            "ok": True,
            "results": [
                _restricted_answer(index, values, 3, dead)
                for values in (low, high)
            ],
            **degraded,
        }
        assert strict["code"] == "shard_unavailable" and strict["id"] == "s"

    def test_holder_of_the_best_dies_before_refine(self, sweep_indexes):
        """The carry names a length whose shard then loses its last
        replica: the walk starts over without that shard's lengths."""
        path, index = sweep_indexes[0.02]
        rng = np.random.default_rng(4)

        async def run():
            router = ClusterRouter(
                path, n_shards=3, n_replicas=1, ping_interval=30
            )
            await router.start()
            try:
                # A query whose best is not in its last run, so the walk
                # ends with a refine RPC to the holder.
                for _ in range(50):
                    values = _random_query(rng, rng.integers(4, 28))
                    runs = sweep_runs(router.shard_map, len(values))
                    ((bucket, _),) = index.processor.assign_buckets_stacked(
                        values[None, :]
                    )
                    if bucket.length not in runs[-1][1]:
                        break
                else:
                    raise AssertionError("no query ends with a refine")
                holder = router.shards[router.shard_map.owner(bucket.length)]
                call = holder.call
                sweeps_before_refine = []

                async def dying(payload, budget=None):
                    if payload["op"] == "sweep" and holder.replicas[0].alive:
                        sweeps_before_refine.append(payload)
                    if payload["op"] == "refine":
                        _stop_forever(holder.replicas[0])
                        while holder.replicas[0].alive:
                            await asyncio.sleep(0.02)
                    return await call(payload, budget)

                holder.call = dying
                request = {"op": "query", "values": values.tolist(), "k": 2}
                partial = await router.process_request(
                    {**request, "allow_partial": True}
                )
                assert sweeps_before_refine and not holder.replicas[0].alive
                strict = await router.process_request(dict(request))
            finally:
                await router.drain()
            return values, holder, strict, partial

        values, holder, strict, partial = _run(run())
        assert strict["code"] == "shard_unavailable"
        dead = list(holder.lengths)
        assert partial == {
            "ok": True,
            "matches": _restricted_answer(index, values, 2, dead),
            "degraded": True,
            "missing_shards": [holder.shard_index],
            "missing_lengths": dead,
        }
