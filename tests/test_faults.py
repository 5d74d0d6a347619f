"""Fault-injection harness: unit gating + chaos drills through the router.

The end-to-end tests arm worker-side faults (die / delay / drop /
corrupt) through the test-only ``inject_fault`` op and assert the
router's failure model absorbs each one: failover hides a death or a
slow replica, deadline budgets recover stranded frames, breakers open
on repeated failure and close after a successful half-open probe.
Everything here runs with ``ONEX_FAULTS=1``; the first test class pins
that the harness is inert without it.
"""

from __future__ import annotations

import asyncio
import json

import numpy as np
import pytest

from repro.core.onex import OnexIndex
from repro.core.persistence import save_index
from repro.serve.cluster.faults import ENV_FLAG, FaultInjector
from repro.serve.cluster.router import ClusterRouter
from repro.serve.server import respond
from repro.serve.service import OnexService


@pytest.fixture(scope="module")
def v3_path(small_index, tmp_path_factory) -> str:
    path = tmp_path_factory.mktemp("faults") / "index_v3"
    save_index(small_index, path)
    return str(path)


@pytest.fixture(scope="module")
def single_service(v3_path) -> OnexService:
    service = OnexService(
        OnexIndex.load(v3_path), max_workers=2, cache_size=256
    )
    yield service
    service.close()


def _run(coro):
    return asyncio.run(coro)


# ----------------------------------------------------------------------
# The injector itself (no processes)
# ----------------------------------------------------------------------
class TestFaultInjector:
    def test_disabled_by_default_and_gated_by_env(self):
        assert FaultInjector().enabled is False
        assert FaultInjector.from_env({}).enabled is False
        assert FaultInjector.from_env({ENV_FLAG: "0"}).enabled is False
        assert FaultInjector.from_env({ENV_FLAG: "1"}).enabled is True

    def test_arm_requires_enabled(self):
        with pytest.raises(RuntimeError, match="disabled"):
            FaultInjector().arm("die")

    def test_arm_validates_inputs(self):
        injector = FaultInjector(enabled=True)
        with pytest.raises(ValueError, match="unknown fault kind"):
            injector.arm("explode")
        with pytest.raises(ValueError, match="count"):
            injector.arm("die", count=0)
        with pytest.raises(ValueError, match="delay_ms"):
            injector.arm("delay", delay_ms=0)

    def test_match_consumes_charges_and_disarms(self):
        injector = FaultInjector(enabled=True)
        injector.arm("drop", ops=["sweep"], count=2)
        assert injector.match("refine") is None  # op filter
        assert injector.match("sweep").kind == "drop"
        assert injector.match("sweep").kind == "drop"
        assert injector.match("sweep") is None  # charges spent
        assert injector.list_faults() == []

    def test_control_channel_never_matches(self):
        injector = FaultInjector(enabled=True)
        injector.arm("die")  # ops=None matches everything else
        assert injector.match("inject_fault") is None
        assert injector.match("query").kind == "die"

    def test_disabled_match_is_inert(self):
        injector = FaultInjector()
        assert injector.match("query") is None


# ----------------------------------------------------------------------
# Chaos drills: armed faults through real workers
# ----------------------------------------------------------------------
def _probe(lengths) -> dict:
    rng = np.random.default_rng(9)
    values = [float(v) for v in rng.random(lengths[0] + 1) * 0.8 + 0.1]
    return {"op": "query", "values": values, "id": "probe"}


async def _arm(router, shard, replica, **kwargs):
    response = await router.process_request(
        {"op": "inject_fault", "shard": shard, "replica": replica, **kwargs}
    )
    assert response["ok"], response
    return response


class TestChaosDrills:
    @pytest.fixture(autouse=True)
    def _enable_faults(self, monkeypatch):
        # Workers inherit the router's environment, so setting the flag
        # here arms both sides of the double gate.
        monkeypatch.setenv(ENV_FLAG, "1")

    def _expected(self, single_service, request) -> str:
        return json.dumps(respond(single_service, dict(request)), sort_keys=True)

    def test_inject_fault_rejected_without_env(
        self, v3_path, monkeypatch
    ):
        monkeypatch.delenv(ENV_FLAG, raising=False)

        async def run():
            router = ClusterRouter(v3_path, n_shards=2, ping_interval=30)
            await router.start()
            try:
                return await router.process_request(
                    {"op": "inject_fault", "kind": "die", "id": "no"}
                )
            finally:
                await router.drain()

        response = _run(run())
        assert response["ok"] is False
        assert "disabled" in response["error"]

    def test_die_fault_fails_over_bit_identically(
        self, v3_path, single_service
    ):
        probe = _probe(single_service.index.rspace.lengths)
        expected = self._expected(single_service, probe)

        async def run():
            router = ClusterRouter(
                v3_path,
                n_shards=2,
                n_replicas=2,
                ping_interval=30,
                respawn_backoff=30.0,
            )
            await router.start()
            try:
                await _arm(router, 0, 0, kind="die", ops=["sweep"])
                answered = await router.process_request(dict(probe))
                failovers = router.metrics.failovers
                retries = router.metrics.retries
            finally:
                await router.drain()
            return answered, failovers, retries

        answered, failovers, retries = _run(run())
        assert json.dumps(answered, sort_keys=True) == expected
        assert failovers >= 1
        assert retries >= 1

    def test_delay_fault_trips_replica_timeout(
        self, v3_path, single_service
    ):
        probe = _probe(single_service.index.rspace.lengths)
        expected = self._expected(single_service, probe)

        async def run():
            router = ClusterRouter(
                v3_path,
                n_shards=2,
                n_replicas=2,
                ping_interval=30,
                replica_timeout_ms=400.0,
                respawn_backoff=30.0,
            )
            await router.start()
            try:
                await _arm(
                    router, 0, 0, kind="delay", ops=["sweep"], delay_ms=3_000
                )
                answered = await router.process_request(dict(probe))
                timeouts = router.metrics.to_dict()["replica_timeouts"]
            finally:
                await router.drain()
            return answered, timeouts

        answered, timeouts = _run(run())
        assert json.dumps(answered, sort_keys=True) == expected
        assert timeouts >= 1

    @pytest.mark.parametrize("kind", ["drop", "corrupt"])
    def test_stranded_reply_recovered_by_timeout(
        self, v3_path, single_service, kind
    ):
        """A dropped or corrupt frame strands the RPC future; the
        per-replica timeout fails it over and the client still gets the
        single-process answer."""
        probe = _probe(single_service.index.rspace.lengths)
        expected = self._expected(single_service, probe)

        async def run():
            router = ClusterRouter(
                v3_path,
                n_shards=2,
                n_replicas=2,
                ping_interval=30,
                replica_timeout_ms=400.0,
                respawn_backoff=30.0,
            )
            await router.start()
            try:
                await _arm(router, 0, 0, kind=kind, ops=["sweep"])
                answered = await router.process_request(
                    {**probe, "timeout_ms": 30_000}
                )
                timeouts = router.metrics.to_dict()["replica_timeouts"]
            finally:
                await router.drain()
            return answered, timeouts

        answered, timeouts = _run(run())
        answered.pop("id", None)
        expected_obj = json.loads(expected)
        expected_obj.pop("id", None)
        assert json.dumps(answered, sort_keys=True) == json.dumps(
            expected_obj, sort_keys=True
        )
        assert timeouts >= 1

    def test_breaker_opens_then_half_open_probe_closes(self, v3_path):
        """Three consecutive die faults open replica (0,0)'s breaker;
        traffic routes to replica 1 without failures while it is open;
        after the reset window a half-open probe closes it again."""

        async def run():
            router = ClusterRouter(
                v3_path,
                n_shards=2,
                n_replicas=2,
                ping_interval=30,
                breaker_failure_threshold=3,
                breaker_reset_seconds=1.0,
                respawn_backoff=0.05,
            )
            await router.start()
            victim = router.shards[0].replicas[0]
            probe = {"op": "query", "values": [0.5] * 7}
            try:
                for _ in range(3):
                    await _arm(router, 0, 0, kind="die", ops=["sweep"])
                    answered = await router.process_request(dict(probe))
                    assert answered["ok"], answered
                    # Wait for the respawn so the next round hits the
                    # primary again (breaker still closed).
                    for _ in range(400):
                        if victim.alive and victim.breaker.state != "open":
                            try:
                                await victim.ping()
                                break
                            except Exception:
                                pass
                        if victim.breaker.state == "open":
                            break
                        await asyncio.sleep(0.02)
                    if victim.breaker.state == "open":
                        break
                state_after_failures = victim.breaker.state
                # While open, requests succeed without touching replica 0.
                answered = await router.process_request(dict(probe))
                assert answered["ok"], answered
                # After the reset window, the next request probes
                # replica 0 (half-open) and a success closes it.
                await asyncio.sleep(1.1)
                for _ in range(400):
                    if victim.alive:
                        break
                    await asyncio.sleep(0.02)
                answered = await router.process_request(dict(probe))
                assert answered["ok"], answered
                closed_again = victim.breaker.state
                transitions = router.metrics.to_dict()[
                    "breaker_transitions"
                ]
            finally:
                await router.drain()
            return state_after_failures, closed_again, transitions

        state_after_failures, closed_again, transitions = _run(run())
        assert state_after_failures == "open"
        assert closed_again == "closed"
        assert transitions["open"] >= 1
        assert transitions["half_open"] >= 1
        assert transitions["closed"] >= 1

    def test_health_reports_crash_looping_replica(self, v3_path):
        """A worker that dies on every request trips the crash-loop
        detector: consecutive fast deaths surface in ``health``."""

        async def run():
            router = ClusterRouter(
                v3_path,
                n_shards=2,
                n_replicas=2,
                ping_interval=30,
                breaker_failure_threshold=100,  # keep the breaker out
                respawn_backoff=0.05,
                crash_loop_threshold=3,
            )
            await router.start()
            victim = router.shards[0].replicas[0]
            probe = {"op": "query", "values": [0.5] * 7}
            try:
                for _ in range(3):
                    await _arm(router, 0, 0, kind="die", ops=["sweep"])
                    answered = await router.process_request(dict(probe))
                    assert answered["ok"], answered
                    for _ in range(400):
                        if victim.alive:
                            try:
                                await victim.ping()
                                break
                            except Exception:
                                pass
                        await asyncio.sleep(0.02)
                health = await router.process_request({"op": "health"})
                crash_loops = router.metrics.to_dict()["crash_loops"]
            finally:
                await router.drain()
            return health, crash_loops

        health, crash_loops = _run(run())
        snapshot = health["health"]
        assert {"shard": 0, "replica": 0} in snapshot["crash_looping"]
        assert snapshot["status"] in ("degraded", "ok")
        assert crash_loops >= 1
