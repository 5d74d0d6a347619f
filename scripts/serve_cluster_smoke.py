"""CI smoke: `onex serve --shards 2` must answer bit-identically.

Builds a small fixture index, computes reference answers with an
in-process single-process ``OnexService``, then drives the *real* CLI
entry point (``python -m repro.cli serve IDX --shards 2``) over its
stdio JSON-lines pipe and compares responses by request id.

Query-class ops (``query`` single/batch/exact/any, ``within``,
``seasonal``, ``recommend``) and their error paths must match the
single process byte for byte (canonical JSON with sorted keys).
``info`` / ``health`` / ``metrics`` are structural: the cluster tier
reports shard-level state a single process does not have, so the smoke
asserts the documented shape (per-shard latency histograms, merged
cache and cascade counters) instead of equality — plus two exact
counts: the workers visited as many lengths and examined as many
representatives as the single process did for the same battery (the
any-length sweep is walked across shards, not scanned everywhere), and
an any-length query cost at most two shard RPCs.

``--chaos`` runs the failure-model scenario instead: the CLI is
started with ``--shards 2 --replicas 2``, a warm battery establishes
bit-identity, then one replica of **every** shard is SIGKILLed while a
second battery is in flight. The client must see zero errors and
bit-identical answers — router-side failover absorbs the deaths — and
the final ``metrics`` snapshot must show the failovers and restarts
that occurred.

Usage: python scripts/serve_cluster_smoke.py [--chaos] [--out metrics.json]
Exit code 0 on success; the metrics snapshot is written to --out for
upload as a CI artifact.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

import numpy as np  # noqa: E402

from repro.core.onex import OnexIndex  # noqa: E402
from repro.core.persistence import save_index  # noqa: E402
from repro.data.normalize import min_max_normalize_dataset  # noqa: E402
from repro.data.synthetic import make_dataset  # noqa: E402
from repro.serve.server import respond  # noqa: E402
from repro.serve.service import OnexService  # noqa: E402


def build_fixture(path: str) -> OnexIndex:
    dataset = min_max_normalize_dataset(
        make_dataset("ItalyPower", n_series=10, length=32, seed=3)
    )
    index = OnexIndex.build(
        dataset, st=0.25, lengths=[8, 12, 16, 24, 32], normalize=False, seed=0
    )
    save_index(index, path)
    return index


def make_requests(lengths: list[int]) -> list[dict]:
    rng = np.random.default_rng(17)

    def query(length: int) -> list[float]:
        return [float(v) for v in rng.random(length) * 0.8 + 0.1]

    mid = lengths[len(lengths) // 2]
    return [
        {"op": "query", "values": query(10), "id": "q-any"},
        {"op": "query", "values": query(mid), "k": 3, "id": "q-k"},
        {"op": "query", "values": query(mid), "length": mid, "id": "q-exact"},
        {
            "op": "query",
            "queries": [query(length) for length in lengths],
            "k": 2,
            "id": "q-batch",
        },
        {"op": "within", "values": query(mid), "st": 0.6, "id": "w-any"},
        {"op": "seasonal", "length": mid, "id": "s"},
        {"op": "recommend", "id": "r"},
        {"op": "query", "id": "e-novalues"},
        {"op": "wat", "id": "e-unknown"},
    ]


def rpcs_per_any_length_query(metrics: dict) -> float:
    """Shard RPCs per ``Match = Any`` query, from the router's counters."""
    queries = metrics.get("any_length_queries", 0)
    return metrics.get("any_length_shard_rpcs", 0) / queries if queries else 0.0


class PipeClient:
    """Tiny id-correlating JSON-lines client over a subprocess pipe."""

    def __init__(self, proc: subprocess.Popen) -> None:
        self.proc = proc
        self._responses: dict = {}
        self._lock = threading.Lock()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            line = line.strip()
            if not line:
                continue
            try:
                response = json.loads(line)
            except ValueError:
                continue
            with self._lock:
                self._responses[response.get("id")] = response

    def send(self, request: dict) -> None:
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()

    def wait_for(self, request_id: str, timeout: float = 300.0) -> dict:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with self._lock:
                if request_id in self._responses:
                    return self._responses.pop(request_id)
            time.sleep(0.01)
        raise TimeoutError(f"no response for {request_id!r}")

    def call(self, request: dict, timeout: float = 300.0) -> dict:
        self.send(request)
        return self.wait_for(request["id"], timeout)


def chaos_main(args: argparse.Namespace) -> int:
    workdir = tempfile.mkdtemp(prefix="onex-chaos-smoke-")
    index_path = os.path.join(workdir, "index_v3")
    index = build_fixture(index_path)
    lengths = index.rspace.lengths
    requests = make_requests(lengths)

    service = OnexService(OnexIndex.load(index_path), cache_size=256)
    expected = {
        request["id"]: json.dumps(
            respond(service, dict(request)), sort_keys=True
        )
        for request in requests
    }
    service.close()

    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "serve",
            index_path,
            "--shards",
            str(args.shards),
            "--replicas",
            "2",
        ],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=None,  # worker banners stream through for CI logs
        text=True,
        env=env,
    )
    client = PipeClient(proc)
    failures = 0
    victims: list[int] = []
    snapshot: dict = {}
    try:
        client.call({"op": "ping", "id": "warm-ping"})

        def battery(tag: str) -> int:
            for request in requests:
                client.send({**request, "id": f"{tag}:{request['id']}"})
            bad = 0
            for request in requests:
                request_id = request["id"]
                got = client.wait_for(f"{tag}:{request_id}")
                got["id"] = request_id  # compare modulo the round tag
                canonical = json.dumps(got, sort_keys=True)
                if canonical != expected[request_id]:
                    print(f"FAIL {tag}:{request_id}: diverged")
                    print(f"  single : {expected[request_id][:240]}")
                    print(f"  cluster: {canonical[:240]}")
                    bad += 1
            print(f"ok {tag}: {len(requests) - bad}/{len(requests)} "
                  "bit-identical")
            return bad

        failures += battery("warm")

        # SIGKILL one replica of every shard while round two is on the
        # wire: the router must fail over without a client-visible error.
        health = client.call({"op": "health", "id": "pre-kill-health"})
        victims = [
            entry["pid"]
            for entry in health["health"]["shards"]
            if entry["replica"] == 0
        ]
        for request in requests:
            client.send({**request, "id": f"mid:{request['id']}"})
        for pid in victims:
            os.kill(pid, signal.SIGKILL)
        print(f"killed replica 0 of every shard: pids {victims}")
        for request in requests:
            request_id = request["id"]
            got = client.wait_for(f"mid:{request_id}")
            got["id"] = request_id
            if json.dumps(got, sort_keys=True) != expected[request_id]:
                print(f"FAIL mid:{request_id}: diverged after SIGKILL")
                failures += 1
        print("ok mid: battery answered across the kills")

        # A full post-kill battery: guaranteed to ride the failover
        # path while the primaries respawn (or after, both must work).
        failures += battery("post")

        metrics = client.call({"op": "metrics", "id": "final-metrics"})
        snapshot = metrics["metrics"]
        health = client.call({"op": "health", "id": "final-health"})
        checks = [
            (snapshot["failovers"] > 0, "failovers recorded"),
            (
                snapshot["worker_restarts"] >= len(victims),
                "killed replicas respawned",
            ),
            (
                snapshot["errors"].get("shard_unavailable", 0) == 0,
                "no shard_unavailable surfaced to clients",
            ),
            (
                health["health"]["status"] in ("ok", "degraded"),
                "cluster still serving",
            ),
        ]
        for passed, label in checks:
            print(("ok " if passed else "FAIL ") + label)
            if not passed:
                failures += 1
    finally:
        try:
            proc.stdin.close()
            proc.wait(timeout=60)
        except Exception:
            proc.kill()

    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "scenario": "chaos",
                "shards": args.shards,
                "replicas": 2,
                "killed": len(victims),
                "metrics": snapshot,
            },
            handle,
            indent=2,
        )
    print(f"metrics snapshot written to {args.out}")

    if failures:
        print(f"{failures} chaos check(s) failed")
        return 1
    print(
        "chaos-smoke passed: one replica of every shard SIGKILLed, "
        "zero client-visible errors, bit-identical results"
    )
    return 0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", default="cluster-metrics.json")
    parser.add_argument("--shards", type=int, default=2)
    parser.add_argument(
        "--chaos",
        action="store_true",
        help="run the failure-model scenario: --replicas 2, SIGKILL one "
        "replica per shard mid-battery, assert zero client-visible errors",
    )
    args = parser.parse_args()
    if args.chaos:
        return chaos_main(args)

    workdir = tempfile.mkdtemp(prefix="onex-cluster-smoke-")
    index_path = os.path.join(workdir, "index_v3")
    index = build_fixture(index_path)
    lengths = index.rspace.lengths
    requests = make_requests(lengths)

    service = OnexService(OnexIndex.load(index_path), cache_size=256)
    expected = {
        request["id"]: json.dumps(
            respond(service, dict(request)), sort_keys=True
        )
        for request in requests
    }
    single_stats = service.shard_info()["query_stats"]
    service.close()

    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    observability = [
        {"op": "info", "id": "obs-info"},
        {"op": "health", "id": "obs-health"},
        {"op": "metrics", "id": "obs-metrics"},
    ]
    payload = "".join(
        json.dumps(request) + "\n"
        for request in requests + observability
    )
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "serve",
            index_path,
            "--shards",
            str(args.shards),
        ],
        input=payload,
        capture_output=True,
        text=True,
        env=env,
        timeout=600,
    )
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        print(f"FAIL: serve exited {proc.returncode}")
        return 1

    responses = {}
    for line in proc.stdout.splitlines():
        line = line.strip()
        if not line:
            continue
        response = json.loads(line)
        responses[response.get("id")] = response

    failures = 0
    for request in requests:
        request_id = request["id"]
        got = responses.get(request_id)
        if got is None:
            print(f"FAIL {request_id}: no response")
            failures += 1
            continue
        canonical = json.dumps(got, sort_keys=True)
        if canonical != expected[request_id]:
            print(f"FAIL {request_id}: cluster != single-process")
            print(f"  single : {expected[request_id][:240]}")
            print(f"  cluster: {canonical[:240]}")
            failures += 1
        else:
            print(f"ok {request_id}: bit-identical")

    info = responses.get("obs-info", {})
    health = responses.get("obs-health", {}).get("health", {})
    metrics = responses.get("obs-metrics", {}).get("metrics", {})
    checks = [
        (info.get("ok") is True, "info responds"),
        (info.get("info", {}).get("lengths") == lengths, "info lists lengths"),
        (
            info.get("info", {}).get("n_shards") == args.shards,
            f"info reports {args.shards} shards",
        ),
        (health.get("status") == "ok", "health status ok"),
        (
            len(health.get("shards", [])) == args.shards
            and all(shard["alive"] for shard in health["shards"]),
            "all shards alive",
        ),
        (
            len(health.get("shard_latency", [])) == args.shards,
            "per-shard latency histograms",
        ),
        (
            set(metrics.get("stages", {}))
            == {"parse", "route", "shard_compute", "merge"},
            "per-stage latency histograms",
        ),
        (
            metrics.get("stages", {}).get("shard_compute", {}).get("count", 0)
            > 0,
            "shard_compute observed",
        ),
        (metrics.get("cache", {}).get("misses", 0) > 0, "merged cache counters"),
        (
            metrics.get("query_stats", {}).get("rep_dtw_full", 0) > 0,
            "merged cascade counters",
        ),
        (
            all(
                metrics.get("query_stats", {}).get(key) == single_stats[key]
                for key in ("lengths_visited", "reps_examined")
            ),
            "lengths visited and representatives examined equal the "
            f"single process ({single_stats['lengths_visited']}, "
            f"{single_stats['reps_examined']})",
        ),
        (
            rpcs_per_any_length_query(metrics) <= 2,
            "at most 2 shard RPCs per any-length query "
            f"({metrics.get('any_length_shard_rpcs')} for "
            f"{metrics.get('any_length_queries')})",
        ),
    ]
    for passed, label in checks:
        print(("ok " if passed else "FAIL ") + label)
        if not passed:
            failures += 1

    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "shards": args.shards,
                "requests": len(requests),
                "rpcs_per_any_length_query": rpcs_per_any_length_query(metrics),
                "metrics": metrics,
                "health": health,
            },
            handle,
            indent=2,
        )
    print(f"metrics snapshot written to {args.out}")

    if failures:
        print(f"{failures} check(s) failed")
        return 1
    print("serve-cluster-smoke passed: all responses bit-identical")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
