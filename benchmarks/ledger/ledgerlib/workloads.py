"""The five workloads, each driven through a real entry point.

Every workload follows the life of one index: seeded inputs are
written as a UCR file, ``onex build`` turns them into a v3 directory
(set-up), the workload's ops run against it in a closed loop — one
client, one connection, the next request only after the previous reply —
for ``--seconds`` (the timed phase), and the same directory then goes
through the *lifecycle check*: ``onex build --jobs 2`` must reproduce
its arrays byte for byte, fresh ``onex query`` processes must print the
library's answers, and a full-length ``within`` must hold up under DTW
recomputation. That is why every workload can report every end-to-end
metric from its own index; README.md says which samples feed which.

Timed sections contain only the op and a clock read; answers are kept
and checked afterwards.
"""

from __future__ import annotations

import contextlib
import filecmp
import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

from ledgerlib import checks, inputs, procs, stats
from repro import OnexIndex

WORKLOADS = ("build_cold", "lib_best", "lib_range", "serve_mix", "cluster_mix")

DIGEST_OPS = 64  # answers_digest covers the first N ops (always reached)
ST = 0.2
MIN_BUILD_ROUNDS = 3
# Op counts are fixed; a box much slower than the one they were sized
# on stops after this many budgets rather than overrun the driver.
OVERRUN = 2.0


@dataclass
class Context:
    workload: str
    seed: int
    seconds: float
    scale: inputs.Scale
    workdir: str
    attempted: int = 0
    failed: int = 0
    checks: dict[str, bool] = field(default_factory=dict)
    details: dict = field(default_factory=dict)

    @property
    def log(self) -> str:
        return os.path.join(self.workdir, "children.stderr")

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def count(self, ok: bool, times: int = 1) -> None:
        self.attempted += times
        self.failed += 0 if ok else times

    def check(self, name: str, ok: bool) -> None:
        self.checks[name] = self.checks.get(name, True) and bool(ok)


@dataclass
class Ready:
    """What one set-up leaves behind for the timed phase."""

    source: inputs.SeriesFile
    ucr_path: str
    index_path: str
    build_wall_s: float
    index: OnexIndex | None = None
    server: object = None  # StdioServer | TcpCluster
    requests: list[dict] = field(default_factory=list)
    lines: list[str] = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    def close(self) -> None:
        if self.server is not None:
            self.server.close()
            self.server = None


# ----------------------------------------------------------------------
# Shared steps
# ----------------------------------------------------------------------
def write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def build_index(ctx: Context, ucr_path: str, out: str, jobs: int) -> float:
    """`onex build` as a user runs it; returns the process wall."""
    wall, _ = procs.run_onex(
        [
            "build",
            "--ucr-file",
            ucr_path,
            "--st",
            str(ST),
            "--jobs",
            str(jobs),
            "--out",
            out,
        ],
        ctx.log,
        procs.BUILD_TIMEOUT_S,
    )
    return wall


def dir_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(path, name)) for name in os.listdir(path)
    )


def arrays_identical(first: str, second: str) -> bool:
    """Every ``.npy`` of two v3 directories equal byte for byte."""
    names = sorted(name for name in os.listdir(first) if name.endswith(".npy"))
    if names != sorted(n for n in os.listdir(second) if n.endswith(".npy")):
        return False
    _, mismatch, errors = filecmp.cmpfiles(first, second, names, shallow=False)
    return not mismatch and not errors


def cold_query(ctx: Context, index_path: str, query: dict) -> tuple[float, str]:
    """One fresh-process `onex query`: import + load + hydrate + query."""
    return procs.run_onex(
        [
            "query",
            index_path,
            "--series",
            str(query["series"]),
            "--start",
            str(query["start"]),
            "--length",
            str(query["length"]),
            "--k",
            str(inputs.QUERY_K),
        ],
        ctx.log,
        procs.OP_TIMEOUT_S,
    )


def warmup_requests(fixture: inputs.SeriesFile) -> list[dict]:
    """One exact query per grid length plus one any-length query."""
    grid = fixture.grid()
    requests = []
    for position, length in enumerate(grid):
        row = fixture.rows[position % len(fixture.rows)]
        requests.append(
            {
                "op": "query",
                "values": row[:length].tolist(),
                "length": int(length),
                "k": inputs.QUERY_K,
                "normalized": False,
            }
        )
    requests.append(
        {
            "op": "query",
            "values": fixture.rows[0][: grid[-1] - 1].tolist(),
            "k": inputs.QUERY_K,
            "normalized": False,
        }
    )
    return requests


def library_call(index: OnexIndex, request: dict):
    """Run one request dict through the `OnexIndex` library API."""
    op = request["op"]
    if op == "query":
        return index.query(
            np.asarray(request["values"]),
            length=request.get("length"),
            k=request.get("k", 1),
            normalized=request.get("normalized", True),
        )
    if op == "within":
        return index.within(
            np.asarray(request["values"]),
            length=request.get("length"),
            normalized=request.get("normalized", True),
        )
    if op == "seasonal":
        return index.seasonal(request["length"], series=request.get("series"))
    if op == "recommend":
        return index.recommend(
            degree=request.get("degree"), length=request.get("length")
        )
    raise ValueError(f"unknown op {op!r}")


def set_up(ctx: Context, kind: str) -> Ready:
    """Inputs → UCR file → `onex build` → loaded / served → warm.

    ``kind`` picks what "ready" means: ``build`` (inputs on disk only),
    ``lib`` (index loaded in-process), ``serve`` (stdio server healthy)
    or ``cluster`` (2×2 TCP cluster healthy). Each call starts from a
    fresh sub-directory so repeated set-ups do not share state.
    """
    scale, seed = ctx.scale, ctx.seed
    base = ctx.path(f"setup-{time.monotonic_ns()}")
    os.makedirs(base)
    ucr_path = os.path.join(base, "input.ucr")
    index_path = os.path.join(base, "index.onex")
    if kind == "build":
        source = inputs.make_buildset(seed, scale)
        write_text(ucr_path, source.text)
        return Ready(source, ucr_path, index_path, 0.0)

    source = inputs.make_fixture(seed, scale)
    write_text(ucr_path, source.text)
    build_wall = build_index(ctx, ucr_path, index_path, jobs=1)
    ready = Ready(source, ucr_path, index_path, build_wall)
    warm = warmup_requests(source)
    try:
        if ctx.workload == "lib_best":
            n_ops = int(scale.lib_best_ops_per_s * ctx.seconds)
            ready.requests = inputs.best_match_stream(seed, source, n_ops)
        elif ctx.workload == "lib_range":
            ready.extra = inputs.range_stream(seed, source, scale)
        elif ctx.workload in ("serve_mix", "cluster_mix"):
            rate = (
                scale.serve_ops_per_s
                if ctx.workload == "serve_mix"
                else scale.cluster_ops_per_s
            )
            ready.requests = inputs.serve_stream(
                seed, source, int(rate * ctx.seconds), scale.repeat_window
            )
            ready.lines = inputs.encode_lines(ready.requests)
        if kind == "lib":
            ready.index = OnexIndex.load(index_path)
            for request in warm:
                library_call(ready.index, request)
        else:
            server_type = procs.StdioServer if kind == "serve" else procs.TcpCluster
            ready.server = server_type(index_path, ctx.log)
            ready.server.wait_healthy()
            for request in warm:
                ready.server.channel.roundtrip(json.dumps(request))
    except BaseException:
        ready.close()
        raise
    return ready


def repeated_set_up(ctx: Context, kind: str) -> tuple[Ready, list[float], list[float]]:
    """Set up ``scale.setups`` times; keep the last, time them all."""
    walls: list[float] = []
    builds: list[float] = []
    ready = None
    for _ in range(ctx.scale.setups):
        if ready is not None:
            ready.close()
        started = time.perf_counter()
        ready = set_up(ctx, kind)
        walls.append(time.perf_counter() - started)
        builds.append(ready.build_wall_s)
    return ready, walls, builds


def lifecycle_check(
    ctx: Context,
    ready: Ready,
    index: OnexIndex,
    want: tuple[str, ...] = ("j2", "cold", "range"),
) -> dict:
    """The parts of the index lifecycle the timed phase did not cover."""
    samples: dict = {}
    source = ready.source
    if "j2" in want:
        twin = ready.index_path + ".j2"
        samples["build_j2_s"] = [build_index(ctx, ready.ucr_path, twin, jobs=2)]
        ok = arrays_identical(ready.index_path, twin)
        ctx.check("jobs2_arrays_identical", ok)
        ctx.count(ok)
    if "cold" in want:
        walls = []
        for query in inputs.cold_queries(ctx.seed, source, ctx.scale.cold_queries):
            wall, stdout = cold_query(ctx, ready.index_path, query)
            walls.append(wall * 1e3)
            ok = checks.cli_rows(stdout) == checks.expected_cli_rows(
                index, query, inputs.QUERY_K
            )
            ctx.check("cold_cli_equals_library", ok)
            ctx.count(ok)
        samples["cold_query_ms"] = walls
    if "range" in want:
        windows = 0
        seconds = 0.0
        for position in range(3):
            raw = source.rows[position % len(source.rows)]
            started = time.perf_counter()
            matches = index.within(raw, length=source.length, normalized=False)
            seconds += time.perf_counter() - started
            windows += len(matches)
            ok = len(matches) > 0 and checks.matches_are_sound(
                index, index.normalize_query(raw), matches, recompute=position == 0
            )
            ctx.check("within_sound", ok)
            ctx.count(ok)
        samples["range_windows"] = windows
        samples["range_seconds"] = seconds
    return samples


def index_samples(ctx: Context, ready: Ready, index: OnexIndex) -> dict:
    """Size of the index on disk; its window count must be Σ_L N·(n−L+1)."""
    expected = ready.source.n_windows()
    ctx.check("window_count", index.rspace.n_subsequences == expected)
    return {"index_bytes": dir_bytes(ready.index_path), "n_windows": expected}


# ----------------------------------------------------------------------
# Workload bodies: each returns the samples its metrics are made from
# ----------------------------------------------------------------------
def run_build_cold(ctx: Context) -> dict:
    scale = ctx.scale
    setup_walls = []
    ready = None
    for _ in range(max(scale.setups, 1) + 2):  # cheap, so a few more
        started = time.perf_counter()
        ready = set_up(ctx, "build")
        setup_walls.append(time.perf_counter() - started)
    source = ready.source
    twin = ready.index_path + ".j2"
    queries = inputs.cold_queries(ctx.seed, source, 64)
    min_rounds = MIN_BUILD_ROUNDS if scale.name == "full" else 1

    j1_walls: list[float] = []
    j2_walls: list[float] = []
    cold_ms: list[float] = []
    cold_out: list[str] = []
    started = time.perf_counter()
    rounds = 0
    while rounds < min_rounds or time.perf_counter() - started < ctx.seconds:
        j1_walls.append(build_index(ctx, ready.ucr_path, ready.index_path, jobs=1))
        j2_walls.append(build_index(ctx, ready.ucr_path, twin, jobs=2))
        for _ in range(scale.cold_queries):
            query = queries[len(cold_ms) % len(queries)]
            wall, stdout = cold_query(ctx, ready.index_path, query)
            cold_ms.append(wall * 1e3)
            cold_out.append(stdout)
        rounds += 1
    timed_wall = time.perf_counter() - started

    index = OnexIndex.load(ready.index_path)
    ok = arrays_identical(ready.index_path, twin)
    ctx.check("jobs2_arrays_identical", ok)
    ctx.count(ok, times=2 * rounds)
    answers = []
    for position, stdout in enumerate(cold_out):
        query = queries[position % len(queries)]
        rows = checks.cli_rows(stdout)
        ok = rows == checks.expected_cli_rows(index, query, inputs.QUERY_K)
        ctx.check("cold_cli_equals_library", ok)
        ctx.count(ok)
        answers.append(rows)
    extra = lifecycle_check(ctx, ready, index, want=("range",))
    ctx.details.update(
        rounds=rounds,
        inputs_digest=source.digest,
        answers_digest=checks.digest(answers[: scale.cold_queries]),
    )
    return {
        "setup_s": setup_walls,
        "op_ms": cold_ms,
        "ops": 2 * rounds + len(cold_ms),
        "timed_wall_s": timed_wall,
        "build_s": j1_walls,
        "build_j2_s": j2_walls,
        "cold_query_ms": cold_ms,
        **index_samples(ctx, ready, index),
        **extra,
    }


def run_lib_best(ctx: Context) -> dict:
    ready, setup_walls, builds = repeated_set_up(ctx, "lib")
    index = ready.index
    latencies: list[float] = []
    results = []
    started = time.perf_counter()
    deadline = started + OVERRUN * ctx.seconds
    for request in ready.requests:
        op_started = time.perf_counter()
        if op_started >= deadline:
            break
        matches = library_call(index, request)
        latencies.append((time.perf_counter() - op_started) * 1e3)
        results.append(matches)
    timed_wall = time.perf_counter() - started

    for position, matches in enumerate(results):
        request = ready.requests[position]
        query = index.normalize_query(np.asarray(request["values"]))
        ok = 0 < len(matches) <= inputs.QUERY_K and checks.matches_are_sound(
            index, query, matches, recompute=position % 20 == 0
        )
        ctx.check("matches_sound", ok)
        ctx.count(ok)
    extra = lifecycle_check(ctx, ready, index)
    ctx.details.update(
        inputs_digest=checks.digest(
            [
                ready.source.digest,
                inputs.stream_digest(inputs.encode_lines(ready.requests)),
            ]
        ),
        answers_digest=checks.digest(
            [[checks.match_fields(m) for m in r] for r in results[:DIGEST_OPS]]
        ),
    )
    return {
        "setup_s": setup_walls,
        "op_ms": latencies,
        "ops": len(latencies),
        "timed_wall_s": timed_wall,
        "build_s": builds,
        **index_samples(ctx, ready, index),
        **extra,
    }


def run_lib_range(ctx: Context) -> dict:
    ready, setup_walls, builds = repeated_set_up(ctx, "lib")
    index = ready.index
    stream = ready.extra
    within_ms: list[float] = []
    within_results = []
    other_ms: list[float] = []
    other_results = []
    started = time.perf_counter()
    round_wall = 0.0
    # Whole rounds over the grid only: the lengths differ 25× in cost,
    # so a partial round would change what the median means. Another
    # round starts while at least half of it still fits the budget.
    while not within_ms or (
        time.perf_counter() - started + round_wall / 2 < ctx.seconds
    ):
        round_started = time.perf_counter()
        for request in stream["within"]:
            op_started = time.perf_counter()
            matches = library_call(index, request)
            within_ms.append((time.perf_counter() - op_started) * 1e3)
            within_results.append(matches)
        round_wall = time.perf_counter() - round_started
    for request in stream["seasonal"] + stream["recommend"]:
        op_started = time.perf_counter()
        result = library_call(index, request)
        other_ms.append((time.perf_counter() - op_started) * 1e3)
        other_results.append(result)
    timed_wall = time.perf_counter() - started

    n_lengths = len(stream["within"])
    for position, matches in enumerate(within_results):
        request = stream["within"][position % n_lengths]
        query = index.normalize_query(np.asarray(request["values"]))
        ok = len(matches) > 0 and checks.matches_are_sound(
            index, query, matches[::50], recompute=position < n_lengths
        )
        ok = ok and all(m.ssid.length == request["length"] for m in matches[::50])
        ctx.check("within_sound", ok)
        ctx.count(ok)
    for request, result in zip(
        stream["seasonal"] + stream["recommend"], other_results, strict=True
    ):
        if request["op"] == "seasonal":
            series = request.get("series")
            ok = all(
                len(group) >= 2
                and all(series is None or s.series == series for s in group.members)
                for group in result
            )
        else:
            ok = len(result) >= 1 and all(rec.low <= rec.high for rec in result)
        ctx.check("seasonal_recommend_sound", ok)
        ctx.count(ok)
    extra = lifecycle_check(ctx, ready, index, want=("j2", "cold"))
    lines = inputs.encode_lines(
        stream["within"] + stream["seasonal"] + stream["recommend"]
    )
    ctx.details.update(
        within_rounds=len(within_ms) // n_lengths,
        inputs_digest=checks.digest(
            [ready.source.digest, inputs.stream_digest(lines)]
        ),
        answers_digest=checks.digest(
            [
                [checks.match_fields(m) for m in matches[::50]]
                for matches in within_results[:n_lengths]
            ]
        ),
    )
    return {
        "setup_s": setup_walls,
        "op_ms": within_ms,
        "ops": len(within_ms) + len(other_ms),
        "timed_wall_s": timed_wall,
        "build_s": builds,
        **index_samples(ctx, ready, index),
        "range_windows": sum(len(m) for m in within_results),
        "range_seconds": sum(within_ms) / 1e3,
        **extra,
    }


def run_served(ctx: Context, kind: str, verify_every: int) -> dict:
    """``serve_mix`` and ``cluster_mix``: same traffic, different tier."""
    ready, setup_walls, builds = repeated_set_up(ctx, kind)
    try:
        channel = ready.server.channel
        latencies: list[float] = []
        replies: list[str] = []
        timed_out = False
        started = time.perf_counter()
        deadline = started + OVERRUN * ctx.seconds
        for line in ready.lines:
            op_started = time.perf_counter()
            if op_started >= deadline:
                break
            try:
                reply = channel.roundtrip(line, procs.OP_TIMEOUT_S)
            except procs.HarnessTimeout:
                # The stream is out of step after a lost reply: stop.
                timed_out = True
                break
            latencies.append((time.perf_counter() - op_started) * 1e3)
            replies.append(reply)
        timed_wall = time.perf_counter() - started
        if timed_out:
            ctx.count(False)
        else:
            counters = read_counters(ready.server, kind)
            ctx.details["server_counters"] = counters
            if kind == "cluster":  # a retried request is not the same request
                noisy = ("failovers", "retries", "busy_rejected")
                ctx.check(
                    "no_failover_retry_busy",
                    not any(counters.get(name) for name in noisy),
                )
    finally:
        ready.close()

    index = OnexIndex.load(ready.index_path)
    oracle = checks.Oracle(index)
    answers = []
    for position, reply in enumerate(replies):
        request = ready.requests[position]
        if position % verify_every == 0:
            ok = oracle.reply_is_correct(request, reply)
        else:
            ok = checks.reply_ok(request, reply)
        ctx.check("replies_equal_library", ok)
        ctx.count(ok)
        if position < DIGEST_OPS:
            answers.append(json.loads(reply))
    extra = lifecycle_check(ctx, ready, index)
    ctx.details.update(
        verified=len(range(0, len(replies), verify_every)),
        inputs_digest=checks.digest(
            [ready.source.digest, inputs.stream_digest(ready.lines)]
        ),
        answers_digest=checks.digest(answers),
    )
    # Latency percentiles are over the interactive op, the single query:
    # the 5 % of slow ops (batches, within) would otherwise sit exactly
    # on p95. Throughput counts every op.
    singles = [
        latency
        for latency, request in zip(latencies, ready.requests, strict=False)
        if request["op"] == "query" and "values" in request
    ]
    return {
        "setup_s": setup_walls,
        "op_ms": singles,
        "ops": len(latencies),
        "timed_wall_s": timed_wall,
        "build_s": builds,
        **index_samples(ctx, ready, index),
        **extra,
    }


def read_counters(server, kind: str) -> dict:
    """Cache and router counters read from outside, after the timed phase."""
    op = "info" if kind == "serve" else "metrics"
    with contextlib.suppress(procs.HarnessTimeout, ValueError):
        reply = json.loads(server.channel.roundtrip(json.dumps({"op": op})))
        body = reply.get(op, {})
        keep = ("cache", "failovers", "retries", "busy_rejected", "query_stats")
        return {key: body[key] for key in keep if key in body}
    return {}


RUNNERS = {
    "build_cold": run_build_cold,
    "lib_best": run_lib_best,
    "lib_range": run_lib_range,
    "serve_mix": lambda ctx: run_served(ctx, "serve", verify_every=8),
    "cluster_mix": lambda ctx: run_served(ctx, "cluster", verify_every=4),
}


# ----------------------------------------------------------------------
# Samples → end-to-end metrics
# ----------------------------------------------------------------------
def end_to_end(samples: dict) -> tuple[dict[str, tuple[float, str]], dict]:
    """The ten end-to-end metrics of one untraced run, plus sample counts."""
    op_ms = samples["op_ms"]
    tail_ms, tail_pct = stats.tail(op_ms)
    metrics = {
        "setup_s": (stats.median(samples["setup_s"]), "s"),
        "p50_ms": (stats.smoothed_median(op_ms), "ms"),
        "p95_ms": (tail_ms, "ms"),
        "ops_per_s": (samples["ops"] / samples["timed_wall_s"], "1/s"),
        "range_windows_per_s": (
            samples["range_windows"] / samples["range_seconds"],
            "1/s",
        ),
        "build_s": (stats.median(samples["build_s"]), "s"),
        "build_j2_s": (stats.median(samples["build_j2_s"]), "s"),
        "cold_query_ms": (stats.median(samples["cold_query_ms"]), "ms"),
        "index_bytes_per_window": (
            samples["index_bytes"] / samples["n_windows"],
            "B",
        ),
        "peak_rss_mb": (procs.peak_rss_mib(), "MiB"),
    }
    counts = {
        "setup_s": len(samples["setup_s"]),
        "p50_ms": len(op_ms),
        "p95_ms": len(op_ms),
        "p95_percentile": tail_pct,
        "ops_per_s": samples["ops"],
        "build_s": len(samples["build_s"]),
        "build_j2_s": len(samples["build_j2_s"]),
        "cold_query_ms": len(samples["cold_query_ms"]),
        "range_windows_per_s": samples["range_windows"],
        "timed_wall_s": samples["timed_wall_s"],
    }
    return metrics, counts
