"""Per-layer probes: every layer timed from outside, through public calls.

A layer is a module under ``repro.``. The probes run on the workload's
fixture index with small fixed op counts, so a traced run of *any*
workload reports the whole table with the same method; counts come
from ``processor.last_stats``, ``OnexService``/``info`` and the
router's ``metrics`` op, times from clock reads around the calls.
README.md maps each row to the end-to-end metric it should move.
"""

from __future__ import annotations

import json
import time

import numpy as np

from ledgerlib import inputs, procs, stats
from ledgerlib.spans import Tracer
from ledgerlib.workloads import ST, dir_bytes
from repro import OnexIndex, OnexService, default_length_grid, load_ucr_file
from repro.core.grouping import GroupBuilder
from repro.core.query_processor import QueryStats
from repro.core.rspace import LengthBucket, RSpace
from repro.core.spspace import SPSpace
from repro.data.normalize import min_max_normalize_dataset
from repro.data.store import SubsequenceStore
from repro.distances.backend import get_backend
from repro.distances.batch import (
    dtw_batch,
    envelope_matrix,
    lb_keogh_reverse_batch,
    lb_kim_batch,
)
from repro.distances.dtw import band_bounds, dtw, resolve_window
from repro.serve.cache import ResultCache
from repro.serve.server import respond

WINDOW = 0.1  # `onex build` default band
OVERSIZE_TIMEOUT_S = 3.0


def clock(call, *args, **kwargs) -> tuple[float, object]:
    started = time.perf_counter()
    result = call(*args, **kwargs)
    return time.perf_counter() - started, result


def mean_seconds(call, repeats: int) -> float:
    started = time.perf_counter()
    for _ in range(repeats):
        call()
    return (time.perf_counter() - started) / repeats


# ----------------------------------------------------------------------
# The build path, taken apart along its public seams
# ----------------------------------------------------------------------
def build_pipeline(ucr_path: str, out_path: str, tracer: Tracer):
    """`onex build` + load, one span per layer call; returns both indexes.

    Follows ``OnexIndex.build``'s sequential path step for step (same
    rng, same order), so the saved arrays equal the CLI's byte for byte
    — the traced run asserts that.
    """
    with tracer.span("data.loader.load_ucr_file"):
        dataset = load_ucr_file(ucr_path)
    with tracer.span("data.normalize.min_max_normalize_dataset"):
        value_range = dataset.value_range
        normalized = min_max_normalize_dataset(dataset)
    with tracer.span("data.store.SubsequenceStore"):
        store = SubsequenceStore(normalized)
        grid = default_length_grid(normalized)
        views = {length: store.view(length) for length in grid}
    rng = np.random.default_rng(0)
    buckets = {}
    for length in grid:
        with tracer.span("core.grouping.GroupBuilder.build"):
            groups = GroupBuilder(length, ST).build(views[length], rng)
        with tracer.span("core.rspace.LengthBucket"):
            buckets[length] = LengthBucket(
                length=length, groups=groups, store_view=views[length]
            )
    with tracer.span("core.rspace.RSpace"):
        rspace = RSpace(buckets)
    with tracer.span("core.spspace.SPSpace"):
        spspace = SPSpace(rspace, ST)
    with tracer.span("core.onex.OnexIndex"):
        index = OnexIndex(
            dataset=normalized,
            rspace=rspace,
            spspace=spspace,
            st=ST,
            window=WINDOW,
            start_step=1,
            value_range=value_range,
        )
    with tracer.span("core.persistence.save_index"):
        index.save(out_path)
    with tracer.span("core.persistence.load_index"):
        loaded = OnexIndex.load(out_path)
    with tracer.span("core.rspace.RSpace.bucket"):
        for length in grid:
            loaded.rspace.bucket(length)
    return index, loaded


def span_seconds(tracer: Tracer, name: str) -> float:
    return sum(end - start for n, start, end, _, _ in tracer.spans if n == name)


def probe_build(ctx, ready, out: dict) -> None:
    """cli, data.*, core.grouping, core.parallel, core.spspace, persistence, rspace."""
    walls = [
        procs.run_onex(["datasets"], ctx.log, procs.OP_TIMEOUT_S)[0]
        for _ in range(3)
    ]
    out["cli.startup_ms"] = (stats.median(walls) * 1e3, "ms")

    tracer = Tracer()
    saved = ctx.path("probe-index.onex")
    index, loaded = build_pipeline(ready.ucr_path, saved, tracer)
    windows = index.rspace.n_subsequences
    groups = index.rspace.n_groups
    assign = span_seconds(tracer, "core.grouping.GroupBuilder.build")
    j1 = sum(
        span_seconds(tracer, name)
        for name in (
            "data.normalize.min_max_normalize_dataset",
            "data.store.SubsequenceStore",
            "core.grouping.GroupBuilder.build",
            "core.rspace.LengthBucket",
            "core.rspace.RSpace",
            "core.spspace.SPSpace",
            "core.onex.OnexIndex",
        )
    )
    out["data.loader.load_ucr_s"] = (
        span_seconds(tracer, "data.loader.load_ucr_file"),
        "s",
    )
    out["data.store.view_build_s"] = (
        span_seconds(tracer, "data.store.SubsequenceStore"),
        "s",
    )
    out["data.store.windows"] = (float(windows), "count")
    out["core.grouping.assign_s"] = (assign, "s")
    out["core.grouping.windows_per_s"] = (windows / assign, "1/s")
    out["core.grouping.groups"] = (float(groups), "count")
    out["core.grouping.windows_per_group"] = (windows / groups, "ratio")
    out["core.spspace.build_s"] = (span_seconds(tracer, "core.spspace.SPSpace"), "s")
    out["core.persistence.save_s"] = (
        span_seconds(tracer, "core.persistence.save_index"),
        "s",
    )
    out["core.persistence.index_bytes"] = (float(dir_bytes(saved)), "B")
    out["core.persistence.load_ms"] = (
        span_seconds(tracer, "core.persistence.load_index") * 1e3,
        "ms",
    )
    out["core.rspace.hydrate_ms"] = (
        span_seconds(tracer, "core.rspace.RSpace.bucket") * 1e3,
        "ms",
    )
    ctx.check("probe_pipeline_matches_cli", groups == ready.index.rspace.n_groups)

    dataset = load_ucr_file(ready.ucr_path)
    j2, _ = clock(OnexIndex.build, dataset, st=ST, n_jobs=2)
    out["core.parallel.build_j2_s"] = (j2, "s")
    out["core.parallel.efficiency"] = (j1 / (2.0 * j2), "ratio")

    out["core.spspace.recommend_us"] = (
        mean_seconds(loaded.recommend, 200) * 1e6,
        "us",
    )

    # First touch of the lazily built query payloads on the fresh load.
    envelope = 0.0
    gather = 0.0
    n_groups = 0
    for bucket in loaded.rspace:
        radius = resolve_window(bucket.length, bucket.length, loaded.window)
        envelope += clock(bucket.rep_envelope_stack, radius)[0]
        for group_index in range(bucket.n_groups):
            gather += clock(bucket.member_matrix, group_index, loaded.dataset)[0]
        n_groups += bucket.n_groups
    out["core.rspace.envelope_stack_ms"] = (envelope * 1e3, "ms")
    out["core.rspace.member_matrix_ms"] = (gather / n_groups * 1e3, "ms")


# ----------------------------------------------------------------------
# Query path and kernels
# ----------------------------------------------------------------------
def _queries(ctx, ready, exact: bool) -> list[tuple[np.ndarray, int | None]]:
    """Normalized probe queries (values, exact length or None)."""
    n_ops = 4 * ctx.scale.probe_ops
    stream = inputs.best_match_stream(ctx.seed + 7, ready.source, n_ops)
    # Any-length probes cost ~10x an exact one in the sharded tier: halve.
    wanted = ctx.scale.probe_ops if exact else max(ctx.scale.probe_ops // 2, 1)
    picked = [r for r in stream if ("length" in r) == exact][:wanted]
    return [
        (ready.index.normalize_query(np.asarray(r["values"])), r.get("length"))
        for r in picked
    ]


def probe_query_path(ctx, ready, out: dict) -> dict:
    index = ready.index
    processor = index.processor
    scan_s = refine_s = 0.0
    scan_stats, refine_stats = QueryStats(), QueryStats()
    exact = _queries(ctx, ready, exact=True)
    for values, length in exact:
        seconds, scans = clock(processor.scan_length, length, values)
        scan_s += seconds
        scan_stats.merge(processor.last_stats)
        seconds, _ = clock(
            processor.refine_scans, length, scans, values, inputs.QUERY_K
        )
        refine_s += seconds
        refine_stats.merge(processor.last_stats)
    n = len(exact)
    both = QueryStats()
    both.merge(scan_stats)
    both.merge(refine_stats)
    prefix = "core.query_processor."
    out[prefix + "scan_ms"] = (scan_s / n * 1e3, "ms")
    out[prefix + "refine_ms"] = (refine_s / n * 1e3, "ms")
    out[prefix + "reps_examined"] = (scan_stats.reps_examined / n, "count")
    out[prefix + "rep_dtw_full"] = (scan_stats.rep_dtw_full / n, "count")
    out[prefix + "members_examined"] = (refine_stats.members_examined / n, "count")
    out[prefix + "rep_prune_rate"] = (scan_stats.rep_prune_rate, "ratio")
    pruned = refine_stats.members_pruned_lb + refine_stats.members_abandoned
    out[prefix + "member_prune_rate"] = (
        pruned / max(refine_stats.members_examined, 1),
        "ratio",
    )
    kills = {
        "kim": both.cascade_kim,
        "keogh": both.cascade_keogh,
        "keogh_reverse": both.cascade_keogh_reverse,
        "dtw_abandon": both.cascade_dtw_abandon,
    }
    total = max(sum(kills.values()), 1)
    for stage, count in kills.items():
        out[f"{prefix}cascade_{stage}_share"] = (count / total, "ratio")

    any_length = _queries(ctx, ready, exact=False)
    lengths_visited = reps_examined = 0
    for values, _ in any_length:
        index.query(values, k=inputs.QUERY_K)
        lengths_visited += processor.last_stats.lengths_visited
        reps_examined += processor.last_stats.reps_examined
    out[prefix + "lengths_visited_per_any"] = (
        lengths_visited / len(any_length),
        "count",
    )

    grid = index.rspace.lengths
    rep_s = 0.0
    for position, length in enumerate(grid):
        values = index.normalize_query(ready.source.rows[position][:length])
        rep_s += clock(index.within, values, length=length, refine=False)[0]
    out[prefix + "within_rep_ms"] = (rep_s / len(grid) * 1e3, "ms")
    full = index.normalize_query(ready.source.rows[0])
    coarse, _ = clock(index.within, full, length=grid[-1], refine=False)
    fine, matches = clock(index.within, full, length=grid[-1])
    out[prefix + "within_member_us_per_window"] = (
        (fine - coarse) / max(len(matches), 1) * 1e6,
        "us",
    )
    seasonal = inputs.range_stream(ctx.seed, ready.source, ctx.scale)["seasonal"][:50]
    started = time.perf_counter()
    for request in seasonal:
        index.seasonal(request["length"], series=request.get("series"))
    out[prefix + "seasonal_us"] = (
        (time.perf_counter() - started) / len(seasonal) * 1e6,
        "us",
    )
    return {"any": any_length, "reps_per_any": reps_examined / len(any_length)}


def probe_distances(ctx, ready, out: dict) -> None:
    index = ready.index
    grid = index.rspace.lengths
    bucket = index.rspace.bucket(grid[len(grid) // 2])
    reps = bucket.representatives_matrix
    n_rows, length = reps.shape
    query = index.normalize_query(ready.source.rows[-1][:length])
    radius = resolve_window(length, length, index.window)
    repeats = 5
    stack = envelope_matrix(reps, radius)
    prefix = "distances.batch."
    out[prefix + "lb_kim_us_per_row"] = (
        mean_seconds(lambda: lb_kim_batch(query, reps), repeats) / n_rows * 1e6,
        "us",
    )
    out[prefix + "lb_keogh_us_per_row"] = (
        mean_seconds(lambda: lb_keogh_reverse_batch(query, stack), repeats)
        / n_rows
        * 1e6,
        "us",
    )
    out[prefix + "envelope_us_per_row"] = (
        mean_seconds(lambda: envelope_matrix(reps, radius), repeats) / n_rows * 1e6,
        "us",
    )
    out[prefix + "dtw_us_per_pair"] = (
        mean_seconds(lambda: dtw_batch(query, reps, radius), repeats) / n_rows * 1e6,
        "us",
    )
    cells = 0
    for row in range(length):
        low, high = band_bounds(row, length, length, radius)
        cells += high - low + 1
    out[prefix + "dtw_cells_per_pair"] = (float(cells), "count")
    sample = reps[: min(32, n_rows)]
    started = time.perf_counter()
    for candidate in sample:
        dtw(query, candidate, window=index.window)
    out["distances.dtw.scalar_us_per_pair"] = (
        (time.perf_counter() - started) / len(sample) * 1e6,
        "us",
    )
    out["distances.backend.warmup_s"] = (get_backend().warmup(), "s")


# ----------------------------------------------------------------------
# Single-process serving
# ----------------------------------------------------------------------
def probe_serving(ctx, ready, out: dict, probe: dict) -> None:
    index = ready.index
    exact = _queries(ctx, ready, exact=True)
    any_length = probe["any"]
    k = inputs.QUERY_K

    values, length = exact[0]
    key_args = {"kind": "query", "length": length, "k": k, "st": index.st, "stop": True}
    out["serve.cache.key_us"] = (
        mean_seconds(lambda: ResultCache.make_key(values, **key_args), 500) * 1e6,
        "us",
    )
    cache = ResultCache()
    key = ResultCache.make_key(values, **key_args)
    cache.put(key, ("x",))
    out["serve.cache.hit_us"] = (mean_seconds(lambda: cache.get(key), 2000) * 1e6, "us")

    with OnexService(index) as service:
        # Paired per query (the overhead is ~1 % of the op, far below the
        # drift between two passes), median of the pairs.
        overheads = []
        for values, length in exact:
            miss = clock(service.query, values, length=length, k=k)[0]
            library = clock(index.query, values, length=length, k=k)[0]
            overheads.append(miss - library)
        hits = sum(clock(service.query, v, length=n, k=k)[0] for v, n in exact)
        out["serve.service.miss_overhead_us"] = (stats.median(overheads) * 1e6, "us")
        grid = index.rspace.lengths
        scans = sum(clock(service.scan, v, grid)[0] for v, _ in any_length)
        out["serve.service.scan_all_lengths_ms"] = (
            scans / len(any_length) * 1e3,
            "ms",
        )

        requests = [
            {"op": "query", "values": v.tolist(), "length": n, "k": k, "id": i}
            for i, (v, n) in enumerate(exact)
        ]
        lines = [json.dumps(request) for request in requests]
        parse, parsed = clock(lambda: [json.loads(line) for line in lines])
        responded, replies = clock(lambda: [respond(service, r) for r in parsed])
        serialize, _ = clock(lambda: [json.dumps(reply) for reply in replies])
        out["serve.server.parse_us"] = (parse / len(lines) * 1e6, "us")
        out["serve.server.serialize_us"] = (serialize / len(lines) * 1e6, "us")
        out["serve.server.dispatch_us"] = (
            (responded - hits) / len(lines) * 1e6,
            "us",
        )

    batch_length = grid[len(grid) // 2]
    batch = [
        index.normalize_query(row[:batch_length])
        for row in ready.source.rows[: inputs.BATCH_SIZE]
    ]
    with OnexService(index) as service:
        batched, _ = clock(service.query_batch, batch, length=batch_length, k=k)
    with OnexService(index) as service:
        looped = sum(
            clock(service.query, v, length=batch_length, k=k)[0] for v in batch
        )
    out["serve.batch.batch16_ms"] = (batched * 1e3, "ms")
    out["serve.batch.speedup_vs_loop"] = (looped / batched, "ratio")

    # The real pipe: protocol floor and cache counters of a short replay.
    n_ops = 4 * ctx.scale.probe_ops
    stream = inputs.serve_stream(ctx.seed, ready.source, n_ops, ctx.scale.repeat_window)
    server = procs.StdioServer(ready.index_path, ctx.log)
    try:
        server.wait_healthy()
        channel = server.channel
        out["serve.server.ping_rtt_us"] = (_median_rtt(channel, '{"op": "ping"}'), "us")
        for line in inputs.encode_lines(stream):
            ctx.count('"ok": true' in channel.roundtrip(line))
        info = json.loads(channel.roundtrip('{"op": "info"}'))["info"]["cache"]
        out["serve.cache.hit_rate"] = (float(info["hit_rate"]), "ratio")
        # Every miss is stored; what is no longer there was evicted.
        out["serve.cache.evictions"] = (
            float(max(0, info["misses"] - info["entries"])),
            "count",
        )
        hit_line = json.dumps(requests[0])
        channel.roundtrip(hit_line)
        out["serve.server.hit_rtt_us"] = (_median_rtt(channel, hit_line), "us")
    finally:
        server.close()


def _median_rtt(channel, line: str, repeats: int = 100) -> float:
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        channel.roundtrip(line)
        samples.append(time.perf_counter() - started)
    return stats.median(samples) * 1e6


# ----------------------------------------------------------------------
# The sharded tier
# ----------------------------------------------------------------------
def _router_metrics(channel) -> dict:
    return json.loads(channel.roundtrip('{"op": "metrics"}'))["metrics"]


def probe_cluster(ctx, ready, out: dict, probe: dict) -> None:
    prefix = "serve.cluster.router."
    started = time.perf_counter()
    cluster = procs.TcpCluster(ready.index_path, ctx.log)
    wedged = True
    try:
        cluster.wait_healthy()
        out[prefix + "spawn_s"] = (time.perf_counter() - started, "s")
        channel = cluster.channel
        out[prefix + "ping_rtt_us"] = (_median_rtt(channel, '{"op": "ping"}'), "us")

        values, length = _queries(ctx, ready, exact=True)[0]
        hit_line = json.dumps(
            {"op": "query", "values": values.tolist(), "length": length, "k": 3}
        )
        channel.roundtrip(hit_line)
        out[prefix + "hit_rtt_us"] = (_median_rtt(channel, hit_line), "us")

        before = _router_metrics(channel)["query_stats"]
        any_length = probe["any"]
        for query, _ in any_length:
            line = json.dumps({"op": "query", "values": query.tolist(), "k": 3})
            ctx.count('"ok": true' in channel.roundtrip(line))
        n_ops = 2 * ctx.scale.probe_ops
        stream = inputs.serve_stream(
            ctx.seed, ready.source, n_ops, ctx.scale.repeat_window
        )
        after = _router_metrics(channel)
        for line in inputs.encode_lines(stream):
            ctx.count('"ok": true' in channel.roundtrip(line))
        metrics = _router_metrics(channel)

        def stage_mean(stage: str) -> float:
            histogram = metrics["stages"][stage]
            return histogram["sum_seconds"] / max(histogram["count"], 1)

        out[prefix + "parse_us"] = (stage_mean("parse") * 1e6, "us")
        out[prefix + "route_us"] = (stage_mean("route") * 1e6, "us")
        out[prefix + "shard_compute_ms"] = (stage_mean("shard_compute") * 1e3, "ms")
        out[prefix + "merge_us"] = (stage_mean("merge") * 1e6, "us")
        delta = {
            key: after["query_stats"].get(key, 0) - before.get(key, 0)
            for key in ("lengths_visited", "reps_examined")
        }
        out[prefix + "lengths_scanned_per_any"] = (
            delta["lengths_visited"] / len(any_length),
            "count",
        )
        for name, key in (
            ("failovers", "failovers"),
            ("retries", "retries"),
            ("busy", "busy_rejected"),
        ):
            out[prefix + name] = (float(metrics[key]), "count")
            ctx.check("cluster_" + name + "_zero", metrics[key] == 0)
        per_any = delta["reps_examined"] / len(any_length)
        out["serve.cluster.worker.reps_examined_per_any"] = (per_any, "count")
        out["serve.cluster.worker.any_length_amplification"] = (
            per_any / probe["reps_per_any"],
            "ratio",
        )

        # Known defect, probed last on a cluster nothing else needs: a
        # worker reply over asyncio's 64 KiB stream limit kills the
        # router's read loop and the request never returns.
        line = json.dumps({"op": "seasonal", "length": ready.index.rspace.lengths[0]})
        try:
            reply = channel.roundtrip(line, OVERSIZE_TIMEOUT_S)
            ctx.details["oversize_reply_bytes"] = len(reply)
            ok = '"ok": true' in reply
        except procs.HarnessTimeout:
            ok = False
        out[prefix + "oversize_reply_ok"] = (1.0 if ok else 0.0, "count")
        wedged = not ok
    finally:
        # A router wedged by the probe never finishes draining: skip the grace.
        cluster.close(graceful=not wedged)


def probe_layers(ctx, ready) -> dict[str, tuple[float, str]]:
    """Every per-layer metric except the ``trace.*`` rows."""
    out: dict[str, tuple[float, str]] = {}
    walls = ctx.details.setdefault("probe_wall_s", {})
    walls["build"] = clock(probe_build, ctx, ready, out)[0]
    walls["query_path"], probe = clock(probe_query_path, ctx, ready, out)
    walls["distances"] = clock(probe_distances, ctx, ready, out)[0]
    walls["serving"] = clock(probe_serving, ctx, ready, out, probe)[0]
    walls["cluster"] = clock(probe_cluster, ctx, ready, out, probe)[0]
    return out
