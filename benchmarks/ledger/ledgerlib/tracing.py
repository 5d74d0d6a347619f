"""The traced run: spans around each public call, then the layer probes.

``--trace 1`` replays the first quarter of a workload's ops twice in
this process — once plainly, once taken apart into the public calls of
each layer with a span around every one — checks that both give the
same answers, and writes the spans to ``results/trace_<workload>.jsonl``.
The difference of the two walls is the cost of tracing
(``trace.overhead_pct``); ``trace.coverage`` is the share of the traced
op wall that lies inside a named layer span, asserted within 10 % of 1.
End-to-end metrics never come from this run.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import time

from ledgerlib import checks, layers, procs, workloads
from ledgerlib.spans import Tracer
from repro import OnexIndex, OnexService, load_ucr_file
from repro.serve.cluster.router import ClusterRouter
from repro.serve.server import respond, serve_lines
from repro.utils.validation import as_float_array

COVERAGE_TOLERANCE = 0.10


# ----------------------------------------------------------------------
# lib_best / lib_range
# ----------------------------------------------------------------------
def _library_ops(ctx, ready) -> list[dict]:
    if ctx.workload == "lib_best":
        return ready.requests[: max(len(ready.requests) // 4, 1)]
    stream = ready.extra
    return [
        request
        for kind in ("within", "seasonal", "recommend")
        for request in stream[kind][: max(len(stream[kind]) // 4, 1)]
    ]


def _answer(result) -> object:
    if isinstance(result, list) and result and hasattr(result[0], "ssid"):
        return [checks.match_fields(match) for match in result]
    return repr(result)


def library_plain(ctx, ready) -> tuple[float, list]:
    ops = _library_ops(ctx, ready)
    started = time.perf_counter()
    results = [workloads.library_call(ready.index, request) for request in ops]
    return time.perf_counter() - started, [_answer(r) for r in results]


def library_traced(ctx, ready, tracer: Tracer) -> tuple[float, list]:
    index = ready.index
    processor = index.processor
    ops = _library_ops(ctx, ready)
    results = []
    started = time.perf_counter()
    for position, request in enumerate(ops):
        with tracer.op(position):
            op = request["op"]
            if op in ("query", "within"):
                with tracer.span("utils.validation.as_float_array"):
                    values = as_float_array(request["values"], "query")
                with tracer.span("core.onex.normalize_query"):
                    values = index.normalize_query(values)
            if op == "query" and "length" in request:
                with tracer.span("core.query_processor.scan_length"):
                    scans = processor.scan_length(request["length"], values)
                with tracer.span("core.query_processor.refine_scans"):
                    result = processor.refine_scans(
                        request["length"], scans, values, request["k"]
                    )
            elif op == "query":
                with tracer.span("core.query_processor.best_match"):
                    result = processor.best_match(values, k=request["k"])
            elif op == "within":
                with tracer.span("core.query_processor.within_threshold"):
                    result = processor.within_threshold(
                        values, length=request["length"]
                    )
            elif op == "seasonal":
                with tracer.span("core.query_processor.seasonal"):
                    result = processor.seasonal(
                        request["length"], series=request.get("series")
                    )
            else:
                with tracer.span("core.spspace.recommend"):
                    result = index.recommend(
                        degree=request.get("degree"), length=request.get("length")
                    )
            results.append(result)
    return time.perf_counter() - started, [_answer(r) for r in results]


# ----------------------------------------------------------------------
# serve_mix: json.loads → respond → OnexService.* → json.dumps
# ----------------------------------------------------------------------
class TracedService:
    """`OnexService` with a span around each public method `respond` uses."""

    def __init__(self, service: OnexService, tracer: Tracer) -> None:
        self._service = service
        self._tracer = tracer

    def __getattr__(self, name: str):
        target = getattr(self._service, name)
        if not callable(target):
            return target

        def traced(*args, **kwargs):
            with self._tracer.span(f"serve.service.{name}"):
                return target(*args, **kwargs)

        return traced


def _quarter(lines: list[str]) -> list[str]:
    return lines[: max(len(lines) // 4, 1)]


def serve_plain(ctx, ready) -> tuple[float, list]:
    lines = _quarter(ready.lines)
    with OnexService(ready.index) as service:
        started = time.perf_counter()
        replies = list(serve_lines(service, lines))
        return time.perf_counter() - started, replies


def serve_traced(ctx, ready, tracer: Tracer) -> tuple[float, list]:
    lines = _quarter(ready.lines)
    replies = []
    with OnexService(ready.index) as service:
        proxy = TracedService(service, tracer)
        started = time.perf_counter()
        for position, line in enumerate(lines):
            with tracer.op(position):
                with tracer.span("serve.server.parse"):
                    request = json.loads(line)
                with tracer.span("serve.server.respond"):
                    reply = respond(proxy, request)
                with tracer.span("serve.server.serialize"):
                    replies.append(json.dumps(reply))
        return time.perf_counter() - started, replies


# ----------------------------------------------------------------------
# cluster_mix: ClusterRouter.process_line in this process
# ----------------------------------------------------------------------
@contextlib.contextmanager
def stderr_to(path: str):
    """Point fd 2 at ``path`` (workers inherit it: their banners go there)."""
    saved = os.dup(2)
    with open(path, "ab") as log:
        os.dup2(log.fileno(), 2)
    try:
        yield
    finally:
        os.dup2(saved, 2)
        os.close(saved)


async def _cluster_replay(ctx, ready, tracer: Tracer | None) -> tuple[float, list]:
    lines = _quarter(ready.lines)
    router = ClusterRouter(ready.index_path, n_shards=2, n_replicas=2)
    with stderr_to(ctx.log):
        await asyncio.wait_for(router.start(), procs.SPAWN_TIMEOUT_S)
    try:
        current: list[int | None] = [None]
        if tracer is not None:
            for replica_set in router.shards:
                replica_set.call = _traced_call(replica_set.call, tracer, current)
        replies = []
        started = time.perf_counter()
        for position, line in enumerate(lines):
            if tracer is None:
                reply = await asyncio.wait_for(
                    router.process_line(line), procs.OP_TIMEOUT_S
                )
            else:
                with tracer.op(position):
                    with tracer.span("serve.cluster.router.process_line") as index:
                        current[0] = index
                        reply = await asyncio.wait_for(
                            router.process_line(line), procs.OP_TIMEOUT_S
                        )
            replies.append(reply)
        wall = time.perf_counter() - started
        if tracer is not None:
            metrics = json.loads(await router.process_line('{"op": "metrics"}'))
            ctx.details["router_metrics_ops"] = metrics["metrics"]["ops"]
        return wall, replies
    finally:
        pids = [worker.pid for worker in router.workers]
        with contextlib.suppress(asyncio.TimeoutError):
            await asyncio.wait_for(router.drain(), 20)
        for pid in pids:  # whatever drain() did not stop
            if pid is not None:
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, 9)


def _traced_call(call, tracer: Tracer, current: list):
    async def traced(payload, budget=None):
        # Shard calls of one request run concurrently: name the parent.
        with tracer.span("serve.cluster.router.shard_call", parent=current[0]):
            return await call(payload, budget)

    return traced


def cluster_replay(ctx, ready, tracer: Tracer | None = None) -> tuple[float, list]:
    """Plain without a tracer, span-wrapped with one; a fresh cluster each."""
    return asyncio.run(_cluster_replay(ctx, ready, tracer))


# ----------------------------------------------------------------------
# build_cold: the build path on the buildset
# ----------------------------------------------------------------------
def build_plain(ctx, ready) -> tuple[float, list]:
    source = workloads.set_up(ctx, "build")
    out = source.index_path + ".plain"
    started = time.perf_counter()
    index = OnexIndex.build(load_ucr_file(source.ucr_path), st=workloads.ST)
    index.save(out)
    loaded = OnexIndex.load(out)
    for length in loaded.rspace.lengths:
        loaded.rspace.bucket(length)
    wall = time.perf_counter() - started
    ready.extra["plain_index"] = out
    return wall, [loaded.rspace.n_groups]


def build_traced(ctx, ready, tracer: Tracer) -> tuple[float, list]:
    source = workloads.set_up(ctx, "build")
    out = source.index_path + ".traced"
    started = time.perf_counter()
    with tracer.op(0):
        _, loaded = layers.build_pipeline(source.ucr_path, out, tracer)
    wall = time.perf_counter() - started
    ctx.check(
        "traced_build_arrays_identical",
        workloads.arrays_identical(ready.extra["plain_index"], out),
    )
    return wall, [loaded.rspace.n_groups]


REPLAYS = {
    "build_cold": (build_plain, build_traced),
    "lib_best": (library_plain, library_traced),
    "lib_range": (library_plain, library_traced),
    "serve_mix": (serve_plain, serve_traced),
    "cluster_mix": (cluster_replay, cluster_replay),
}


def run_traced(ctx):
    """Set up once, replay plain and traced, probe every layer."""
    ready = workloads.set_up(ctx, "lib")
    plain, traced = REPLAYS[ctx.workload]
    tracer = Tracer()
    plain_wall, plain_answers = plain(ctx, ready)
    traced_wall, traced_answers = traced(ctx, ready, tracer)
    same = plain_answers == traced_answers
    ctx.check("traced_equals_plain", same)
    ctx.count(same, times=len(traced_answers))
    summary = tracer.summary()
    os.makedirs(procs.RESULTS, exist_ok=True)
    tracer.write(os.path.join(procs.RESULTS, f"trace_{ctx.workload}.jsonl"))
    ctx.check(
        "trace_coverage_within_10pct",
        summary["coverage"] >= 1.0 - COVERAGE_TOLERANCE,
    )
    ctx.details["trace"] = summary
    ctx.details["plain_wall_s"] = plain_wall
    ctx.details["traced_wall_s"] = traced_wall

    metrics = layers.probe_layers(ctx, ready)
    metrics["trace.coverage"] = (summary["coverage"], "ratio")
    metrics["trace.overhead_pct"] = (
        (traced_wall - plain_wall) / plain_wall * 100.0,
        "%",
    )
    metrics["trace.spans_per_op"] = (summary["spans"] / summary["ops"], "count")
    metrics["failed_share"] = (ctx.failed / max(ctx.attempted, 1), "ratio")
    counts = {"trace.coverage": summary["ops"], "trace.overhead_pct": summary["ops"]}
    return metrics, counts
