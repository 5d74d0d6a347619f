"""One shard worker: an ``OnexService`` over its owned lengths.

Spawned by the router as ``python -m repro.serve.cluster.worker INDEX
--shard I --lengths 6,12``. The worker mmaps the same v3 directory as
every other shard but only ever hydrates the buckets it owns, so N
workers cost one index's worth of page cache plus N small hydrated
slices. It speaks the same JSON-lines protocol as ``onex serve`` (all
standard ops are delegated to :func:`repro.serve.server.respond`), plus
five cluster-internal ops:

``sweep``
    One segment of the §5.3 length sweep per job ``{values, run, bound,
    last}``: visit the lengths of ``run`` in order, seeded with the
    best-so-far ``bound`` (``null`` for none). A job whose sweep stops
    in the run (a representative within ``ST/2``), or whose ``last`` run
    holds the best, is refined in place and answers ``{matches}``;
    otherwise it answers the carry ``{length, scans}`` (``{}`` when
    nothing in the run beats the bound).
``refine``
    A list of refinement jobs ``{values, length, scans}`` for lengths
    this shard holds the best of; returns serialized matches per job.
``shard_info``
    Lightweight stats over the owned lengths only (never hydrates
    foreign buckets, unlike the full ``info`` op).
``sleep``
    Debug/test aid: hold the worker busy for ``seconds`` so fault
    injection can kill it mid-request; echoes the ``budget_ms`` the
    router propagated so tests can observe deadline propagation.
``inject_fault``
    Chaos-test control channel (armed only under ``ONEX_FAULTS=1``,
    see :mod:`repro.serve.cluster.faults`): arms a fault that the
    reply path applies to a later matching request.

Requests are processed sequentially — concurrency lives in the router's
fan-out across workers and each service's internal thread pool.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from repro.core.onex import OnexIndex
from repro.serve.cluster.faults import FaultInjector
from repro.serve.server import match_to_dict, respond
from repro.serve.service import OnexService


def handle_worker_request(
    service: OnexService,
    lengths: list[int],
    request: dict,
    faults: FaultInjector | None = None,
) -> dict:
    """Dispatch one request, cluster-internal ops first."""
    op = request.get("op")
    if op == "sweep":
        jobs = request["jobs"]
        k = int(request.get("k", 1))
        normalized = bool(request.get("normalized", True))
        outcomes = service.sweep(
            [job["values"] for job in jobs],
            [job["run"] for job in jobs],
            [job.get("bound") for job in jobs],
            normalized=normalized,
        )
        results = []
        for job, outcome in zip(jobs, outcomes, strict=True):
            if not outcome:
                results.append({})
                continue
            length, scans, stopped = outcome
            if stopped or job.get("last"):
                matches = service.refine(
                    job["values"], length, scans, k=k, normalized=normalized
                )
                results.append(
                    {"matches": [match_to_dict(match) for match in matches]}
                )
            else:
                results.append({"length": length, "scans": scans})
        return {"ok": True, "results": results}
    if op == "refine":
        k = int(request.get("k", 1))
        normalized = bool(request.get("normalized", True))
        results = []
        for job in request["jobs"]:
            matches = service.refine(
                job["values"],
                int(job["length"]),
                [tuple(scan) for scan in job["scans"]],
                k=k,
                normalized=normalized,
            )
            results.append([match_to_dict(match) for match in matches])
        return {"ok": True, "results": results}
    if op == "shard_info":
        return {"ok": True, "info": service.shard_info(lengths)}
    if op == "sleep":
        time.sleep(float(request.get("seconds", 1.0)))
        response = {"ok": True, "slept": float(request.get("seconds", 1.0))}
        if "budget_ms" in request:
            # Echo the propagated budget so deadline-propagation tests
            # can assert child budget <= parent budget.
            response["budget_ms"] = float(request["budget_ms"])
        return response
    if op == "inject_fault":
        if faults is None:
            raise ValueError("fault injection is not wired in this worker")
        if request.get("action") == "list":
            return {"ok": True, "faults": faults.list_faults()}
        return {
            "ok": True,
            **faults.arm(
                str(request.get("kind")),
                ops=request.get("ops"),
                count=int(request.get("count", 1)),
                delay_ms=float(request.get("delay_ms", 0.0)),
            ),
        }
    return respond(service, request)


def worker_respond(
    service: OnexService,
    lengths: list[int],
    request: dict,
    faults: FaultInjector | None = None,
) -> dict:
    """Error-mapped, id-echoing wrapper around the worker dispatch."""
    request_id = None
    try:
        if not isinstance(request, dict):
            raise ValueError("request must be a JSON object")
        request_id = request.get("id")
        response = handle_worker_request(service, lengths, request, faults)
    except Exception as exc:  # noqa: BLE001 — same contract as the
        # single-process loop: bad requests answer, never crash.
        response = {"ok": False, "error": str(exc) or repr(exc)}
    if request_id is not None and "id" not in response:
        response["id"] = request_id
    return response


def apply_fault(fault, response_line: str) -> str | None:
    """Interpret a matched fault in the reply path.

    Returns the line to emit (possibly corrupted), or ``None`` to drop
    the reply entirely. ``die`` never returns.
    """
    if fault.kind == "die":
        # os._exit skips atexit/flush — the router sees a dead pipe
        # mid-request, indistinguishable from a SIGKILL.
        os._exit(86)
    if fault.kind == "delay":
        time.sleep(fault.delay_ms / 1000.0)
        return response_line
    if fault.kind == "drop":
        return None
    if fault.kind == "corrupt":
        return "\x00corrupt-frame\x00 not json {"
    return response_line


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro.serve.cluster.worker")
    parser.add_argument("index", help="v3 index directory (shared, mmap'd)")
    parser.add_argument("--shard", type=int, required=True)
    parser.add_argument("--replica", type=int, default=0)
    parser.add_argument(
        "--lengths",
        required=True,
        help="comma-separated lengths this shard owns",
    )
    parser.add_argument("--cache-size", type=int, default=1024)
    parser.add_argument("--threads", type=int, default=None)
    args = parser.parse_args(argv)

    lengths = sorted(int(part) for part in args.lengths.split(",") if part)
    index = OnexIndex.load(args.index)
    service = OnexService(
        index, max_workers=args.threads, cache_size=args.cache_size
    )
    faults = FaultInjector.from_env()
    print(
        f"onex-worker shard={args.shard} replica={args.replica} "
        f"lengths={lengths} backend={service.backend.name} ready",
        file=sys.stderr,
        flush=True,
    )
    try:
        for line in sys.stdin:
            line = line.strip()
            if not line:
                continue
            try:
                request = json.loads(line)
            except ValueError as exc:
                response = {"ok": False, "error": str(exc) or repr(exc)}
                request = {}
            else:
                if isinstance(request, dict) and request.get("op") == "shutdown":
                    response = {"ok": True, "bye": True}
                    if request.get("id") is not None:
                        response["id"] = request["id"]
                    print(json.dumps(response), flush=True)
                    break
                response = worker_respond(service, lengths, request, faults)
            out = json.dumps(response)
            fault = (
                faults.match(str(request.get("op")))
                if isinstance(request, dict)
                else None
            )
            if fault is not None:
                out = apply_fault(fault, out)
                if out is None:
                    continue
            print(out, flush=True)
    finally:
        service.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
