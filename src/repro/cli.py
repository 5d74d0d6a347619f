"""``onex`` — command-line interface for interactive time series exploration.

Subcommands mirror the ONEX lifecycle:

* ``onex datasets`` — list the built-in synthetic datasets;
* ``onex build`` — run the one-time preprocessing and save an index;
* ``onex info`` — show a saved index's statistics (Table 4 columns);
* ``onex query`` — Class I similarity query (best match / within ST);
* ``onex seasonal`` — Class II seasonal similarity query;
* ``onex recommend`` — Class III threshold recommendation;
* ``onex ql`` — run a query written in the paper's query language;
* ``onex serve`` — long-lived thread-safe serving mode: JSON-lines
  requests on stdin, JSON responses on stdout (see
  :mod:`repro.serve.server` for the protocol; the ``info`` op reports
  the result cache's live hit/miss counters, the active kernel backend
  and the per-stage cascade counters);
* ``onex lint`` — the repo's own AST-based invariant checker
  (:mod:`repro.analysis`): kernel numeric purity, backend-dispatch
  enforcement, the interprocedural lockset race detector, persistence
  atomicity, async safety, determinism and resource lifecycle — with
  SARIF output and a reviewed baseline. Also exposed as
  ``python -m repro.analysis`` for CI.

The global ``--backend {auto,numpy,numba}`` flag (or the
``ONEX_KERNEL_BACKEND`` environment variable) selects the refinement
kernel backend for any subcommand, e.g. ``onex --backend numba serve
index.onex``.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Sequence
from typing import TYPE_CHECKING

from repro.exceptions import OnexError, QueryError

# A fresh process pays for every import before it answers, so each
# handler imports what it runs (DESIGN.md §2, "import policy"; budgets
# in tests/test_import_graph.py). Only annotations use these names.
if TYPE_CHECKING:
    import numpy as np

    from repro.core.onex import OnexIndex
    from repro.core.results import Match, SeasonalResult, ThresholdRecommendation


def _load_index(path: str) -> OnexIndex:
    from repro.core.onex import OnexIndex

    return OnexIndex.load(path)


def _read_sequence_file(path: str) -> np.ndarray:
    """Read a query sequence from a one-column (or comma-separated) file."""
    import numpy as np

    values: list[float] = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            for field in line.replace(",", " ").split():
                values.append(float(field))
    return np.asarray(values, dtype=np.float64)


def _resolve_query_values(index: OnexIndex, args: argparse.Namespace) -> np.ndarray:
    """Build the query sequence from --csv or --series/--start/--length."""
    if args.csv:
        return index.normalize_query(_read_sequence_file(args.csv))
    if args.series is None:
        raise OnexError("provide either --csv FILE or --series INDEX")
    if not 0 <= args.series < len(index.dataset):
        raise QueryError(
            f"series index {args.series} out of range for N={len(index.dataset)}"
        )
    series = index.dataset[args.series]
    start = args.start or 0
    length = args.length or (len(series) - start)
    return series.subsequence(start, length)


def _print_matches(matches: Sequence[Match]) -> None:
    if not matches:
        print("no matches")
        return
    print(f"{'rank':>4}  {'subsequence':20} {'DTW':>10} {'DTW/2n':>10} {'group':>12}")
    for rank, match in enumerate(matches, start=1):
        group = f"G{match.group[0]}.{match.group[1]}"
        print(
            f"{rank:>4}  {str(match.ssid):20} {match.dtw:>10.5f} "
            f"{match.dtw_normalized:>10.5f} {group:>12}"
        )


def _print_seasonal(result: SeasonalResult) -> None:
    scope = "data-driven" if result.series is None else f"series X{result.series}"
    print(
        f"seasonal similarity at length {result.length} ({scope}): "
        f"{len(result)} cluster(s), {result.n_subsequences} subsequence(s)"
    )
    for group in result:
        members = ", ".join(str(ssid) for ssid in group.members[:8])
        suffix = " ..." if len(group.members) > 8 else ""
        print(f"  group {group.group_index}: {len(group)} members: {members}{suffix}")


def _print_recommendations(recs: Sequence[ThresholdRecommendation]) -> None:
    names = {"S": "Strict", "M": "Medium", "L": "Loose"}
    for rec in recs:
        scope = "global" if rec.length is None else f"length {rec.length}"
        high = "inf" if rec.high == float("inf") else f"{rec.high:.4f}"
        print(f"  {names[rec.degree]:6} ({scope}): ST in [{rec.low:.4f}, {high})")


# ----------------------------------------------------------------------
# Subcommand handlers
# ----------------------------------------------------------------------
def _cmd_datasets(_: argparse.Namespace) -> int:
    from repro.data.synthetic import DATASET_GENERATORS

    print("built-in synthetic datasets (UCR substitutes):")
    for name in DATASET_GENERATORS:
        print(f"  {name}")
    return 0


def _cmd_build(args: argparse.Namespace) -> int:
    from repro.core.onex import OnexIndex
    from repro.data.loader import load_ucr_file

    if args.ucr_file:
        dataset = load_ucr_file(args.ucr_file, name=args.dataset or "")
    else:
        if not args.dataset:
            raise OnexError("provide --dataset NAME or --ucr-file FILE")
        from repro.data.synthetic import make_dataset

        kwargs = {}
        if args.n_series:
            kwargs["n_series"] = args.n_series
        if args.series_length:
            kwargs["length"] = args.series_length
        dataset = make_dataset(args.dataset, seed=args.seed, **kwargs)
    lengths: object = None
    if args.all_lengths:
        lengths = "all"

    def progress(length: int, n_subsequences: int, seconds: float) -> None:
        rate = n_subsequences / seconds if seconds > 0 else float("inf")
        print(
            f"  length {length}: {n_subsequences} subsequences in "
            f"{seconds:.2f}s ({rate:,.0f}/s)"
        )

    index = OnexIndex.build(
        dataset,
        st=args.st,
        lengths=lengths,
        start_step=args.start_step,
        window=args.window,
        seed=args.seed,
        assign_mode=args.assign_mode,
        n_jobs=args.jobs,
        progress=progress,
    )
    index.save(args.out)
    stats = index.stats()
    print(
        f"built ONEX base for {stats.dataset!r}: {stats.n_representatives} "
        f"representatives over {stats.n_subsequences} subsequences "
        f"({stats.size_mb:.3f} MB, {stats.build_seconds:.2f}s)"
    )
    print(f"saved to {args.out}")
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    from repro.distances.backend import get_backend

    index = _load_index(args.index)
    stats = index.stats()
    print(f"dataset:         {stats.dataset}")
    print(f"series:          {stats.n_series}")
    print(f"threshold (ST):  {stats.st}")
    print(f"lengths:         {index.rspace.lengths}")
    print(f"groups:          {stats.n_groups}")
    print(f"representatives: {stats.n_representatives}")
    print(f"subsequences:    {stats.n_subsequences}")
    print(f"index size:      {stats.size_mb:.3f} MB "
          f"(GTI {stats.gti_mb:.3f} + LSI {stats.lsi_mb:.3f} "
          f"+ store {stats.store_mb:.3f})")
    print(f"assign mode:     {index.assign_mode}")
    backend = get_backend()
    print(f"kernel backend:  {backend.name}"
          f"{' (JIT)' if backend.jit else ''}")
    print(f"build backend:   {index.build_backend}")
    if index.build_profile:
        print("build profile:")
        for entry in index.build_profile:
            seconds = entry["seconds"]
            rate = entry["n_subsequences"] / seconds if seconds > 0 else float("inf")
            built_with = entry.get("backend", "numpy")
            print(
                f"  length {entry['length']}: {entry['n_subsequences']} "
                f"subsequences in {seconds:.2f}s ({rate:,.0f}/s, "
                f"{built_with})"
            )
    print(f"ST_half/ST_final (global): {index.spspace.st_half:.4f} / "
          f"{index.spspace.st_final:.4f}")
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    index = _load_index(args.index)
    values = _resolve_query_values(index, args)
    if args.within is not None:
        matches = index.within(values, st=args.within, length=args.exact)
    else:
        matches = index.query(values, length=args.exact, k=args.k)
    _print_matches(matches)
    return 0


def _cmd_seasonal(args: argparse.Namespace) -> int:
    index = _load_index(args.index)
    result = index.seasonal(args.length, series=args.series)
    _print_seasonal(result)
    return 0


def _cmd_recommend(args: argparse.Namespace) -> int:
    index = _load_index(args.index)
    recs = index.recommend(degree=args.degree, length=args.length)
    scope = "global" if args.length is None else f"length {args.length}"
    print(f"threshold recommendations ({scope}):")
    _print_recommendations(recs)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    if args.shards > 1:
        return _cmd_serve_cluster(args)
    from repro.serve.server import serve_forever
    from repro.serve.service import OnexService

    index = _load_index(args.index)
    with OnexService(
        index, max_workers=args.workers, cache_size=args.cache_size
    ) as service:
        print(
            f"serving {index.dataset.name!r} (lengths {index.rspace.lengths}, "
            f"{service.max_workers} workers, cache {args.cache_size}, "
            f"backend {service.backend.name} warmed in "
            f"{service.backend_warmup_seconds:.3f}s); "
            "one JSON request per line on stdin, Ctrl-D to stop",
            file=sys.stderr,
        )
        return serve_forever(service, sys.stdin, sys.stdout)


def _cmd_serve_cluster(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve.cluster.router import ClusterRouter

    if args.backend is not None:
        # Workers resolve their backend from the environment.
        os.environ["ONEX_KERNEL_BACKEND"] = args.backend
    router = ClusterRouter(
        args.index,
        n_shards=args.shards,
        n_replicas=args.replicas,
        max_inflight=args.max_inflight,
        cache_size=args.cache_size,
        worker_threads=args.workers,
        replica_timeout_ms=args.replica_timeout_ms,
    )

    async def run() -> int:
        await router.start()
        print(
            f"onex-cluster serving {args.index!r} with "
            f"{router.shard_map.n_shards} shard(s) x "
            f"{router.n_replicas} replica(s) "
            f"{[list(owned) for owned in router.shard_map.shards]}, "
            f"max_inflight={router.max_inflight}",
            file=sys.stderr,
        )
        if args.port is not None:
            return await router.serve_tcp(args.host, args.port)
        return await router.serve_stdio()

    return asyncio.run(run())


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis import main as lint_main

    forwarded = list(args.paths)
    if args.select:
        forwarded += ["--select", args.select]
    if args.json_path:
        forwarded += ["--json", args.json_path]
    if args.sarif_path:
        forwarded += ["--sarif", args.sarif_path]
    if args.baseline_path:
        forwarded += ["--baseline", args.baseline_path]
    if args.no_baseline:
        forwarded.append("--no-baseline")
    if args.list_rules:
        forwarded.append("--list-rules")
    return lint_main(forwarded)


def _cmd_ql(args: argparse.Namespace) -> int:
    from repro.core.results import SeasonalResult, ThresholdRecommendation
    from repro.query.executor import QueryExecutor

    index = _load_index(args.index)
    executor = QueryExecutor(index)
    for spec in args.seq or []:
        name, _, path = spec.partition("=")
        if not path:
            raise OnexError(f"--seq expects NAME=FILE, got {spec!r}")
        executor.register_sequence(name, _read_sequence_file(path))
    result = executor.execute(args.query)
    if isinstance(result, SeasonalResult):
        _print_seasonal(result)
    elif result and isinstance(result[0], ThresholdRecommendation):
        _print_recommendations(result)  # type: ignore[arg-type]
    else:
        _print_matches(result)  # type: ignore[arg-type]
    return 0


# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="onex",
        description="ONEX: interactive time series exploration (VLDB 2016).",
    )
    parser.add_argument(
        "--backend",
        choices=["auto", "numpy", "numba"],
        default=None,
        help="kernel backend for the refinement hot path (default: the "
        "ONEX_KERNEL_BACKEND env var, then auto = numba when installed, "
        "numpy otherwise; numba falls back to numpy with a warning when "
        "the package is missing)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="list built-in synthetic datasets").set_defaults(
        handler=_cmd_datasets
    )

    p_build = sub.add_parser("build", help="build and save an ONEX base")
    p_build.add_argument("--dataset", help="synthetic dataset name")
    p_build.add_argument("--ucr-file", help="UCR-format text file to index instead")
    p_build.add_argument("--n-series", type=int, help="series count (synthetic)")
    p_build.add_argument(
        "--series-length", type=int, help="series length (synthetic)"
    )
    p_build.add_argument("--st", type=float, default=0.2, help="similarity threshold")
    p_build.add_argument(
        "--window", type=float, default=0.1, help="DTW band as fraction of length"
    )
    p_build.add_argument("--start-step", type=int, default=1)
    p_build.add_argument(
        "--assign-mode",
        choices=["sequential", "minibatch"],
        default="sequential",
        help="construction engine: sequential (Algorithm 1, exact) or "
        "minibatch (chunked BLAS assignment for large builds)",
    )
    p_build.add_argument(
        "--all-lengths",
        action="store_true",
        help="index every length (the paper's full decomposition)",
    )
    p_build.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for construction: each indexed length is an "
        "independent shard over a shared mmap of the subsequence store; "
        "the result is bit-identical for every job count (-1 = all cores)",
    )
    p_build.add_argument("--seed", type=int, default=0)
    p_build.add_argument(
        "--out",
        required=True,
        help="output path: '.npz' writes the legacy single-archive v2 "
        "format; any other path writes the memory-mappable v3 directory "
        "(loaded lazily, bucket by bucket)",
    )
    p_build.set_defaults(handler=_cmd_build)

    p_info = sub.add_parser("info", help="describe a saved index")
    p_info.add_argument("index")
    p_info.set_defaults(handler=_cmd_info)

    p_query = sub.add_parser("query", help="similarity query (Q1)")
    p_query.add_argument("index")
    p_query.add_argument("--csv", help="file with the sample sequence values")
    p_query.add_argument("--series", type=int, help="use a dataset series as sample")
    p_query.add_argument("--start", type=int, default=0)
    p_query.add_argument("--length", type=int)
    p_query.add_argument("--k", type=int, default=1)
    p_query.add_argument(
        "--exact", type=int, default=None, help="MATCH = Exact(L) instead of Any"
    )
    p_query.add_argument(
        "--within", type=float, default=None, help="range form: Sim <= ST"
    )
    p_query.set_defaults(handler=_cmd_query)

    p_seasonal = sub.add_parser("seasonal", help="seasonal similarity query (Q2)")
    p_seasonal.add_argument("index")
    p_seasonal.add_argument("--length", type=int, required=True)
    p_seasonal.add_argument("--series", type=int, default=None)
    p_seasonal.set_defaults(handler=_cmd_seasonal)

    p_rec = sub.add_parser("recommend", help="threshold recommendation (Q3)")
    p_rec.add_argument("index")
    p_rec.add_argument("--degree", choices=["S", "M", "L"], default=None)
    p_rec.add_argument("--length", type=int, default=None)
    p_rec.set_defaults(handler=_cmd_recommend)

    p_serve = sub.add_parser(
        "serve",
        help="serve an index over stdin/stdout (JSON-lines requests)",
    )
    p_serve.add_argument("index")
    p_serve.add_argument(
        "--workers",
        type=int,
        default=None,
        help="refinement threads (default: core count, capped at 32)",
    )
    p_serve.add_argument(
        "--cache-size",
        type=int,
        default=1024,
        help="LRU result cache capacity (0 disables caching)",
    )
    p_serve.add_argument(
        "--shards",
        type=int,
        default=1,
        help="shard the index across N worker processes behind a "
        "scatter-gather router (requires a v3 index directory; "
        "1 = single-process serving)",
    )
    p_serve.add_argument(
        "--replicas",
        type=int,
        default=1,
        help="spawn R workers per shard over the same index directory; "
        "the router fails over between replicas on worker death or "
        "per-replica timeout (sharded mode)",
    )
    p_serve.add_argument(
        "--replica-timeout-ms",
        type=float,
        default=None,
        help="per-replica attempt timeout for shard subrequests; a "
        "slow replica is retried on another (default: none — only "
        "request-level timeout_ms bounds an attempt)",
    )
    p_serve.add_argument(
        "--max-inflight",
        type=int,
        default=64,
        help="bounded in-flight request budget for the sharded router; "
        "overload is rejected with a structured 'busy' error",
    )
    p_serve.add_argument(
        "--host",
        default="127.0.0.1",
        help="bind address for --port TCP serving (sharded mode)",
    )
    p_serve.add_argument(
        "--port",
        type=int,
        default=None,
        help="serve the sharded router over TCP instead of stdio",
    )
    p_serve.set_defaults(handler=_cmd_serve)

    p_lint = sub.add_parser(
        "lint",
        help="run the AST-based invariant checker (see DESIGN.md §11)",
        description=(
            "Checks kernel numeric purity (ONEX1xx), backend dispatch "
            "(ONEX2xx), the lockset discipline (ONEX3xx), persistence "
            "atomicity (ONEX4xx), async safety (ONEX5xx), determinism "
            "(ONEX6xx) and resource lifecycle (ONEX7xx). All arguments "
            "are forwarded to `python -m repro.analysis` (paths, "
            "--select CODES, --json FILE, --sarif FILE, --baseline "
            "FILE, --no-baseline, --list-rules). Exit 0 = clean, 1 = "
            "findings."
        ),
    )
    p_lint.add_argument(
        "paths",
        nargs="*",
        help="files or directories to check (default: the repro package)",
    )
    p_lint.add_argument(
        "--select", metavar="CODES", help="comma-separated rule codes to report"
    )
    p_lint.add_argument(
        "--json",
        dest="json_path",
        metavar="FILE",
        help="write the machine-readable report to FILE ('-' = stdout)",
    )
    p_lint.add_argument(
        "--sarif",
        dest="sarif_path",
        metavar="FILE",
        help="write a SARIF 2.1.0 log to FILE ('-' = stdout)",
    )
    p_lint.add_argument(
        "--baseline",
        dest="baseline_path",
        metavar="FILE",
        help="baseline file of grandfathered findings",
    )
    p_lint.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore any baseline file; every finding fails the run",
    )
    p_lint.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    p_lint.set_defaults(handler=_cmd_lint)

    p_ql = sub.add_parser("ql", help="run a query in the paper's query language")
    p_ql.add_argument("index")
    p_ql.add_argument("query", help='e.g. "OUTPUT X FROM D WHERE seq = X0 MATCH = Any"')
    p_ql.add_argument(
        "--seq",
        action="append",
        metavar="NAME=FILE",
        help="register a sample sequence from a file",
    )
    p_ql.set_defaults(handler=_cmd_ql)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point for the ``onex`` console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.backend is not None:
            from repro.distances.backend import set_backend

            set_backend(args.backend)
        return args.handler(args)
    except OnexError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
