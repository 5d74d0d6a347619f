#!/usr/bin/env python3
"""Perf ledger runner — see README.md in this directory.

    python3 benchmarks/ledger/run.py                      # all five workloads
    python3 benchmarks/ledger/run.py --trace              # ... plus traced runs
    python3 benchmarks/ledger/run.py --workload lib_best --seed 13 \
        --seconds 10 --trace 0                            # one run, JSON last line
    python3 benchmarks/ledger/run.py --smoke              # tiny, for the self-test
    python3 benchmarks/ledger/run.py --calibrate 3        # measure spreads

The program under test is the checkout this file sits in: ``src/`` is
put on the path here and handed to every child as ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(REPO_ROOT, "src")


def _bootstrap() -> None:
    """Make `repro` and `ledgerlib` importable, or leave without a result."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.exit(f"ledger: no program to measure: {SRC}/repro is missing")
    for path in (SRC, HERE):
        if path not in sys.path:
            sys.path.insert(0, path)
    try:
        import numpy  # noqa: F401
    except ImportError as exc:
        sys.exit(f"ledger: numpy is required: {exc}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default=None, help="run one workload in-process")
    parser.add_argument("--seed", type=int, default=13)
    parser.add_argument(
        "--seconds",
        type=float,
        default=None,
        help="timed-phase budget (default: run_seconds of BENCHMARK.json)",
    )
    parser.add_argument(
        "--trace",
        nargs="?",
        type=int,
        const=1,
        default=0,
        choices=(0, 1),
        help="1 (or bare --trace): traced run, per-layer metrics",
    )
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, short run")
    parser.add_argument(
        "--calibrate",
        type=int,
        default=0,
        metavar="N",
        help="run the suite on N (>=3) seeds; write calibrated bounds to "
        "BENCHMARK.json",
    )
    parser.add_argument("--out", default=None, help="ledger path (full runs)")
    parser.add_argument("--detail-out", default=None, help=argparse.SUPPRESS)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    _bootstrap()
    from ledgerlib import ledger

    if args.calibrate:
        return ledger.calibrate(args)
    if args.workload is not None:
        return ledger.run_one(args)
    return ledger.run_all(args)


if __name__ == "__main__":
    sys.exit(main())
