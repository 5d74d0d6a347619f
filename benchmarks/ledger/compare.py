#!/usr/bin/env python3
"""Diff two perf ledgers, metric × workload, against the recorded bounds.

    python3 benchmarks/ledger/compare.py A.json B.json

A is the parent, B the change. Either side may be a comma-separated
list of ledgers from repeated runs of the same code; the median is
compared then, and a pair whose run-to-run spread (IQR ÷ median, either
side) is wider than the metric's bound is reported *unresolved* rather
than unchanged — unless every run of B beats every run of A.

Refuses to compare (exit 2) when machine fingerprint, kernel backend,
scale, seed or ``inputs_digest`` differ: those are different experiments.
Exits 1 on any regression, any rise in ``failed_share`` or any change in
``answers_digest``; 0 otherwise.
"""

from __future__ import annotations

import json
import statistics
import sys

FINGERPRINT_KEYS = ("cores", "cpu", "python", "numpy", "numba", "backend")


def load(spec: str) -> list[dict]:
    ledgers = []
    for path in spec.split(","):
        with open(path, encoding="utf-8") as handle:
            ledgers.append(json.load(handle))
    return ledgers


def refusal(a: list[dict], b: list[dict]) -> str | None:
    """Why these ledgers are not comparable, or None when they are."""
    first = a[0]
    for ledger in a + b:
        for key in FINGERPRINT_KEYS:
            if ledger["fingerprint"].get(key) != first["fingerprint"].get(key):
                return f"fingerprint differs on {key!r}"
        for key in ("scale", "seed", "seconds"):
            if ledger.get(key) != first.get(key):
                return f"{key} differs"
        if set(ledger["workloads"]) != set(first["workloads"]):
            return "workload sets differ"
        for name, entry in ledger["workloads"].items():
            if entry.get("inputs_digest") != first["workloads"][name].get(
                "inputs_digest"
            ):
                return f"inputs_digest differs on {name}"
    return None


def spread(values: list[float]) -> float | None:
    if len(values) < 4:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else None


def verdict(a: list[float], b: list[float], better: str, bound: float):
    """(label, relative worsening of B's median over A's)."""
    mid_a, mid_b = statistics.median(a), statistics.median(b)
    if mid_a == 0:
        return ("within bound" if mid_b == 0 else "worse"), 0.0
    worse_by = (mid_b - mid_a) / mid_a if better == "lower" else (mid_a - mid_b) / mid_a
    spreads = [s for s in (spread(a), spread(b)) if s is not None]
    if spreads and max(spreads) > bound:
        lower = better == "lower"
        b_wins = max(b) < min(a) if lower else min(b) > max(a)
        if not b_wins:
            return "unresolved", worse_by
    if worse_by > bound:
        return "worse", worse_by
    if worse_by < 0:
        return "better", worse_by
    return "within bound", worse_by


def compare(a: list[dict], b: list[dict], out=sys.stdout) -> int:
    failures = 0
    print(
        f"{'workload':12s} {'metric':24s} {'A':>12s} {'B':>12s} "
        f"{'change':>8s} {'bound':>6s}  verdict",
        file=out,
    )
    for workload in sorted(a[0]["workloads"]):
        entries_a = [ledger["workloads"][workload] for ledger in a]
        entries_b = [ledger["workloads"][workload] for ledger in b]
        for name, declared in entries_a[0]["end_to_end"].items():
            values_a = [e["end_to_end"][name]["value"] for e in entries_a]
            values_b = [e["end_to_end"][name]["value"] for e in entries_b]
            label, worse_by = verdict(
                values_a, values_b, declared["better"], declared["bound"]
            )
            failures += label == "worse"
            print(
                f"{workload:12s} {name:24s} {statistics.median(values_a):12.5g} "
                f"{statistics.median(values_b):12.5g} {worse_by:+8.2%} "
                f"{declared['bound']:6.3f}  {label}",
                file=out,
            )
        share_a = max(e["failed_share"] for e in entries_a)
        share_b = max(e["failed_share"] for e in entries_b)
        rose = share_b > share_a
        failures += rose
        print(
            f"{workload:12s} {'failed_share':24s} {share_a:12.5g} {share_b:12.5g} "
            f"{'':8s} {0:6.3f}  {'worse' if rose else 'within bound'}",
            file=out,
        )
        digests = {e.get("answers_digest") for e in entries_a + entries_b}
        same = len(digests) == 1
        failures += not same
        print(
            f"{workload:12s} {'answers_digest':24s} "
            f"{'identical' if same else 'DIFFERENT'}",
            file=out,
        )
    print(f"{failures} regression(s)", file=out)
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = load(argv[0]), load(argv[1])
    reason = refusal(a, b)
    if reason is not None:
        print(f"refusing to compare: {reason}", file=sys.stderr)
        return 2
    return compare(a, b)


if __name__ == "__main__":
    sys.exit(main())
