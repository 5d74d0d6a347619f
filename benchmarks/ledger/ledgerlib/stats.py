"""Order statistics for latency samples."""

from __future__ import annotations

import math
import statistics
from collections.abc import Sequence

TAIL_CAP = 95.0
MIN_BEYOND = 10


SMOOTH_FROM = 40  # below this many samples the plain median is used


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def smoothed_median(values: Sequence[float]) -> float:
    """Mean of the samples between the 40th and the 60th percentile.

    Exact-length queries run on an 8-length grid and any-length ones
    cost 10x more in the sharded tier, so per-op latency is a staircase:
    a bare order statistic that lands next to a step jumps by the whole
    step when one op changes sides (seen: ±13 % in-process, ±20 % on
    the cluster's 144 samples, identical code). Averaging the central
    fifth keeps the median's blindness to both tails and moves by a
    fraction of the step instead.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < SMOOTH_FROM:
        return median(ordered)
    window = ordered[math.floor(0.40 * n) : math.ceil(0.60 * n)]
    return float(statistics.fmean(window))


def tail_percentile(n_samples: int) -> float:
    """The highest percentile (capped at p95) with ≥10 samples beyond it.

    A percentile is only as good as the samples past it: with 1000
    samples p95 leaves 50 beyond and is reported as such; with 120 the
    cap is p91.67. Under 20 samples no percentile qualifies and the
    caller gets 100 — the slowest op — which the ledger records as such.
    """
    if n_samples < 2 * MIN_BEYOND:
        return 100.0
    return min(TAIL_CAP, 100.0 * (n_samples - MIN_BEYOND) / n_samples)


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (no interpolation: always a real sample)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered) - 1e-9))
    return float(ordered[min(rank, len(ordered)) - 1])


def tail(values: Sequence[float]) -> tuple[float, float]:
    """(value, percentile used) per :func:`tail_percentile`."""
    pct = tail_percentile(len(values))
    return percentile(values, pct), pct


def iqr_share(values: Sequence[float]) -> float:
    """(Q3 − Q1) ÷ median, the spread the acceptance check uses."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else math.inf
