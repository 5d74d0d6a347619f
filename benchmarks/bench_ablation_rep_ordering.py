"""Ablation — does the §5.3 median-sum representative ordering help?

The paper claims starting the representative scan from the "median
representative" of the sorted Dc-sum array (fanning outward) lets early
abandoning kick in sooner than a naive linear scan. We run the same
workload through two query processors that differ only in that flag and
compare query time and the fraction of representatives disposed of
before a full DTW.
"""

from __future__ import annotations

import time

import pytest

from repro.bench.datasets import BENCH_CONFIGS
from repro.bench.reporting import registry
from repro.bench.runner import get_context

DATASETS = list(BENCH_CONFIGS)
_rows: dict[tuple[str, str], list[object]] = {}


def _run(dataset: str, median_ordering: bool) -> list[object]:
    context = get_context(dataset)
    # Lower bounds off: with them on the scan is lower-bound-ordered,
    # which would mask the ordering ablation.
    processor = context.make_processor(
        median_ordering=median_ordering, use_lower_bounds=False
    )
    durations = []
    full_dtw = 0
    examined = 0
    for query in context.workload.queries:
        started = time.perf_counter()
        processor.best_match(query.values, length=query.length)
        durations.append(time.perf_counter() - started)
        full_dtw += processor.last_stats.rep_dtw_full
        examined += processor.last_stats.reps_examined
    label = "median-out" if median_ordering else "linear"
    mean = sum(durations) / len(durations)
    pruned_pct = 100.0 * (1.0 - full_dtw / max(1, examined))
    return [dataset, label, mean, examined, pruned_pct]


def _register_table() -> None:
    rows = [
        _rows[key]
        for dataset in DATASETS
        for key in ((dataset, "median-out"), (dataset, "linear"))
        if key in _rows
    ]
    registry.add_table(
        "ablation_rep_ordering",
        "Ablation: representative scan order (same-length queries)",
        ["dataset", "ordering", "s/query", "reps examined", "disposed early %"],
        rows,
    )


@pytest.mark.parametrize("dataset", DATASETS)
@pytest.mark.parametrize("ordering", ("median-out", "linear"))
def test_ablation_rep_ordering(benchmark, dataset: str, ordering: str) -> None:
    median = ordering == "median-out"
    _rows[(dataset, ordering)] = _run(dataset, median)
    _register_table()

    context = get_context(dataset)
    processor = context.make_processor(
        median_ordering=median, use_lower_bounds=False
    )
    query = context.workload.queries[0]
    benchmark.pedantic(
        lambda: processor.best_match(query.values, length=query.length),
        rounds=2,
        iterations=1,
    )
