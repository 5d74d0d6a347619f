"""Ablation — the lower-bound cascade's contribution.

§5.3 adopts LB_Kim / LB_Keogh pruning with early abandoning for both
ONEX (representative scan) and Trillion (candidate scan). This bench
toggles the stages and reports time per query, quantifying how much of
each system's speed comes from each filter.
"""

from __future__ import annotations

import time

import pytest

from repro.baselines.trillion import Trillion
from repro.bench.reporting import registry
from repro.bench.runner import get_context

DATASETS = ("ECG", "Face", "TwoPattern")
VARIANTS = (
    "onex+lb",
    "onex-lb",
    "trillion+kim+keogh",
    "trillion+keogh",
    "trillion+kim",
    "trillion-bare",
)
_rows: dict[tuple[str, str], list[object]] = {}


def _run_onex(dataset: str, use_lower_bounds: bool) -> float:
    context = get_context(dataset)
    processor = context.make_processor(use_lower_bounds=use_lower_bounds)
    durations = []
    for query in context.workload.queries:
        started = time.perf_counter()
        processor.best_match(query.values, length=query.length)
        durations.append(time.perf_counter() - started)
    return sum(durations) / len(durations)


def _run_trillion(dataset: str, use_kim: bool, use_keogh: bool) -> float:
    context = get_context(dataset)
    method = Trillion(
        window=context.config.window, use_kim=use_kim, use_keogh=use_keogh
    )
    method.prepare(
        context.workload.indexed,
        context.config.lengths,
        start_step=context.config.start_step,
    )
    durations = []
    for query in context.workload.queries:
        started = time.perf_counter()
        method.best_match(query.values, length=query.length)
        durations.append(time.perf_counter() - started)
    return sum(durations) / len(durations)


def _measure(dataset: str, variant: str) -> list[object]:
    if variant == "onex+lb":
        mean = _run_onex(dataset, True)
    elif variant == "onex-lb":
        mean = _run_onex(dataset, False)
    elif variant == "trillion+kim+keogh":
        mean = _run_trillion(dataset, True, True)
    elif variant == "trillion+keogh":
        mean = _run_trillion(dataset, False, True)
    elif variant == "trillion+kim":
        mean = _run_trillion(dataset, True, False)
    else:
        mean = _run_trillion(dataset, False, False)
    return [dataset, variant, mean]


def _register_table() -> None:
    rows = [
        _rows[(dataset, variant)]
        for dataset in DATASETS
        for variant in VARIANTS
        if (dataset, variant) in _rows
    ]
    registry.add_table(
        "ablation_lower_bounds",
        "Ablation: lower-bound cascade (same-length queries, s/query)",
        ["dataset", "variant", "s/query"],
        rows,
    )


@pytest.mark.parametrize("dataset", DATASETS)
@pytest.mark.parametrize("variant", VARIANTS)
def test_ablation_lower_bounds(benchmark, dataset: str, variant: str) -> None:
    _rows[(dataset, variant)] = _measure(dataset, variant)
    _register_table()

    benchmark.pedantic(
        lambda: _measure(dataset, variant), rounds=1, iterations=1
    )
