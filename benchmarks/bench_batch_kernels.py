"""Batch DTW kernel vs the scalar kernel, per stack size.

Per-stack-size microbenchmarks of :func:`repro.distances.batch.dtw_batch`
against a loop of scalar :func:`repro.distances.dtw.dtw` calls, with
the distances asserted equal (1e-9). End-to-end query latency is the
perf ledger's job (``benchmarks/ledger``, workload ``lib_best``).

Set ``ONEX_BENCH_QUICK=1`` for the CI smoke run (fewer repetitions).
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.bench.reporting import registry
from repro.distances.batch import dtw_batch
from repro.distances.dtw import dtw, resolve_window

QUICK = os.environ.get("ONEX_BENCH_QUICK", "") not in ("", "0")

_rows: dict[str, list[object]] = {}


def _register() -> None:
    registry.add_table(
        "batch_kernels",
        "Batch DTW kernel vs scalar DTW loop (length 24)",
        ["measurement", "scalar", "batch", "speedup"],
        [_rows[key] for key in sorted(_rows)],
    )


@pytest.mark.parametrize("stack_size", [16, 64, 256])
def test_dtw_batch_kernel_microbench(benchmark, stack_size: int) -> None:
    rng = np.random.default_rng(11)
    length = 24
    query = rng.normal(size=length)
    stack = rng.normal(size=(stack_size, length))
    radius = resolve_window(length, length, 0.1)
    repeats = 3 if QUICK else 10

    started = time.perf_counter()
    for _ in range(repeats):
        batch_distances = dtw_batch(query, stack, radius)
    batch_seconds = (time.perf_counter() - started) / repeats

    started = time.perf_counter()
    for _ in range(repeats):
        scalar_distances = [dtw(query, stack[i], window=0.1) for i in range(stack_size)]
    scalar_seconds = (time.perf_counter() - started) / repeats

    np.testing.assert_allclose(batch_distances, scalar_distances, atol=1e-9)
    _rows[f"kernel_{stack_size:04d}"] = [
        f"dtw_batch k={stack_size} (s/call)",
        scalar_seconds,
        batch_seconds,
        scalar_seconds / batch_seconds,
    ]
    _register()

    benchmark.pedantic(
        lambda: dtw_batch(query, stack, radius), rounds=1, iterations=1
    )
