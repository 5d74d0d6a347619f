"""Seeded inputs: datasets as UCR text files and JSON-lines request streams.

Everything a workload feeds the program is derived here from ``--seed``
and nothing else, so the same seed gives byte-identical files and
request streams (their sha256 goes into the ledger as ``inputs_digest``).
Values are written with six decimals and the harness keeps exactly the
doubles the program will parse back, so an in-dataset query really is a
subsequence of the indexed data (self-match at DTW 0) and every request
line stays far below the 64 KiB asyncio stream limit of the TCP tier.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from repro import Dataset, default_length_grid, make_dataset


@dataclass(frozen=True)
class Scale:
    """Input sizes and op rates of one harness scale (full or smoke).

    Op counts are *per second of the ``--seconds`` budget* — the rate the
    reference box sustains, so a run measures for about ``--seconds`` —
    and fixed for a given budget, so hit rates and counters repeat
    exactly. The streams are cut from one seeded sequence: a longer run
    replays a longer prefix of the same traffic.
    """

    name: str
    fixture_series: int  # generated; the last `held_out` are never indexed
    held_out: int
    fixture_length: int
    buildset_series: int
    buildset_length: int
    lib_best_ops_per_s: int
    serve_ops_per_s: int
    cluster_ops_per_s: int
    seasonal_ops: int
    recommend_ops: int
    cold_queries: int  # fresh `onex query` processes per round / check
    setups: int  # set-ups per run; setup_s is their median
    repeat_window: int  # a repeated query is one of the last N singles
    probe_ops: int  # ops per layer probe in the traced run
    wake_s: float  # load on every core before anything is timed


FULL = Scale(
    name="full",
    fixture_series=56,
    held_out=8,
    fixture_length=192,
    buildset_series=64,
    buildset_length=256,
    lib_best_ops_per_s=70,
    serve_ops_per_s=75,
    cluster_ops_per_s=16,
    seasonal_ops=400,
    recommend_ops=100,
    cold_queries=4,
    setups=3,
    repeat_window=256,
    probe_ops=24,
    wake_s=1.0,
)

SMOKE = Scale(
    name="smoke",
    fixture_series=12,
    held_out=2,
    fixture_length=48,
    buildset_series=10,
    buildset_length=48,
    lib_best_ops_per_s=60,
    serve_ops_per_s=60,
    cluster_ops_per_s=24,
    seasonal_ops=20,
    recommend_ops=10,
    cold_queries=1,
    setups=1,
    repeat_window=16,
    probe_ops=6,
    wake_s=0.0,
)

QUERY_K = 3
BATCH_SIZE = 16


def _rng(seed: int, stream: int) -> np.random.Generator:
    """Independent generator per (seed, purpose)."""
    return np.random.default_rng([int(seed), int(stream)])


@dataclass(frozen=True)
class SeriesFile:
    """One generated dataset: the UCR text and the doubles it parses to."""

    text: str
    rows: tuple[np.ndarray, ...]  # every generated series, held-out last
    n_indexed: int  # rows written to the file

    @property
    def length(self) -> int:
        return int(self.rows[0].shape[0])

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.text.encode()).hexdigest()

    def grid(self) -> list[int]:
        """The length grid `onex build` indexes by default for this file."""
        return default_length_grid(Dataset(list(self.rows[: self.n_indexed])))

    def n_windows(self) -> int:
        """Σ_L N·(n−L+1): the window count a correct build must report."""
        n = self.length
        return sum(self.n_indexed * (n - length + 1) for length in self.grid())


def make_series_file(
    seed: int, n_series: int, length: int, held_out: int
) -> SeriesFile:
    """ECG-like series; the first ``n_series - held_out`` go into the file."""
    dataset = make_dataset("ECG", n_series=n_series, length=length, seed=int(seed))
    rows: list[np.ndarray] = []
    lines: list[str] = []
    for position, series in enumerate(dataset):
        fields = [f"{value:.6f}" for value in series.values]
        rows.append(np.array([float(field) for field in fields]))
        if position < n_series - held_out:
            label = series.label if series.label is not None else 0
            lines.append(",".join([str(label), *fields]))
    return SeriesFile(
        text="\n".join(lines) + "\n",
        rows=tuple(rows),
        n_indexed=n_series - held_out,
    )


def make_fixture(seed: int, scale: Scale) -> SeriesFile:
    return make_series_file(
        seed, scale.fixture_series, scale.fixture_length, scale.held_out
    )


def make_buildset(seed: int, scale: Scale) -> SeriesFile:
    # Offset keeps the two datasets of one run independent.
    return make_series_file(
        seed + 1_000_003, scale.buildset_series, scale.buildset_length, 0
    )


# ----------------------------------------------------------------------
# Request streams
# ----------------------------------------------------------------------
# Streams are *stratified*: which kind of op sits at which position, and
# which length it uses, is a fixed pattern; the seed picks the series,
# the offsets and which earlier query a repeat repeats. Exact- and
# any-length queries differ 2-10x in cost and each grid length is its
# own cost level, so a randomly drawn mix moves the median by whole
# levels from seed to seed; a fixed mix makes every prefix of a stream
# the same traffic on different data.
_GOLDEN = 0.6180339887498949

# serve_mix, per 100 requests: 90 single queries, 2 batches of 16 (one
# exact-length, one any-length), 3 within, 3 seasonal, 2 recommend.
_SLOTS = {24: "batch_exact", 74: "batch_any", 33: "recommend", 66: "recommend"}
_SLOTS.update({slot: "within" for slot in (9, 42, 88)})
_SLOTS.update({slot: "seasonal" for slot in (17, 55, 93)})
# 8 of every 25 single queries (32 %) repeat one of the last N singles.
_REPEATS = frozenset(range(2, 25, 3))


def _off_grid_length(counter: int, grid: list[int]) -> int:
    """The ``counter``-th off-grid length, spread evenly over the grid span."""
    span = grid[-1] - grid[0]
    length = grid[0] + int(((counter + 1) * _GOLDEN % 1.0) * span)
    while length in grid:
        length -= 1
    return length


def _single_query(
    rng: np.random.Generator, fixture: SeriesFile, grid: list[int], counter: int
) -> dict:
    """The ``counter``-th Q1 request of a stream.

    Even counters are exact-length (grid lengths in turn), odd ones
    any-length (off-grid lengths); the source series alternates between
    indexed and held-out every full turn of the grid.
    """
    exact = counter % 2 == 0
    turn = counter // 2
    n_rows = len(fixture.rows)
    if (turn // len(grid)) % 2 and n_rows > fixture.n_indexed:
        series = int(rng.integers(fixture.n_indexed, n_rows))
    else:
        series = int(rng.integers(0, fixture.n_indexed))
    length = grid[turn % len(grid)] if exact else _off_grid_length(turn, grid)
    start = int(rng.integers(0, fixture.length - length + 1))
    request = {
        "op": "query",
        "values": fixture.rows[series][start : start + length].tolist(),
        "k": QUERY_K,
        "normalized": False,
    }
    if exact:
        request["length"] = int(length)
    return request


def best_match_stream(seed: int, fixture: SeriesFile, n_ops: int) -> list[dict]:
    """``lib_best``: alternating exact-length and any-length Q1 queries."""
    rng = _rng(seed, 1)
    grid = fixture.grid()
    return [_single_query(rng, fixture, grid, counter) for counter in range(n_ops)]


def serve_stream(
    seed: int, fixture: SeriesFile, n_ops: int, repeat_window: int
) -> list[dict]:
    """``serve_mix`` traffic; ``cluster_mix`` replays a prefix of it.

    90 % single queries (half exact / half any; 32 % of them repeat one
    of the last ``repeat_window`` singles, so the LRU sees hits and, past
    its 1024 entries, evictions), 2 % batches of 16, 3 % ``within`` at
    the full series length, 3 % per-series ``seasonal``, 2 %
    ``recommend``. Every reply stays well under 64 KiB (see README:
    the cluster tier hangs on larger worker replies).
    """
    rng = _rng(seed, 2)
    grid = fixture.grid()
    recent: list[dict] = []
    requests: list[dict] = []
    singles = fresh = batches = others = 0
    for position in range(n_ops):
        kind = _SLOTS.get(position % 100, "single")
        if kind == "single":
            if recent and singles % 25 in _REPEATS:
                request = dict(recent[int(rng.integers(len(recent)))])
            else:
                request = _single_query(rng, fixture, grid, fresh)
                fresh += 1
            singles += 1
            recent.append(request)
            del recent[:-repeat_window]
        elif kind.startswith("batch"):
            exact = kind == "batch_exact"
            length = (
                grid[batches % len(grid)]
                if exact
                else _off_grid_length(batches, grid)
            )
            batches += 1
            queries = []
            for _ in range(BATCH_SIZE):
                series = int(rng.integers(0, len(fixture.rows)))
                start = int(rng.integers(0, fixture.length - length + 1))
                queries.append(fixture.rows[series][start : start + length].tolist())
            request = {
                "op": "query",
                "queries": queries,
                "k": QUERY_K,
                "normalized": False,
            }
            if exact:
                request["length"] = int(length)
        elif kind == "within":
            series = int(rng.integers(0, len(fixture.rows)))
            request = {
                "op": "within",
                "values": fixture.rows[series].tolist(),
                "length": fixture.length,
                "normalized": False,
            }
        elif kind == "seasonal":
            request = {
                "op": "seasonal",
                "length": int(grid[others % len(grid)]),
                "series": int(rng.integers(0, fixture.n_indexed)),
            }
            others += 1
        else:
            request = {"op": "recommend"}
            if others % 2:
                request["length"] = int(grid[others % len(grid)])
            others += 1
        request = dict(request)
        request["id"] = position
        requests.append(request)
    return requests


def range_stream(seed: int, fixture: SeriesFile, scale: Scale) -> dict[str, list[dict]]:
    """``lib_range``: one ``within`` per grid length, then Q2 and Q3 ops."""
    rng = _rng(seed, 3)
    grid = fixture.grid()
    within = []
    for length in grid:
        series = int(rng.integers(0, len(fixture.rows)))
        start = int(rng.integers(0, fixture.length - length + 1))
        within.append(
            {
                "op": "within",
                "values": fixture.rows[series][start : start + length].tolist(),
                "length": int(length),
                "normalized": False,
            }
        )
    seasonal = []
    for position in range(scale.seasonal_ops):
        request = {"op": "seasonal", "length": int(grid[position // 2 % len(grid)])}
        if position % 2:  # alternate data-driven and per-series
            request["series"] = int(rng.integers(0, fixture.n_indexed))
        seasonal.append(request)
    recommend = []
    for position in range(scale.recommend_ops):
        request = {"op": "recommend"}
        if position % 2:
            request["length"] = int(grid[position // 2 % len(grid)])
        if position % 3 == 0:
            request["degree"] = "SML"[position // 3 % 3]
        recommend.append(request)
    return {"within": within, "seasonal": seasonal, "recommend": recommend}


def cold_queries(seed: int, series_file: SeriesFile, n_ops: int) -> list[dict]:
    """Arguments for fresh-process ``onex query IDX --series … --length …``."""
    rng = _rng(seed, 4)
    grid = series_file.grid()
    queries = []
    for position in range(n_ops):
        length = int(grid[position % len(grid)])
        queries.append(
            {
                "series": int(rng.integers(0, series_file.n_indexed)),
                "start": int(rng.integers(0, series_file.length - length + 1)),
                "length": length,
            }
        )
    return queries


def encode_lines(requests: list[dict]) -> list[str]:
    return [json.dumps(request) for request in requests]


def stream_digest(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()
