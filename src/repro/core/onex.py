"""The :class:`OnexIndex` facade: one object for the whole ONEX lifecycle.

``OnexIndex.build`` runs the one-time preprocessing step of the paper:
normalize the dataset, decompose it into subsequences of the configured
lengths, construct the similarity groups per length (Algorithm 1),
assemble the R-Space with its GTI payloads, and compute the SP-Space.
The resulting object answers the paper's three online query classes:

* :meth:`query` / :meth:`query_batch` / :meth:`within` — Class I
  similarity queries (Q1),
* :meth:`seasonal` — Class II seasonal similarity queries (Q2),
* :meth:`recommend` — Class III threshold recommendations (Q3),

plus :meth:`with_threshold` (Algorithm 2.C threshold adaptation without
rebuilding), :meth:`stats` (Table 4's accounting) and save/load. The
module inventory, including the vectorized batch-kernel layer the query
path runs on, is documented in ``DESIGN.md`` at the repository root.
"""

from __future__ import annotations

import math
import os
import time
from collections.abc import Sequence

import numpy as np

from repro.core.query_processor import QueryProcessor
from repro.core.results import BaseStats, Match, SeasonalResult, ThresholdRecommendation
from repro.core.rspace import LengthBucket, RSpace
from repro.core.spspace import SimilarityDegree, SPSpace
from repro.data.dataset import Dataset
from repro.data.normalize import min_max_normalize
from repro.data.store import SubsequenceStore
from repro.distances.backend import get_backend
from repro.distances.dtw import resolve_window
from repro.exceptions import QueryError, ThresholdError
from repro.utils.validation import as_float_array, check_lengths, resolve_n_jobs

_DEFAULT_N_LENGTHS = 8


def default_length_grid(dataset: Dataset, n_lengths: int = _DEFAULT_N_LENGTHS) -> list[int]:
    """A practical grid of subsequence lengths for a dataset.

    The paper indexes *all* lengths; for interactive rebuild times this
    default covers the range ``[max(4, n/8), n]`` with ``n_lengths``
    evenly spaced values (``n`` = shortest series). Pass
    ``lengths="all"`` to :meth:`OnexIndex.build` for the paper's full
    decomposition.
    """
    top = dataset.min_length
    bottom = max(4, top // 8)
    if top - bottom + 1 <= n_lengths:
        return list(range(bottom, top + 1))
    grid = np.linspace(bottom, top, n_lengths).round().astype(int)
    return sorted(set(int(value) for value in grid))


class OnexIndex:
    """A built ONEX base over one dataset. Use :meth:`build` to create one."""

    def __init__(
        self,
        dataset: Dataset,
        rspace: RSpace,
        spspace: SPSpace,
        st: float,
        window: int | float | None,
        start_step: int,
        value_range: tuple[float, float],
        build_seconds: float = 0.0,
        group_search_width: int | None = None,
        assign_mode: str = "sequential",
        build_profile: list[dict] | None = None,
        build_backend: str = "numpy",
    ) -> None:
        self.dataset = dataset  # normalized
        self.rspace = rspace
        self.spspace = spspace
        self.st = float(st)
        self.window = window
        self.start_step = int(start_step)
        self.value_range = (float(value_range[0]), float(value_range[1]))
        self.build_seconds = float(build_seconds)
        self.assign_mode = assign_mode
        # Per-length construction throughput: list of dicts with keys
        # length / n_subsequences / seconds / backend (shown by
        # ``onex info``).
        self.build_profile = list(build_profile or [])
        # Kernel backend that ran the construction assignment loops
        # ("numba" when the fused build kernel was dispatched).
        self.build_backend = str(build_backend)
        self.processor = QueryProcessor(
            rspace,
            dataset,
            st=self.st,
            window=window,
            group_search_width=group_search_width,
        )

    # ------------------------------------------------------------------
    # Offline construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        dataset: Dataset,
        st: float = 0.2,
        lengths: Sequence[int] | str | None = None,
        start_step: int = 1,
        window: int | float | None = 0.1,
        seed: int | None = 0,
        normalize: bool = True,
        group_search_width: int | None = None,
        grouping: str = "incremental",
        assign_mode: str = "sequential",
        n_jobs: int | None = None,
        progress: "callable | None" = None,
    ) -> "OnexIndex":
        """Run the one-time ONEX preprocessing step (§4.1).

        Parameters
        ----------
        dataset:
            Input time series collection.
        st:
            Similarity threshold on the normalized-distance scale
            (the paper's experiments use ~0.2).
        lengths:
            Subsequence lengths to index: an explicit list, the string
            ``"all"`` for every length from 2 to the shortest series
            (the paper's full decomposition), or ``None`` for the
            default grid of :func:`default_length_grid`.
        start_step:
            Stride over subsequence starting positions (1 = all).
        window:
            DTW band used online (fraction of length, absolute int, or
            ``None`` for unconstrained).
        seed:
            Seed for the construction-order shuffles.
        normalize:
            Apply the paper's dataset-global min-max normalization
            before indexing (§6.1). Disable only if the data is already
            on a common scale.
        group_search_width:
            Online in-group search width (``None`` = exhaustive in the
            selected group).
        grouping:
            Group-construction strategy: ``"incremental"`` (the paper's
            Algorithm 1, default) or ``"kmeans"`` (radius-constrained
            k-means; the tech report's alternative-clustering avenue —
            see :mod:`repro.core.grouping_kmeans`).
        assign_mode:
            Construction-engine assignment strategy:  ``"sequential"``
            (bit-identical to Algorithm 1, default) or ``"minibatch"``
            (chunked BLAS assignment for large builds; documented
            deviation — see :class:`~repro.core.grouping.GroupBuilder`).
        n_jobs:
            Worker processes for the construction step. ``None``/``1``
            builds in-process; larger values partition the length grid
            across a process pool whose shards window a shared mmap of
            the subsequence store (see :mod:`repro.core.parallel`);
            negative counts back from the core count (``-1`` = all).
            The produced index is **bit-identical** for every job count.
            Only the ``"incremental"`` grouping strategy shards.
        progress:
            Optional callable ``progress(length, n_subsequences,
            seconds)`` invoked after each length's groups are built
            (drives the CLI's per-length throughput line).
        """
        # Build-only modules load here, not with the module: a process
        # that only queries a saved index never pays for them.
        from repro.core.grouping import ASSIGN_MODES, GroupBuilder

        if st <= 0 or not math.isfinite(st):
            raise ThresholdError(st)
        # Validate the window spec now: it is only *used* online, and a
        # bad spec (e.g. the fraction 0.0) would otherwise surface as an
        # error on the first query against an already-built base.
        resolve_window(dataset.min_length, dataset.min_length, window)
        value_range = dataset.value_range
        if normalize:
            minimum, maximum = value_range
            dataset = dataset.map(
                lambda values: min_max_normalize(values, minimum, maximum)
            )
        if lengths is None:
            grid = default_length_grid(dataset)
        elif isinstance(lengths, str):
            if lengths.lower() != "all":
                raise QueryError(f"unknown lengths spec {lengths!r}; use 'all'")
            grid = dataset.default_lengths()
        else:
            grid = check_lengths(lengths, dataset.min_length)

        if assign_mode not in ASSIGN_MODES:
            raise QueryError(
                f"unknown assign_mode {assign_mode!r}; use one of {ASSIGN_MODES}"
            )
        if grouping == "kmeans":
            from repro.core.grouping_kmeans import build_groups_kmeans
        elif grouping != "incremental":
            raise QueryError(
                f"unknown grouping strategy {grouping!r}; "
                "use 'incremental' or 'kmeans'"
            )
        jobs = resolve_n_jobs(n_jobs)
        if jobs > 1 and grouping != "incremental":
            raise QueryError(
                "parallel construction (n_jobs > 1) requires "
                "grouping='incremental'"
            )
        rng = np.random.default_rng(seed)
        started = time.perf_counter()
        store = SubsequenceStore(dataset, start_step=start_step)
        buckets: dict[int, LengthBucket] = {}
        build_profile: list[dict] = []

        def record(length, groups, seconds, notify=True, backend="numpy"):
            """Shared per-length bookkeeping for every construction path."""
            view = store.view(length)
            buckets[length] = LengthBucket(
                length=length, groups=groups, store_view=view
            )
            build_profile.append(
                {
                    "length": length,
                    "n_subsequences": view.n_rows,
                    "seconds": seconds,
                    "backend": backend,
                }
            )
            if notify and progress is not None:
                progress(length, view.n_rows, seconds)

        if grouping == "kmeans":
            for length in grid:
                length_started = time.perf_counter()
                groups = build_groups_kmeans(
                    dataset,
                    length,
                    st,
                    rng,
                    start_step=start_step,
                    view=store.view(length),
                )
                record(length, groups, time.perf_counter() - length_started)
        elif jobs > 1:
            from repro.core.parallel import build_shards_parallel

            views = {length: store.view(length) for length in grid}
            # Pre-draw every length's visit permutation in grid order:
            # the rng consumption is exactly the sequential loop's, so
            # sharded builds make bit-identical decisions (see
            # repro.core.parallel).
            orders = {
                length: rng.permutation(views[length].n_rows)
                for length in grid
            }
            shards = build_shards_parallel(
                store,
                grid,
                orders,
                st=st,
                assign_mode=assign_mode,
                n_jobs=jobs,
                progress=progress,  # invoked as shards complete
                backend=get_backend().name,
            )
            for length in grid:
                record(
                    length,
                    shards[length].groups,
                    shards[length].seconds,
                    notify=False,
                    backend=shards[length].assign_backend,
                )
        else:
            for length in grid:
                length_started = time.perf_counter()
                builder = GroupBuilder(length, st, assign_mode=assign_mode)
                groups = builder.build(store.view(length), rng)
                record(
                    length,
                    groups,
                    time.perf_counter() - length_started,
                    backend=builder.last_assign_backend,
                )
        rspace = RSpace(buckets)
        spspace = SPSpace(rspace, st)
        build_seconds = time.perf_counter() - started
        build_backend = next(
            (
                entry["backend"]
                for entry in build_profile
                if entry["backend"] != "numpy"
            ),
            "numpy",
        )
        return cls(
            dataset=dataset,
            rspace=rspace,
            spspace=spspace,
            st=st,
            window=window,
            start_step=start_step,
            value_range=value_range,
            build_seconds=build_seconds,
            group_search_width=group_search_width,
            assign_mode=assign_mode,
            build_profile=build_profile,
            build_backend=build_backend,
        )

    # ------------------------------------------------------------------
    # Query normalization helper
    # ------------------------------------------------------------------
    def normalize_query(self, query: np.ndarray) -> np.ndarray:
        """Map a raw-scale query onto the index's normalized scale."""
        query = as_float_array(query, "query")
        minimum, maximum = self.value_range
        return min_max_normalize(query, minimum, maximum)

    # ------------------------------------------------------------------
    # Class I: similarity queries
    # ------------------------------------------------------------------
    def query(
        self,
        query: np.ndarray,
        length: int | None = None,
        k: int = 1,
        normalized: bool = True,
        stop_at_half_st: bool = True,
    ) -> list[Match]:
        """Find the best match(es) for a sample sequence (Q1).

        ``length=None`` is ``Match = Any``; an integer is
        ``Match = Exact(length)``. Set ``normalized=False`` when the
        query is on the original (pre-normalization) scale.
        """
        query = as_float_array(query, "query")
        if not normalized:
            query = self.normalize_query(query)
        return self.processor.best_match(
            query, length=length, k=k, stop_at_half_st=stop_at_half_st
        )

    def query_batch(
        self,
        queries: Sequence[np.ndarray],
        length: int | None = None,
        k: int = 1,
        normalized: bool = True,
        stop_at_half_st: bool = True,
        max_workers: int | None = None,
    ) -> list[list[Match]]:
        """Answer a batch of Q1 queries; one match list per query.

        Bit-identical to calling :meth:`query` once per element (same
        matches, same order), but executed as a real batch: queries are
        grouped by resolved length, each group's representative scan
        runs as stacked batch kernels over every (query,
        representative) pair at once, and the per-group refinements fan
        out across ``max_workers`` threads (see
        :mod:`repro.serve.batch`).
        """
        from repro.serve.batch import execute_batch

        return execute_batch(
            self,
            queries,
            length=length,
            k=k,
            normalized=normalized,
            stop_at_half_st=stop_at_half_st,
            max_workers=max_workers,
        )

    def within(
        self,
        query: np.ndarray,
        st: float | None = None,
        length: int | None = None,
        normalized: bool = True,
        refine: bool = True,
    ) -> list[Match]:
        """All subsequences guaranteed within ``st`` of the query (Q1 range form)."""
        query = as_float_array(query, "query")
        if not normalized:
            query = self.normalize_query(query)
        return self.processor.within_threshold(
            query, st=st, length=length, refine=refine
        )

    # ------------------------------------------------------------------
    # Class II: seasonal similarity
    # ------------------------------------------------------------------
    def seasonal(
        self, length: int, series: int | None = None, min_members: int = 2
    ) -> SeasonalResult:
        """Recurring similarity clusters at one length (Q2)."""
        return self.processor.seasonal(length, series=series, min_members=min_members)

    # ------------------------------------------------------------------
    # Class III: threshold recommendations
    # ------------------------------------------------------------------
    def recommend(
        self,
        degree: SimilarityDegree | str | None = None,
        length: int | None = None,
    ) -> list[ThresholdRecommendation]:
        """Threshold ranges for a similarity degree (Q3); all when ``None``."""
        if degree is None:
            return self.spspace.recommend_all(length=length)
        return [self.spspace.recommend(degree, length=length)]

    def degree_of(self, st: float, length: int | None = None) -> SimilarityDegree:
        """Classify a threshold value as Strict / Medium / Loose."""
        return self.spspace.degree_of(st, length=length)

    # ------------------------------------------------------------------
    # Threshold adaptation (Algorithm 2.C)
    # ------------------------------------------------------------------
    def with_threshold(self, st: float, seed: int | None = 0) -> "OnexIndex":
        """A new index at threshold ``st`` derived without a full rebuild.

        Reuses, splits or merges the precomputed groups per Algorithm
        2.C. The returned index shares this index's normalized dataset.
        """
        if st == self.st:
            return self
        from repro.core.threshold import adapt_bucket

        rng = np.random.default_rng(seed)
        buckets = {
            bucket.length: adapt_bucket(bucket, self.dataset, self.st, st, rng)
            for bucket in self.rspace
        }
        rspace = RSpace(buckets)
        spspace = SPSpace(rspace, st)
        return OnexIndex(
            dataset=self.dataset,
            rspace=rspace,
            spspace=spspace,
            st=st,
            window=self.window,
            start_step=self.start_step,
            value_range=self.value_range,
            build_seconds=self.build_seconds,
            group_search_width=self.processor.group_search_width,
            assign_mode=self.assign_mode,
            build_profile=self.build_profile,
            build_backend=self.build_backend,
        )

    # ------------------------------------------------------------------
    # Introspection and persistence
    # ------------------------------------------------------------------
    def stats(self) -> BaseStats:
        """Summary statistics (the columns of the paper's Table 4)."""
        from repro.core.sizing import measure_rspace

        breakdown = measure_rspace(self.rspace)
        return BaseStats(
            dataset=self.dataset.name,
            st=self.st,
            n_series=len(self.dataset),
            n_lengths=len(self.rspace),
            n_groups=self.rspace.n_groups,
            n_representatives=self.rspace.n_representatives,
            n_subsequences=self.rspace.n_subsequences,
            size_mb=breakdown.total_mb,
            gti_mb=breakdown.gti_mb,
            lsi_mb=breakdown.lsi_mb,
            store_mb=breakdown.store_mb,
            build_seconds=self.build_seconds,
        )

    def save(
        self, path: str | os.PathLike, version: int | None = None
    ) -> None:
        """Persist the index.

        ``version=None`` infers the format from the path: an ``.npz``
        suffix writes the legacy single-archive v2; anything else
        writes the memory-mappable v3 directory (raw ``.npy`` arrays
        plus ``manifest.json``). Both write temp-then-rename, so a
        reader never observes a partially written index (see
        :func:`repro.core.persistence.save_index` for the exact v3
        crash-window semantics).
        """
        from repro.core.persistence import save_index

        save_index(self, path, version=version)

    @classmethod
    def load(cls, path: str | os.PathLike) -> "OnexIndex":
        """Load an index previously written by :meth:`save`.

        v3 directories open lazily: the manifest and mmap handles load
        now; each length bucket hydrates on first access.
        """
        from repro.core.persistence import load_index

        return load_index(path)

    def __repr__(self) -> str:
        return (
            f"<OnexIndex {self.dataset.name!r} ST={self.st} "
            f"lengths={self.rspace.lengths} groups={self.rspace.n_groups} "
            f"subsequences={self.rspace.n_subsequences}>"
        )
