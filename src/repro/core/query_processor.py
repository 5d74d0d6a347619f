"""The ONEX online query processor — paper Algorithm 2 and §5.3.

Queries never touch the raw subsequences wholesale. A similarity query
first finds the *best matching representative* (DTW against the compact
R-Space, pruned by lower bounds and early abandoning), then searches
inside the selected group in the order induced by the Local Sequence
Index: members whose stored ED-to-representative is closest to the
query→representative DTW are tried first (§5.3, last bullet).

The ED–DTW triangle inequality (Lemma 2) is what makes this sound: when
the representative is within ``ST/2`` of the query, every member of its
group is within ``ST``.
"""

from __future__ import annotations

import dataclasses
import heapq
import math
import threading
from dataclasses import dataclass
from collections.abc import Iterator, Sequence

import numpy as np

from repro.core.results import Match, SeasonalGroup, SeasonalResult
from repro.core.rspace import LengthBucket, RSpace
from repro.data.dataset import Dataset
from repro.distances.batch import (
    BATCH_CHUNK,
    chunk_sizes,
    dtw_batch,
    dtw_pairs,
    lb_keogh_batch,
    lb_keogh_reverse_stacked,
    lb_kim_batch,
    lb_kim_stacked,
    sliding_minmax,
)
from repro.distances.dtw import dtw, resolve_window
from repro.exceptions import QueryError
from repro.utils.validation import as_float_array


@dataclass
class QueryStats:
    """Work counters for one query (used by the ablation benches).

    The ``cascade_*`` fields attribute every kill to the cascade stage
    responsible — LB_Kim, LB_Keogh (candidate vs query envelope),
    reversed LB_Keogh (query vs candidate envelope), or the DP's early
    abandon — across both the representative scan and the in-group
    refinement. When one fused bound (the max of LB_Kim and an
    LB_Keogh direction) prunes a candidate, the kill is credited to
    the cheapest stage that would have sufficed alone. The serving
    layer merges these across workers and surfaces the totals in its
    ``info`` op.
    """

    reps_examined: int = 0
    reps_pruned_lb: int = 0
    reps_abandoned: int = 0
    rep_dtw_full: int = 0
    members_examined: int = 0
    members_pruned_lb: int = 0  # LB-rejected before any DP
    members_abandoned: int = 0
    lengths_visited: int = 0
    cascade_kim: int = 0
    cascade_keogh: int = 0
    cascade_keogh_reverse: int = 0
    cascade_dtw_abandon: int = 0
    stopped_at_half_st: bool = False

    @property
    def rep_prune_rate(self) -> float:
        if self.reps_examined == 0:
            return 0.0
        return (self.reps_pruned_lb + self.reps_abandoned) / self.reps_examined

    def merge(self, other: "QueryStats") -> None:
        """Accumulate another stats object's counters into this one.

        The batch executor fans refinement across worker threads whose
        thread-local counters would otherwise be lost; it merges them
        back so the caller's ``last_stats`` covers the whole batch.
        Field-driven so counters added to this dataclass later are
        merged automatically (ints sum, bools OR).
        """
        for spec in dataclasses.fields(self):
            mine = getattr(self, spec.name)
            theirs = getattr(other, spec.name)
            if isinstance(mine, bool):
                setattr(self, spec.name, mine or theirs)
            else:
                setattr(self, spec.name, mine + theirs)


@dataclass(frozen=True)
class _RepScan:
    """Outcome of scanning one length's representatives."""

    group_index: int
    dtw_raw: float
    dtw_normalized: float


def _attribute_lb_prunes(
    stats: QueryStats, kim_values: np.ndarray, bound: float, reverse: bool
) -> None:
    """Split fused lower-bound kills between LB_Kim and LB_Keogh.

    ``kim_values`` are the LB_Kim bounds of the *pruned* candidates;
    anything LB_Kim alone could have killed is credited to it, the rest
    to the LB_Keogh direction (``reverse`` names which one) that pushed
    the fused ``max`` bound over the threshold.
    """
    kim_hits = int(np.count_nonzero(kim_values >= bound))
    stats.cascade_kim += kim_hits
    rest = int(kim_values.size) - kim_hits
    if reverse:
        stats.cascade_keogh_reverse += rest
    else:
        stats.cascade_keogh += rest


class QueryProcessor:
    """Executes Algorithm 2 over a built R-Space.

    Parameters
    ----------
    rspace:
        The representative space (with GTI payloads) to query.
    dataset:
        The normalized dataset the R-Space was built from (used to
        materialize member subsequences).
    st:
        The similarity threshold the base was built with (normalized).
    window:
        DTW band spec used for all online DTW computations.
    group_search_width:
        Maximum number of member candidates examined inside the selected
        group; ``None`` examines all members (with early-abandoning DTW).
        Smaller values trade accuracy for speed (ablation: Fig. 7/8).
    use_lower_bounds:
        Toggle LB_Kim / LB_Keogh pruning of representatives (ablation).
    median_ordering:
        Scan representatives in the §5.3 median-sum-out order instead of
        storage order (ablation). Only observable with
        ``use_lower_bounds=False``: with lower bounds on, the scan
        visits candidates in ascending lower-bound order instead.
    n_probe:
        Extension beyond the paper: search the ``n_probe`` groups with
        the closest representatives instead of only the single best one.
        ``1`` (the default) is the paper's behaviour; larger values
        trade time for accuracy (see ``bench_ablation_nprobe``).
    """

    def __init__(
        self,
        rspace: RSpace,
        dataset: Dataset,
        st: float,
        window: int | float | None = 0.1,
        group_search_width: int | None = None,
        use_lower_bounds: bool = True,
        median_ordering: bool = True,
        n_probe: int = 1,
    ) -> None:
        if n_probe < 1:
            raise QueryError(f"n_probe must be >= 1, got {n_probe}")
        self.rspace = rspace
        self.dataset = dataset
        self.st = float(st)
        self.window = window
        self.group_search_width = group_search_width
        self.use_lower_bounds = use_lower_bounds
        self.median_ordering = median_ordering
        self.n_probe = int(n_probe)
        # Per-thread work counters: the serving layer fans queries over
        # a thread pool, and shared counters would race (and misreport
        # any single query's work). Each thread observes its own stats.
        self._thread_stats = threading.local()

    @property
    def last_stats(self) -> QueryStats:
        """Work counters of the calling thread's most recent query."""
        stats = getattr(self._thread_stats, "stats", None)
        if stats is None:
            stats = QueryStats()
            self._thread_stats.stats = stats
        return stats

    @last_stats.setter
    def last_stats(self, stats: QueryStats) -> None:
        self._thread_stats.stats = stats

    # ------------------------------------------------------------------
    # Class I: similarity queries (Algorithm 2.A)
    # ------------------------------------------------------------------
    def best_match(
        self,
        query: np.ndarray,
        length: int | None = None,
        k: int = 1,
        stop_at_half_st: bool = True,
    ) -> list[Match]:
        """Best match(es) for a sample sequence (Q1).

        Parameters
        ----------
        query:
            The sample sequence ``seq`` (already on the dataset's
            normalized scale).
        length:
            ``Match = Exact(L)``: only subsequences of length ``L`` are
            considered. ``None`` means ``Match = Any``: all indexed
            lengths, visited in the §5.3 order.
        k:
            Number of matches to return (from the selected group).
        stop_at_half_st:
            Stop visiting further lengths as soon as a representative
            within ``ST/2`` is found (§5.3's first bullet); Lemma 2 then
            already guarantees every member of that group is within ST.

        Returns
        -------
        list[Match]
            Up to ``k`` matches sorted by normalized DTW.
        """
        query = as_float_array(query, "query")
        self.last_stats = QueryStats()
        if k < 1:
            raise QueryError(f"k must be >= 1, got {k}")
        ((bucket, scans),) = self.assign_buckets_stacked(
            query[None, :], length=length, stop_at_half_st=stop_at_half_st
        )
        return self.search_groups(bucket, scans, query, k)

    def scan_length(self, length: int, query: np.ndarray) -> list[_RepScan]:
        """Representative scan of one length with an open (infinite) bound.

        The scan half of an exact-length query, standalone:
        ``refine_scans(length, scan_length(length, query), query, k)``
        is ``best_match(query, length=length, k=k)``.
        """
        query = as_float_array(query, "query")
        self.last_stats = QueryStats()
        bucket = self.rspace.bucket(int(length))
        self.last_stats.lengths_visited = 1
        return self.scan_representatives_stacked(bucket, query[None, :])[0]

    def refine_scans(
        self,
        length: int,
        scans: "list[_RepScan]",
        query: np.ndarray,
        k: int = 1,
    ) -> list[Match]:
        """The in-group refinement half of :meth:`best_match`, standalone.

        The last step of the cluster tier's ``Match = Any`` flow: once
        the segmented sweep has selected a length and its scans, the
        owner runs exactly the :meth:`search_groups` call
        :meth:`best_match` would have issued.
        """
        query = as_float_array(query, "query")
        self.last_stats = QueryStats()
        if k < 1:
            raise QueryError(f"k must be >= 1, got {k}")
        bucket = self.rspace.bucket(int(length))
        return self.search_groups(bucket, scans, query, k)

    def within_threshold(
        self,
        query: np.ndarray,
        st: float | None = None,
        length: int | None = None,
        refine: bool = True,
        lengths: "Sequence[int] | None" = None,
    ) -> list[Match]:
        """All sequences guaranteed similar to ``query`` within ``st``.

        Returns the members of every group whose representative has
        normalized DTW to the query at most ``st / 2`` — by Lemma 2 each
        such member is within ``st`` of the query. With ``refine=True``
        the actual member DTWs are computed (and members are sorted by
        them); otherwise the representative's distance is reported for
        all members, which is faster but coarser. ``lengths`` restricts
        the sweep to an explicit subset of indexed lengths (the cluster
        tier sends each shard its owned lengths); it is mutually
        exclusive with ``length``.
        """
        query = as_float_array(query, "query")
        st = self.st if st is None else float(st)
        if st <= 0:
            raise QueryError(f"similarity threshold must be positive, got {st}")
        if lengths is not None and length is not None:
            raise QueryError("pass either length or lengths, not both")
        if lengths is not None:
            lengths = sorted(int(value) for value in lengths)
        elif length is not None:
            lengths = [int(length)]
        else:
            lengths = self.rspace.lengths
        matches: list[Match] = []
        for candidate_length in lengths:
            bucket = self.rspace.bucket(candidate_length)
            denominator = 2.0 * max(query.shape[0], bucket.length)
            for group_index, group in enumerate(bucket.groups):
                rep_distance = (
                    dtw(
                        query,
                        group.representative,
                        window=self.window,
                        abandon_above=st / 2.0 * denominator,
                    )
                    / denominator
                )
                if rep_distance > st / 2.0:
                    continue
                for ssid in group.member_ids:
                    values = self.dataset.subsequence(ssid)
                    if refine:
                        raw = dtw(query, values, window=self.window)
                        normalized = raw / denominator
                    else:
                        raw = rep_distance * denominator
                        normalized = rep_distance
                    matches.append(
                        Match(
                            ssid=ssid,
                            values=values,
                            dtw=raw,
                            dtw_normalized=normalized,
                            group=(bucket.length, group_index),
                        )
                    )
        matches.sort()
        return matches

    # ------------------------------------------------------------------
    # Class II: seasonal similarity queries (Algorithm 2.B)
    # ------------------------------------------------------------------
    def seasonal(
        self,
        length: int,
        series: int | None = None,
        min_members: int = 2,
    ) -> SeasonalResult:
        """Recurring similarity at one length (Q2).

        User-driven (``series`` given): clusters of subsequences of that
        length drawn from the sample series — its internally recurring
        shapes. Data-driven (``series=None``): every cluster of similar
        subsequences of that length across the whole dataset.
        """
        bucket = self.rspace.bucket(int(length))
        if min_members < 1:
            raise QueryError(f"min_members must be >= 1, got {min_members}")
        if series is not None and not 0 <= series < len(self.dataset):
            raise QueryError(
                f"series index {series} out of range for N={len(self.dataset)}"
            )
        groups: list[SeasonalGroup] = []
        for group_index, group in enumerate(bucket.groups):
            members = (
                group.member_ids
                if series is None
                else group.members_of_series(series)
            )
            if len(members) >= min_members:
                groups.append(
                    SeasonalGroup(
                        length=bucket.length,
                        group_index=group_index,
                        members=tuple(members),
                    )
                )
        return SeasonalResult(length=bucket.length, series=series, groups=tuple(groups))

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _rep_order(self, bucket: LengthBucket) -> Iterator[int]:
        if self.median_ordering:
            return bucket.median_out_order()
        return iter(range(bucket.n_groups))

    def scan_representatives_stacked(
        self,
        bucket: LengthBucket,
        queries: np.ndarray,
        bounds_normalized: np.ndarray | None = None,
    ) -> list[list[_RepScan]]:
        """Find each query's ``n_probe`` closest representatives (§5.2).

        The one representative scan: a single query is a one-row stack,
        the batch executor passes every query of one length at once.
        ``bounds_normalized[q]`` seeds query ``q``'s best-so-far from
        previously visited lengths so pruning carries across lengths;
        its scans come back sorted by distance (empty when nothing
        beats the bound). The prune threshold is the running
        ``n_probe``-th best.

        Per query the cascade is LB_Kim maxed with (same-length)
        reversed LB_Keogh over the whole representative stack, then
        chunked DTW over the survivors in ascending lower-bound order
        so early chunks tighten the early-abandon bound for later ones.
        Across queries only the arithmetic is fused — the lower bounds
        are one stacked matrix and each chunk stage is one
        :func:`~repro.distances.batch.dtw_pairs` DP over every query's
        current chunk — while each query keeps its own candidate order,
        prune bound and chunk schedule, so a row's scans do not depend
        on which other rows share its stack.
        """
        queries = np.asarray(queries, dtype=np.float64)
        if queries.ndim != 2 or queries.shape[1] == 0:
            raise QueryError(
                "stacked scan requires a (n_queries, length) query matrix"
            )
        n_queries, n = queries.shape
        if bounds_normalized is None:
            bounds_normalized = np.full(n_queries, math.inf)
        bounds_normalized = np.asarray(bounds_normalized, dtype=np.float64)
        stats = self.last_stats
        denominator = 2.0 * max(n, bucket.length)
        same_length = n == bucket.length
        radius = resolve_window(n, bucket.length, self.window)
        reps = bucket.representatives_matrix
        n_groups = reps.shape[0]
        stats.reps_examined += n_groups * n_queries
        seeds_raw = bounds_normalized * denominator  # inf stays inf

        if self.use_lower_bounds:
            kim_matrix = lb_kim_stacked(queries, reps)
            lower_bounds = kim_matrix
            if same_length:
                stack = bucket.rep_envelope_stack(radius)
                lower_bounds = np.maximum(
                    kim_matrix, lb_keogh_reverse_stacked(queries, stack)
                )
            order = np.argsort(lower_bounds, axis=1, kind="stable")
        else:
            kim_matrix = None
            lower_bounds = None
            base = np.fromiter(
                self._rep_order(bucket), dtype=np.intp, count=n_groups
            )
            order = np.broadcast_to(base, (n_queries, n_groups))

        candidate_lists: list[np.ndarray] = []
        for q in range(n_queries):
            candidates = order[q]
            if lower_bounds is not None and math.isfinite(seeds_raw[q]):
                keep = lower_bounds[q][candidates] < seeds_raw[q]
                stats.reps_pruned_lb += int(n_groups - keep.sum())
                _attribute_lb_prunes(
                    stats,
                    kim_matrix[q][candidates[~keep]],
                    float(seeds_raw[q]),
                    reverse=True,
                )
                candidates = candidates[keep]
            candidate_lists.append(candidates)

        # One max-heap (negated raw distance, group index) per query.
        tops: list[list[tuple[float, int]]] = [[] for _ in range(n_queries)]

        def prune_bound(q: int) -> float:
            top = tops[q]
            if len(top) == self.n_probe:
                return min(seeds_raw[q], -top[0][0])
            return float(seeds_raw[q])

        # Every query follows its own chunk schedule (small bound-setting
        # chunk first); stages advance in lockstep so each stage is one
        # fused dtw_pairs call over every query's current chunk.
        schedules = [
            list(chunk_sizes(len(candidates))) for candidates in candidate_lists
        ]
        positions = [0] * n_queries
        n_stages = max((len(schedule) for schedule in schedules), default=0)
        for stage in range(n_stages):
            pair_queries: list[int] = []
            pair_groups: list[int] = []
            pair_bounds: list[float] = []
            for q in range(n_queries):
                if stage >= len(schedules[q]):
                    continue
                size = schedules[q][stage]
                chunk = candidate_lists[q][positions[q] : positions[q] + size]
                positions[q] += size
                bound = prune_bound(q)
                if lower_bounds is not None and math.isfinite(bound):
                    keep = lower_bounds[q][chunk] < bound
                    stats.reps_pruned_lb += int(len(chunk) - keep.sum())
                    _attribute_lb_prunes(
                        stats, kim_matrix[q][chunk[~keep]], bound, reverse=True
                    )
                    chunk = chunk[keep]
                if not len(chunk):
                    continue
                pair_queries.extend([q] * len(chunk))
                pair_groups.extend(chunk.tolist())
                pair_bounds.extend([bound] * len(chunk))
            if not pair_queries:
                continue
            query_rows = np.asarray(pair_queries, dtype=np.intp)
            group_rows = np.asarray(pair_groups, dtype=np.intp)
            abandon = np.asarray(pair_bounds)
            distances = dtw_pairs(
                queries[query_rows],
                reps[group_rows],
                radius,
                abandon_above=None if np.isinf(abandon).all() else abandon,
            )
            # Pairs are query-major and, within a query, in candidate
            # order — iterating them updates each heap in exactly the
            # sequence the per-query scan would.
            for q, group_index, distance in zip(
                pair_queries, pair_groups, distances.tolist()
            , strict=True):
                if distance == math.inf:
                    stats.reps_abandoned += 1
                    stats.cascade_dtw_abandon += 1
                    continue
                stats.rep_dtw_full += 1
                top = tops[q]
                if distance < prune_bound(q) or len(top) < self.n_probe:
                    if len(top) == self.n_probe:
                        heapq.heapreplace(top, (-distance, group_index))
                    else:
                        heapq.heappush(top, (-distance, group_index))

        results: list[list[_RepScan]] = []
        for q in range(n_queries):
            scans = [
                _RepScan(
                    group_index=index,
                    dtw_raw=-negated,
                    dtw_normalized=-negated / denominator,
                )
                for negated, index in tops[q]
                if -negated <= seeds_raw[q]
            ]
            scans.sort(key=lambda scan: scan.dtw_raw)
            results.append(scans)
        return results

    def assign_buckets_stacked(
        self,
        queries: np.ndarray,
        length: int | None = None,
        stop_at_half_st: bool = True,
        lengths: "Sequence[int] | None" = None,
        bounds: "Sequence[float] | None" = None,
    ) -> "list[tuple[LengthBucket, list[_RepScan]] | None]":
        """Select each query's bucket and probe scans (§5.3 length sweep).

        Returns, per row of the equal-length ``queries`` stack, the
        selected bucket plus its representative scans — what
        :meth:`search_groups` refines. ``length`` pins every query to
        one bucket (``Match = Exact``); ``None`` runs the §5.3 length
        sweep with each query carrying its own best-so-far bound across
        lengths and (with ``stop_at_half_st``) leaving the sweep at the
        first representative within ``ST/2`` — queries that are done
        simply drop out of the stacked scans of the remaining lengths.

        ``lengths`` and ``bounds`` run one *segment* of that sweep: the
        given lengths are visited in the given order, with query ``q``'s
        best-so-far seeded from ``bounds[q]`` (normalized; ``inf`` for
        none). A row comes back ``None`` when nothing in the segment
        beats its seed. Chaining segments — each seeded with the top
        distance of the best selection so far — visits the same lengths
        with the same bounds as one call over the whole order, which is
        how the cluster tier walks the sweep across shards.
        """
        queries = np.asarray(queries, dtype=np.float64)
        n_queries = queries.shape[0]
        stats = self.last_stats

        if length is not None:
            bucket = self.rspace.bucket(int(length))
            stats.lengths_visited += n_queries
            scans_per_query = self.scan_representatives_stacked(bucket, queries)
            for scans in scans_per_query:
                if not scans:
                    raise QueryError(
                        f"no representative of length {length} reachable; "
                        "widen the DTW window"
                    )
            return [(bucket, scans) for scans in scans_per_query]

        whole_sweep = lengths is None
        if whole_sweep:
            lengths = self.rspace.search_length_order(queries.shape[1])
        carried = (
            np.full(n_queries, math.inf)
            if bounds is None
            else np.array(bounds, dtype=np.float64)
        )
        best: list[tuple | None] = [None] * n_queries  # (bucket, scans)
        active = list(range(n_queries))
        for candidate_length in lengths:
            if not active:
                break
            bucket = self.rspace.bucket(int(candidate_length))
            stats.lengths_visited += len(active)
            scans_per_query = self.scan_representatives_stacked(
                bucket, queries[active], carried[active]
            )
            still_active = []
            for q, scans in zip(active, scans_per_query, strict=True):
                if scans:
                    top = scans[0].dtw_normalized
                    if top < carried[q]:
                        best[q] = (bucket, scans)
                        carried[q] = top
                    if stop_at_half_st and top <= self.st / 2.0:
                        stats.stopped_at_half_st = True
                        continue
                still_active.append(q)
            active = still_active
        if whole_sweep and any(selected is None for selected in best):
            raise QueryError(
                "no representative reachable; widen the DTW window"
            )
        return best

    def search_groups(
        self,
        bucket: LengthBucket,
        scans: list[_RepScan],
        query: np.ndarray,
        k: int,
    ) -> list[Match]:
        """Search every probed group and merge the k best matches."""
        merged: dict = {}
        for scan in scans[: self.n_probe]:
            for match in self._search_group(bucket, scan, query, k):
                existing = merged.get(match.ssid)
                if existing is None or match.dtw_normalized < existing.dtw_normalized:
                    merged[match.ssid] = match
        return sorted(merged.values())[:k]

    def _search_group(
        self, bucket: LengthBucket, scan: _RepScan, query: np.ndarray, k: int
    ) -> list[Match]:
        """Find the best member(s) inside the selected group (§5.2 step 3).

        Members are visited outward from the position where the stored
        (normalized) ED-to-representative equals the query→representative
        normalized DTW — the §5.3 in-group ordering — in chunks of
        ``BATCH_CHUNK``, each chunk's DTW batch early-abandoned at the
        current k-th best. The representative
        distance is the one the scan already computed (``scan.dtw_raw``),
        not a fresh DTW.
        """
        group_index = scan.group_index
        group = bucket.groups[group_index]
        denominator = 2.0 * max(query.shape[0], bucket.length)
        target = scan.dtw_raw / denominator

        keys = group.normalized_ed_to_rep()
        start = int(np.searchsorted(keys, target, side="left"))
        order = list(_alternate_outward(start, len(keys)))
        if self.group_search_width is not None:
            order = order[: max(k, self.group_search_width)]

        heap: list[tuple[float, int]] = []  # max-heap via negated distance
        results: dict[int, Match] = {}
        stats = self.last_stats

        def admit(member_index: int, raw: float, values: np.ndarray) -> None:
            match = Match(
                ssid=group.member_ids[member_index],
                values=values,
                dtw=raw,
                dtw_normalized=raw / denominator,
                group=(bucket.length, group_index),
            )
            if len(heap) < k:
                heapq.heappush(heap, (-raw, member_index))
                results[member_index] = match
            elif raw < -heap[0][0]:
                _, evicted = heapq.heapreplace(heap, (-raw, member_index))
                del results[evicted]
                results[member_index] = match

        radius = resolve_window(query.shape[0], bucket.length, self.window)
        order_array = np.asarray(order, dtype=np.intp)
        if len(order) < group.count:
            # group_search_width truncated the visit list: gather only the
            # needed rows.
            if group.member_rows is not None and bucket.store_view is not None:
                ordered_values = bucket.store_view.values(
                    group.member_rows[order_array]
                )
            else:
                ordered_values = np.stack(
                    [
                        self.dataset.subsequence(group.member_ids[index])
                        for index in order
                    ]
                )
        else:
            members = bucket.member_matrix(group_index, self.dataset)
            ordered_values = members[order_array]
        # The LSI outward order puts likely-best members in the first chunk,
        # so later chunks run against a tight k-th-best bound. For those
        # chunks, admissible per-member lower bounds (LB_Kim maxed with
        # LB_Keogh against the query envelope when lengths match) prune
        # without touching the DP; computing them is only worth it when a
        # second chunk exists.
        member_bounds = None
        member_kim = None
        if self.use_lower_bounds and order_array.size > BATCH_CHUNK:
            tail = ordered_values[BATCH_CHUNK:]
            tail_kim = lb_kim_batch(query, tail)
            tail_bounds = tail_kim
            if query.shape[0] == bucket.length:
                env_lower, env_upper = sliding_minmax(query, radius)
                tail_bounds = np.maximum(
                    tail_kim, lb_keogh_batch(tail, env_lower, env_upper)
                )
            head = np.zeros(BATCH_CHUNK)
            member_bounds = np.concatenate([head, tail_bounds])
            member_kim = np.concatenate([head, tail_kim])
        for start in range(0, order_array.size, BATCH_CHUNK):
            positions = np.arange(start, min(start + BATCH_CHUNK, order_array.size))
            stats.members_examined += positions.size
            abandon = -heap[0][0] if len(heap) == k else math.inf
            if member_bounds is not None and math.isfinite(abandon):
                keep = member_bounds[positions] < abandon
                stats.members_pruned_lb += int(positions.size - keep.sum())
                _attribute_lb_prunes(
                    stats, member_kim[positions[~keep]], abandon, reverse=False
                )
                positions = positions[keep]
                if not positions.size:
                    continue
            distances = dtw_batch(
                query,
                ordered_values[positions],
                radius,
                abandon_above=abandon if math.isfinite(abandon) else None,
            )
            for position, raw in zip(
                positions.tolist(), distances.tolist(), strict=True
            ):
                if raw == math.inf:
                    stats.members_abandoned += 1
                    stats.cascade_dtw_abandon += 1
                    continue
                admit(int(order_array[position]), raw, ordered_values[position])
        return sorted(results.values())


def _alternate_outward(start: int, n: int) -> Iterator[int]:
    """Indices ``start, start-1, start+1, start-2, ...`` clipped to [0, n)."""
    if n <= 0:
        return
    start = min(max(start, 0), n - 1)
    yield start
    for offset in range(1, n):
        left = start - offset
        right = start + offset
        if left >= 0:
            yield left
        if right < n:
            yield right
