"""Scalar reference for the online query path (paper Algorithm 2 + §5.3).

One representative at a time, one member at a time, through the scalar
``dtw`` / ``lb_kim`` / ``lb_keogh`` kernels — the loop the paper's
pseudocode describes. ``repro.core.query_processor`` answers the same
questions through stacked batch kernels; the parity tests require both
to return the same subsequences at the same distances (1e-9).

Everything here reads only public attributes of ``LengthBucket`` /
``SimilarityGroup`` and the configuration attributes of a
``QueryProcessor`` (``rspace``, ``dataset``, ``st``, ``window``,
``n_probe``, ``use_lower_bounds``, ``median_ordering``,
``group_search_width``).
"""

from __future__ import annotations

import bisect
import heapq
import math
from dataclasses import dataclass

import numpy as np

from repro.core.results import Match
from repro.distances.dtw import dtw, resolve_window
from repro.distances.lower_bounds import lb_keogh, lb_kim
from repro.exceptions import QueryError


@dataclass(frozen=True)
class Scan:
    """One probed representative (mirrors the production scan record)."""

    group_index: int
    dtw_raw: float
    dtw_normalized: float


def scan_representatives(
    processor, bucket, query: np.ndarray, bound_normalized: float = math.inf
) -> list[Scan]:
    """The ``n_probe`` representatives of ``bucket`` closest to ``query``.

    ``bound_normalized`` seeds the best-so-far from previously visited
    lengths. Returns the qualifying scans sorted by distance (empty when
    nothing beats the bound). With ``n_probe == 1`` the pruning
    threshold is the running best; with more probes it is the running
    ``n_probe``-th best.
    """
    n_probe = processor.n_probe
    denominator = 2.0 * max(query.shape[0], bucket.length)
    same_length = query.shape[0] == bucket.length
    query_radius = resolve_window(query.shape[0], bucket.length, processor.window)
    seed_raw = (
        math.inf if math.isinf(bound_normalized) else bound_normalized * denominator
    )
    # Max-heap (negated) of the n_probe best (raw distance, index).
    top: list[tuple[float, int]] = []

    def prune_bound() -> float:
        if len(top) == n_probe:
            return min(seed_raw, -top[0][0])
        return seed_raw

    order = (
        bucket.median_out_order()
        if processor.median_ordering
        else range(bucket.n_groups)
    )
    for group_index in order:
        group = bucket.groups[group_index]
        representative = group.representative
        bound = prune_bound()
        if processor.use_lower_bounds and bound < math.inf:
            if lb_kim(query, representative) >= bound:
                continue
            # The stored envelope is only admissible when its radius
            # covers the band the online DTW uses.
            env = group.rep_envelope
            if (
                same_length
                and env.radius >= query_radius
                and lb_keogh(query, env) >= bound
            ):
                continue
        distance = dtw(
            query,
            representative,
            window=processor.window,
            abandon_above=bound if bound < math.inf else None,
        )
        if distance == math.inf:
            continue
        if distance < prune_bound() or len(top) < n_probe:
            if len(top) == n_probe:
                heapq.heapreplace(top, (-distance, group_index))
            else:
                heapq.heappush(top, (-distance, group_index))
    scans = [
        Scan(
            group_index=index,
            dtw_raw=-negated,
            dtw_normalized=-negated / denominator,
        )
        for negated, index in top
        if -negated <= seed_raw
    ]
    scans.sort(key=lambda scan: scan.dtw_raw)
    return scans


def search_group(processor, bucket, scan, query: np.ndarray, k: int) -> list[Match]:
    """The best ``k`` members of the scanned group (§5.2 step 3).

    Members are visited outward from the position where the stored
    (normalized) ED-to-representative equals the query→representative
    normalized DTW — the §5.3 in-group ordering — with each DTW call
    early-abandoned at the current k-th best.
    """
    group = bucket.groups[scan.group_index]
    denominator = 2.0 * max(query.shape[0], bucket.length)
    target = scan.dtw_raw / denominator

    keys = group.normalized_ed_to_rep()
    n = len(keys)
    start = min(bisect.bisect_left(keys.tolist(), target), n - 1)
    # start, start-1, start+1, start-2, ... clipped to [0, n).
    order = sorted(range(n), key=lambda index: (abs(index - start), index))
    if processor.group_search_width is not None:
        order = order[: max(k, processor.group_search_width)]

    heap: list[tuple[float, int]] = []  # max-heap via negated distance
    results: dict[int, Match] = {}
    for member_index in order:
        values = processor.dataset.subsequence(group.member_ids[member_index])
        abandon = -heap[0][0] if len(heap) == k else math.inf
        raw = dtw(
            query,
            values,
            window=processor.window,
            abandon_above=abandon if math.isfinite(abandon) else None,
        )
        if raw == math.inf:
            continue
        match = Match(
            ssid=group.member_ids[member_index],
            values=values,
            dtw=raw,
            dtw_normalized=raw / denominator,
            group=(bucket.length, scan.group_index),
        )
        if len(heap) < k:
            heapq.heappush(heap, (-raw, member_index))
            results[member_index] = match
        elif raw < -heap[0][0]:
            _, evicted = heapq.heapreplace(heap, (-raw, member_index))
            del results[evicted]
            results[member_index] = match
    return sorted(results.values())


def best_match(
    processor,
    query: np.ndarray,
    length: int | None = None,
    k: int = 1,
    stop_at_half_st: bool = True,
) -> list[Match]:
    """What ``processor.best_match`` must return, computed the scalar way."""
    query = np.asarray(query, dtype=np.float64)
    rspace = processor.rspace
    best_bucket, best_scans = None, []
    if length is not None:
        best_bucket = rspace.bucket(int(length))
        best_scans = scan_representatives(processor, best_bucket, query)
    else:
        for candidate_length in rspace.search_length_order(query.shape[0]):
            bucket = rspace.bucket(candidate_length)
            bound = best_scans[0].dtw_normalized if best_scans else math.inf
            scans = scan_representatives(processor, bucket, query, bound)
            if not scans:
                continue
            if not best_scans or scans[0].dtw_normalized < best_scans[0].dtw_normalized:
                best_bucket, best_scans = bucket, scans
            if stop_at_half_st and scans[0].dtw_normalized <= processor.st / 2.0:
                break
    if not best_scans:
        raise QueryError("no representative reachable; widen the DTW window")
    merged: dict = {}
    for scan in best_scans[: processor.n_probe]:
        for match in search_group(processor, best_bucket, scan, query, k):
            existing = merged.get(match.ssid)
            if existing is None or match.dtw_normalized < existing.dtw_normalized:
                merged[match.ssid] = match
    return sorted(merged.values())[:k]
