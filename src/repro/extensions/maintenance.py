"""Incremental maintenance of the ONEX base.

The paper builds the base once over a static dataset (its tech report
defers maintenance). This module implements the natural incremental
step: when a new time series arrives, its subsequences are pushed
through the same admission rule as Algorithm 1 — join the nearest
representative if within ``sqrt(L) * ST / 2``, else seed a new group —
against the *current* representatives. Touched groups are re-finalized
(members re-sorted by ED to the updated mean) and the per-length GTI
payloads (Dc matrix, sum order) and SP-Space are recomputed.

The assignment runs on the same construction engine as the offline
build (:class:`~repro.core.grouping.RepresentativeSet`, seeded from the
existing groups): the representative matrix is hoisted **once** per
bucket and updated row-wise in place, instead of the seed
implementation's ``np.stack`` of every representative for every
appended window — an O(groups x length) allocation per subsequence —
and the norm-difference lower bound prunes hopeless representatives.
Rebuilt buckets are store-backed over the extended dataset's columnar
:class:`~repro.data.store.SubsequenceStore` (row indices of the old
series are stable under appending, so untouched groups keep their row
arrays).

Cost: O(new_subsequences x surviving_reps) distance computations plus a
re-finalization of the touched groups — far below a full rebuild, which
re-clusters every subsequence of every series.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

from repro.core.group import SimilarityGroup
from repro.core.grouping import RepresentativeSet
from repro.core.onex import OnexIndex
from repro.core.rspace import LengthBucket, RSpace
from repro.core.spspace import SPSpace
from repro.data.dataset import Dataset
from repro.data.normalize import min_max_normalize
from repro.data.store import LengthView, SubsequenceStore
from repro.data.timeseries import TimeSeries
from repro.exceptions import DataError, IndexConstructionError


def _as_series(values: Any, name: str, index: int) -> TimeSeries:
    if isinstance(values, TimeSeries):
        return values
    return TimeSeries(values, name=name or f"series-{index}")


def append_series(
    index: OnexIndex,
    series: Any,
    name: str = "",
    normalized: bool = False,
) -> OnexIndex:
    """Return a new index with ``series`` added, without a full rebuild.

    Parameters
    ----------
    index:
        The existing built index (not modified).
    series:
        The new time series (array-like or :class:`TimeSeries`). Must be
        at least as long as the largest indexed subsequence length.
    name:
        Optional name for the new series.
    normalized:
        Set when the series is already on the index's normalized scale;
        otherwise it is min-max scaled with the index's stored range
        (values outside the original range are clipped by the affine
        map's extrapolation, mirroring what a production system would
        log-and-accept).

    Returns
    -------
    OnexIndex
        A new index over ``N + 1`` series sharing no mutable state with
        the input.
    """
    new_index = len(index.dataset)
    series = _as_series(series, name, new_index)
    if not normalized:
        minimum, maximum = index.value_range
        series = series.with_values(
            min_max_normalize(series.values, minimum, maximum)
        )
    max_length = max(index.rspace.lengths)
    if len(series) < max_length:
        raise IndexConstructionError(
            f"new series of length {len(series)} is shorter than the largest "
            f"indexed subsequence length ({max_length})"
        )

    dataset = Dataset(list(index.dataset) + [series], name=index.dataset.name)
    store = SubsequenceStore(dataset, start_step=index.start_step)
    buckets: dict[int, LengthBucket] = {}
    for bucket in index.rspace:
        buckets[bucket.length] = _extend_bucket(
            bucket, store.view(bucket.length), new_index, index.st, dataset
        )
    rspace = RSpace(buckets)
    spspace = SPSpace(rspace, index.st)
    return OnexIndex(
        dataset=dataset,
        rspace=rspace,
        spspace=spspace,
        st=index.st,
        window=index.window,
        start_step=index.start_step,
        value_range=index.value_range,
        build_seconds=index.build_seconds,
        group_search_width=index.processor.group_search_width,
        assign_mode=index.assign_mode,
        build_profile=index.build_profile,
    )


def _existing_rows(
    group: SimilarityGroup, view: LengthView
) -> np.ndarray | None:
    """Store rows of a group's members in the extended view.

    Store-backed groups keep their row arrays (appending a series only
    adds rows at the end, existing numbering is stable); legacy groups
    resolve their ids through the vectorized inverse lookup. Returns
    ``None`` for groups whose ids do not address enumerable store rows
    (the persistence ``"ids"`` fallback, e.g. a foreign ``start_step``).
    """
    if group.member_rows is not None:
        return group.member_rows
    try:
        return view.rows_of(
            np.array([ssid.series for ssid in group.member_ids]),
            np.array([ssid.start for ssid in group.member_ids]),
        )
    except DataError:
        return None


def _extend_bucket(
    bucket: LengthBucket,
    view: LengthView,
    series_index: int,
    st: float,
    dataset: Dataset,
) -> LengthBucket:
    """Insert one series' subsequences of this bucket's length."""
    length = bucket.length
    threshold = math.sqrt(length) * st / 2.0
    envelope_radius = bucket.groups[0].envelope_radius

    # Engine state seeded from the existing groups: the representative
    # matrix is stacked once and updated row-wise in place.
    reps = RepresentativeSet.from_groups(
        length,
        np.stack([group.representative for group in bucket.groups]),
        np.array([group.count for group in bucket.groups]),
    )
    n_existing = len(bucket.groups)
    added: dict[int, list[int]] = {}  # group index -> appended store rows

    new_rows = np.flatnonzero(view.series == series_index)
    sq_norms = view.sq_norms(new_rows)
    for position, row in enumerate(new_rows.tolist()):
        window = view.row_values(row)  # zero-copy
        nearest, _ = reps.nearest_sequential(
            window, float(sq_norms[position]), threshold
        )
        if nearest < 0:
            nearest = reps.new_group(window)
        else:
            reps.admit(nearest, window)
        added.setdefault(nearest, []).append(row)

    rebuilt: list[SimilarityGroup] = []
    for g, group in enumerate(bucket.groups):
        rows = added.get(g)
        if rows is None:
            rebuilt.append(group)  # untouched: reuse as-is
            continue
        new_rows_array = np.asarray(rows, dtype=np.int64)
        existing_rows = _existing_rows(group, view)
        if existing_rows is None:
            # Ids off the store's enumeration grid: materialize members
            # explicitly; the rebuilt group stays store-less.
            member_rows = None
            member_matrix = np.concatenate(
                [
                    np.stack(
                        [dataset.subsequence(s) for s in group.member_ids]
                    ),
                    view.values(new_rows_array),
                ]
            )
        else:
            member_rows = np.concatenate([existing_rows, new_rows_array])
            member_matrix = view.values(member_rows)
        rebuilt.append(
            SimilarityGroup.from_members(
                length,
                list(group.member_ids) + view.ids(new_rows_array),
                reps.member_sum(g),
                member_matrix,
                envelope_radius,
                member_rows=member_rows,
            )
        )
    for g in range(n_existing, reps.count):
        rows = np.asarray(added[g], dtype=np.int64)
        rebuilt.append(
            SimilarityGroup.from_members(
                length,
                view.ids(rows),
                reps.member_sum(g),
                view.values(rows),
                envelope_radius,
                member_rows=rows,
            )
        )
    return LengthBucket(length=length, groups=rebuilt, store_view=view)
