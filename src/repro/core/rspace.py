"""The Representative Space (paper Definition 9) and per-length buckets.

The R-Space collects, for every indexed length, the similarity groups,
their representatives, and the *Inter-Representative Distances* ``Dc``
(Definition 10). Each :class:`LengthBucket` also carries the Global Time
Index payload of §4.3: the group-id vector, the ``Dc`` matrix, the
sum-of-distances array sorted for the median-out search order of §5.3,
and (once the SP-Space pass ran) the local ``ST_half`` / ``ST_final``.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from collections.abc import Iterator

import numpy as np

from repro.core.group import SimilarityGroup
from repro.distances.batch import EnvelopeStack, envelope_matrix
from repro.exceptions import IndexConstructionError, QueryError


@dataclass
class LengthBucket:
    """All groups of one subsequence length plus their GTI entry.

    When built over a columnar subsequence store, ``store_view`` holds
    the per-length :class:`~repro.data.store.LengthView` and groups carry
    ``member_rows`` index arrays into it, so member matrices are one
    fancy-index gather instead of per-member materialization.
    """

    #: Per-bucket byte budget for cached member-matrix stacks. Caching
    #: makes repeat traffic cheap, but an unbounded cache would slowly
    #: re-materialize the whole windowed subsequence set in RAM over a
    #: long-lived serving process — defeating the mmap-backed v3 design
    #: — so oldest-inserted stacks are evicted beyond this budget (the
    #: newest stack is always kept, whatever its size; hits stay
    #: lock-free, which is why eviction is insertion- not
    #: recency-ordered).
    MEMBER_MATRIX_CACHE_BYTES = 64 * 1024 * 1024

    length: int
    groups: list[SimilarityGroup]
    store_view: object = None  # LengthView | None
    rep_matrix: np.ndarray = field(init=False)
    dc: np.ndarray = field(init=False)  # normalized ED between representatives
    sum_order: np.ndarray = field(init=False)  # group indices sorted by Dc row sums
    dc_row_sums: np.ndarray = field(init=False)
    st_half: float | None = None
    st_final: float | None = None
    # Lazy batch-kernel payloads: representative envelope stacks per
    # band radius and stacked member matrices per group (built on first
    # use by the batch query path, then reused). Construction is
    # guarded by ``_payload_lock`` so concurrent queries hydrate each
    # payload exactly once and never observe a half-built entry.
    _rep_envelope_stacks: dict[int, EnvelopeStack] = field(
        init=False, repr=False, default_factory=dict  # guarded-by: _payload_lock
    )
    _member_matrices: "OrderedDict[int, np.ndarray]" = field(
        init=False, repr=False, default_factory=OrderedDict  # guarded-by: _payload_lock
    )
    _member_matrix_bytes: int = field(
        init=False, repr=False, default=0  # guarded-by: _payload_lock
    )
    _payload_lock: threading.Lock = field(
        init=False, repr=False, default_factory=threading.Lock
    )

    def __post_init__(self) -> None:
        if not self.groups:
            raise IndexConstructionError(f"length {self.length} has no groups")
        for group in self.groups:
            if not group.is_finalized:
                raise IndexConstructionError("LengthBucket requires finalized groups")
            if group.length != self.length:
                raise IndexConstructionError(
                    f"group of length {group.length} placed in bucket {self.length}"
                )
        self.rep_matrix = np.stack([group.representative for group in self.groups])
        self.dc = self._pairwise_normalized_ed(self.rep_matrix)
        self.dc_row_sums = self.dc.sum(axis=1)
        self.sum_order = np.argsort(self.dc_row_sums, kind="stable")

    @staticmethod
    def _pairwise_normalized_ed(reps: np.ndarray) -> np.ndarray:
        """Dc matrix: normalized ED between every pair of representatives."""
        g, length = reps.shape
        # ||a-b||^2 = ||a||^2 + ||b||^2 - 2 a.b, clipped against round-off.
        norms = np.einsum("ij,ij->i", reps, reps)
        squared = norms[:, None] + norms[None, :] - 2.0 * reps @ reps.T
        np.clip(squared, 0.0, None, out=squared)
        return np.sqrt(squared) / math.sqrt(length)

    # ------------------------------------------------------------------
    @property
    def n_groups(self) -> int:
        return len(self.groups)

    @property
    def n_subsequences(self) -> int:
        return sum(group.count for group in self.groups)

    def median_out_order(self) -> Iterator[int]:
        """Group indices starting from the median Dc-row-sum, fanning out.

        This is the §5.3 representative search order: begin with the
        "median representative" of the sorted sums array, then alternate
        between its left and right neighbours until both ends are reached.
        """
        order = self.sum_order
        g = len(order)
        middle = g // 2
        yield int(order[middle])
        for offset in range(1, g):
            left = middle - offset
            right = middle + offset
            if left >= 0:
                yield int(order[left])
            if right < g:
                yield int(order[right])

    def group_of(self, index: int) -> SimilarityGroup:
        if not 0 <= index < len(self.groups):
            raise QueryError(
                f"group index {index} out of range for length {self.length}"
            )
        return self.groups[index]

    # ------------------------------------------------------------------
    # Batch-kernel payloads (lazy, cached)
    # ------------------------------------------------------------------
    @property
    def representatives_matrix(self) -> np.ndarray:
        """Contiguous ``(n_groups, length)`` stack of representatives."""
        return self.rep_matrix

    def rep_envelope_stack(self, radius: int) -> EnvelopeStack:
        """Envelopes of every representative at ``radius``, built once.

        Backs the reversed LB_Keogh stage of the batch representative
        scan; cached per radius because different query lengths resolve
        to different band radii. Safe under concurrent queries: the
        stack is built exactly once, inside ``_payload_lock``.
        """
        radius = int(radius)
        # Deliberate lock-free fast path: a hit reads a fully-built,
        # never-mutated stack (GIL-atomic dict read).
        stack = self._rep_envelope_stacks.get(radius)  # onex: ignore[ONEX301]
        if stack is None:
            with self._payload_lock:
                stack = self._rep_envelope_stacks.get(radius)
                if stack is None:
                    stack = envelope_matrix(self.rep_matrix, radius)
                    self._rep_envelope_stacks[radius] = stack
        return stack

    def member_matrix(self, group_index: int, dataset) -> np.ndarray:
        """Stacked member subsequences of one group, in LSI order.

        Rows align with ``groups[group_index].member_ids``. For
        store-backed groups this is a single fancy-index into the
        columnar store's zero-copy window matrix; groups without store
        rows (hand-built or legacy archives) fall back to materializing
        from ``dataset`` (the normalized dataset this R-Space was built
        from) one member at a time. The stack is cached per bucket
        within a :data:`MEMBER_MATRIX_CACHE_BYTES` byte budget — the
        first query against a group pays the gather (and, for
        mmap-backed stores, the page-in), later queries and the batch
        executor reuse it — and construction happens at most once at a
        time under concurrent queries (``_payload_lock``). Hits are
        lock-free (concurrent refinements of different groups never
        serialize on a hit), so eviction beyond the budget is
        insertion-ordered rather than recency-ordered.
        """
        # Deliberate lock-free fast path (see the docstring): hits must
        # not serialize, and a hit reads a finished read-only array.
        matrix = self._member_matrices.get(group_index)  # onex: ignore[ONEX301]
        if matrix is not None:
            return matrix
        with self._payload_lock:
            matrix = self._member_matrices.get(group_index)
            if matrix is not None:
                return matrix
            group = self.group_of(group_index)
            if group.member_rows is not None and self.store_view is not None:
                matrix = self.store_view.values(group.member_rows)
            else:
                matrix = np.stack(
                    [dataset.subsequence(ssid) for ssid in group.member_ids]
                )
            matrix.setflags(write=False)
            self._member_matrices[group_index] = matrix
            self._member_matrix_bytes += matrix.nbytes
            while (
                self._member_matrix_bytes > self.MEMBER_MATRIX_CACHE_BYTES
                and len(self._member_matrices) > 1
            ):
                _, evicted = self._member_matrices.popitem(last=False)
                self._member_matrix_bytes -= evicted.nbytes
        return matrix


class RSpace:
    """Representative Space: one :class:`LengthBucket` per indexed length.

    Buckets are either materialized up front (``buckets``) or supplied
    as zero-argument ``loaders`` that hydrate on first access — the v3
    persistence format registers one loader per length so ``load`` is
    O(manifest) and a bucket's groups (and mmap pages) are only touched
    by the first query that needs that length.
    """

    def __init__(
        self,
        buckets: dict[int, LengthBucket],
        loaders: "dict[int, callable] | None" = None,
    ) -> None:
        loaders = dict(loaders or {})
        if not buckets and not loaders:
            raise IndexConstructionError("R-Space requires at least one length bucket")
        self._buckets = dict(sorted(buckets.items()))  # guarded-by: _buckets_lock
        self._loaders = loaders
        self._lengths = sorted(set(self._buckets) | set(loaders))
        # One hydration lock per lazily-loaded length: concurrent first
        # queries against the same length run the loader exactly once
        # (different lengths still hydrate in parallel). The bucket map
        # itself gets its own lock — two *different* lengths hydrating
        # concurrently hold different hydration locks, so without it
        # their `_buckets` inserts would race (benign under the GIL,
        # undefined without it).
        self._buckets_lock = threading.Lock()
        self._hydration_locks = {length: threading.Lock() for length in loaders}

    # ------------------------------------------------------------------
    # Container protocol
    # ------------------------------------------------------------------
    def __contains__(self, length: int) -> bool:
        with self._buckets_lock:
            if length in self._buckets:
                return True
        return length in self._loaders

    def __iter__(self) -> Iterator[LengthBucket]:
        return (self.bucket(length) for length in self._lengths)

    def __len__(self) -> int:
        return len(self._lengths)

    @property
    def lengths(self) -> list[int]:
        """Indexed lengths, ascending."""
        return list(self._lengths)

    @property
    def hydrated_lengths(self) -> list[int]:
        """Lengths whose bucket is materialized (all, unless lazily loaded)."""
        with self._buckets_lock:
            hydrated = set(self._buckets)
        return [length for length in self._lengths if length in hydrated]

    def bucket(self, length: int) -> LengthBucket:
        """GTI lookup: the bucket of one length (constant time, §5.2).

        Lazily registered buckets hydrate here, once, on first access —
        also under concurrency: the per-length hydration lock makes the
        loader run exactly once, and every caller observes the same
        fully-constructed bucket object.
        """
        # Deliberate lock-free fast path: a hit reads a fully-built
        # bucket already published under the lock (GIL-atomic read).
        bucket = self._buckets.get(length)  # onex: ignore[ONEX301]
        if bucket is not None:
            return bucket
        loader = self._loaders.get(length)
        if loader is None:
            known = ", ".join(map(str, self._lengths))
            raise QueryError(
                f"length {length} is not indexed; indexed lengths: {known}"
            ) from None
        with self._hydration_locks[length]:
            with self._buckets_lock:
                bucket = self._buckets.get(length)
            if bucket is None:
                bucket = loader()
                with self._buckets_lock:
                    self._buckets[length] = bucket
        return bucket

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    @property
    def n_groups(self) -> int:
        return sum(bucket.n_groups for bucket in self)

    @property
    def n_representatives(self) -> int:
        # One representative per group (Def. 8), so the counts coincide;
        # kept separate because the paper reports "representatives".
        return self.n_groups

    @property
    def n_subsequences(self) -> int:
        return sum(bucket.n_subsequences for bucket in self)

    def search_length_order(self, query_length: int) -> list[int]:
        """Lengths in the §5.3 search order for a query of ``query_length``.

        Start at the query's own length (or the nearest indexed one),
        continue with decreasing lengths, then increasing ones.
        """
        return search_length_order(self._lengths, query_length)


def search_length_order(lengths: list[int], query_length: int) -> list[int]:
    """The §5.3 length sweep order as a pure function of the length grid.

    Shared by :meth:`RSpace.search_length_order` and the cluster router,
    which cuts the order into per-shard runs without an :class:`RSpace`
    instance — both must visit lengths in exactly this order for sharded
    answers to stay bit-identical (ties in the nearest-length probe
    resolve to the smaller length, matching ``min``'s first-wins
    behaviour).
    """
    lengths = sorted(int(length) for length in lengths)
    if query_length in lengths:
        start = lengths.index(query_length)
    else:
        start = min(
            range(len(lengths)), key=lambda i: abs(lengths[i] - query_length)
        )
    descending = [lengths[i] for i in range(start, -1, -1)]
    ascending = [lengths[i] for i in range(start + 1, len(lengths))]
    return descending + ascending
