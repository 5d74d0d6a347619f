"""Construction of similarity groups for one length — paper Algorithm 1.

The subsequences of a given length are visited in random order
(RANDOMIZE-IN-PLACE, i.e. a seeded Fisher-Yates shuffle, removing
data-order bias). Each subsequence joins the nearest current
representative if that lies within ``sqrt(L) * ST / 2``, updating the
group's running mean; otherwise it seeds a new group.

Two implementations coexist:

* :func:`reference_build_groups_for_length` — the original
  entry-at-a-time loop over ``(SubsequenceId, ndarray)`` tuples. It is
  the executable specification the property tests and
  ``benchmarks/bench_build_engine.py`` compare against.
* :class:`GroupBuilder` — the vectorized construction engine over a
  columnar :class:`~repro.data.store.LengthView`. Its ``sequential``
  mode makes **bit-identical decisions** to the reference: the
  norm-difference lower bound ``| ||r|| - ||s|| | <= ED(r, s)`` (computed
  from cached squared norms) only *skips* representatives that provably
  cannot win the admission test, and the surviving candidates are
  measured with the exact same difference-norm formula, so the admitted
  group and the running-sum updates match the reference to the bit. The
  opt-in ``minibatch`` mode assigns whole chunks against a snapshot of
  the representative matrix in one BLAS call, with a sequential fallback
  only for rows whose nearest snapshot representative is out of
  threshold — a documented deviation from Algorithm 1's strict
  per-subsequence ordering that preserves the Lemma 1/2 slack
  guarantees (members are admitted within threshold of *some* recent
  representative state, exactly like the reference's running-mean
  drift).

Sequential mode additionally dispatches through the kernel backend
registry (:mod:`repro.distances.backend`, ISSUE 7): when the active
backend ships a fused ``build_assign`` kernel (the numba backend's
nopython Algorithm-1 pass), the whole per-length assignment loop runs
inside it — same shortlist, same exact recheck, same first-index
argmin, same running-sum admits — and the engine reconstructs the
membership lists from the kernel's assignment array. The final group
payloads (representatives, sorted EDs, member order) are computed by
the *shared* numpy finalization either way, so kernel and engine
produce bit-identical groups whenever their admission decisions agree;
the decisions themselves differ only if an exact distance lands within
one rounding ulp of the threshold or of a competing candidate (the
kernel accumulates the difference norm sequentially where numpy's
``einsum`` uses SIMD partial sums), a boundary the property suite
probes with adversarial duplicate/constant/extreme inputs.
"""

from __future__ import annotations

import math
import time

import numpy as np

from repro.core.group import SimilarityGroup
from repro.data.dataset import Dataset
from repro.distances.backend import get_backend
from repro.data.store import LengthView, SubsequenceStore
from repro.data.timeseries import SubsequenceId
from repro.exceptions import IndexConstructionError, ThresholdError

#: Rows assigned per BLAS call in ``assign_mode="minibatch"``.
DEFAULT_CHUNK_SIZE = 1024

#: Absolute slack added to the norm-difference lower bound before a
#: representative is skipped. The bound is mathematically ``<= ED``; the
#: slack only guards against floating-point rounding in the cached
#: norms, so pruning can never change a sequential-mode decision.
_LB_SLACK = 1e-9

ASSIGN_MODES = ("sequential", "minibatch")


class RepresentativeSet:
    """Growable representative state shared by every construction path.

    Maintains, per group: the running point-wise **sum** of members (the
    exact quantity :meth:`SimilarityGroup.add` accumulates), the member
    count, the representative row ``sum / count``, and its cached ED
    norm backing the norm-difference lower bound.
    """

    def __init__(self, length: int, capacity: int = 16) -> None:
        self.length = int(length)
        self._sums = np.empty((capacity, length))
        self._matrix = np.empty((capacity, length))
        self._counts = np.zeros(capacity, dtype=np.int64)
        self._norms = np.empty(capacity)
        self._sq_norms = np.empty(capacity)
        self._count = 0

    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        return self._count

    def view(self) -> np.ndarray:
        """Current ``(n_groups, length)`` representative matrix."""
        return self._matrix[: self._count]

    def norms(self) -> np.ndarray:
        return self._norms[: self._count]

    def sums(self) -> np.ndarray:
        return self._sums[: self._count]

    def counts(self) -> np.ndarray:
        return self._counts[: self._count]

    def member_sum(self, index: int) -> np.ndarray:
        return self._sums[index]

    # ------------------------------------------------------------------
    @classmethod
    def from_groups(
        cls, length: int, representatives: np.ndarray, counts: np.ndarray
    ) -> "RepresentativeSet":
        """Seed the set from existing groups (incremental maintenance).

        ``representatives`` is the ``(n_groups, length)`` matrix of
        current representatives and ``counts`` the member counts; sums
        are reconstructed as ``representative * count``.
        """
        n_groups = representatives.shape[0]
        reps = cls(length, capacity=max(16, 2 * n_groups))
        counts = np.asarray(counts, dtype=np.int64)
        reps._counts[:n_groups] = counts
        reps._sums[:n_groups] = representatives * counts[:, None]
        reps._matrix[:n_groups] = representatives
        sq = np.einsum("ij,ij->i", representatives, representatives)
        reps._sq_norms[:n_groups] = sq
        reps._norms[:n_groups] = np.sqrt(sq)
        reps._count = n_groups
        return reps

    def _grow(self) -> None:
        capacity = self._matrix.shape[0] * 2
        for name in ("_sums", "_matrix"):
            grown = np.empty((capacity, self.length))
            grown[: self._count] = getattr(self, name)[: self._count]
            setattr(self, name, grown)
        counts = np.zeros(capacity, dtype=np.int64)
        counts[: self._count] = self._counts[: self._count]
        self._counts = counts
        for name in ("_norms", "_sq_norms"):
            grown_flat = np.empty(capacity)
            grown_flat[: self._count] = getattr(self, name)[: self._count]
            setattr(self, name, grown_flat)

    def new_group(self, values: np.ndarray) -> int:
        """Seed a new group with ``values`` as first member; returns its index."""
        if self._count == self._matrix.shape[0]:
            self._grow()
        g = self._count
        self._sums[g] = values
        self._matrix[g] = values
        sq = float(np.dot(self._matrix[g], self._matrix[g]))
        self._counts[g] = 1
        self._sq_norms[g] = sq
        self._norms[g] = math.sqrt(sq)
        self._count += 1
        return g

    def admit(self, index: int, values: np.ndarray) -> None:
        """Add a member to group ``index`` and refresh its representative."""
        self._sums[index] += values
        self._counts[index] += 1
        self._refresh(index)

    def admit_chunk(self, indices: np.ndarray, values: np.ndarray) -> None:
        """Accumulate a whole chunk of members without refreshing.

        ``indices`` may repeat; accumulation is unbuffered. Call
        :meth:`refresh_rows` on the touched rows afterwards.
        """
        np.add.at(self._sums, indices, values)
        self._counts[: self._count] += np.bincount(
            indices, minlength=self._count
        )[: self._count]

    def _refresh(self, index: int) -> None:
        self._matrix[index] = self._sums[index] / self._counts[index]
        sq = float(np.dot(self._matrix[index], self._matrix[index]))
        self._sq_norms[index] = sq
        self._norms[index] = math.sqrt(sq)

    def refresh_rows(self, indices: np.ndarray) -> None:
        """Recompute representatives/norms after deferred admissions."""
        if indices.size == 0:
            return
        rows = self._sums[indices] / self._counts[indices, None]
        self._matrix[indices] = rows
        sq = np.einsum("ij,ij->i", rows, rows)
        self._sq_norms[indices] = sq
        self._norms[indices] = np.sqrt(sq)

    # ------------------------------------------------------------------
    def nearest_sequential(
        self, values: np.ndarray, value_sq_norm: float, threshold: float
    ) -> tuple[int, float]:
        """Exact nearest representative within ``threshold``.

        Returns ``(group_index, distance)``, or ``(-1, inf)`` when no
        representative lies within the threshold. The decisions are
        exactly those of the reference's full scan:

        1. one BLAS matvec gives approximate squared distances
           ``||r||^2 - 2 r.s + ||s||^2`` from the cached norms — no
           ``(n_groups, length)`` temporary like the reference's
           difference matrix;
        2. representatives outside ``threshold^2`` plus a floating-point
           slack are dropped (they cannot pass the admission test, let
           alone be its argmin), and the norm-difference lower bound
           ``| ||r|| - ||s|| | <= ED(r, s)`` cheaply re-prunes the
           slack's survivors;
        3. the shortlist is measured with the reference's exact
           difference-norm formula, so the admitted group (first-index
           argmin tie-break included) matches bit for bit.
        """
        if self._count == 0:
            return -1, math.inf
        cross = self.view() @ values
        approx_sq = self._sq_norms[: self._count] - 2.0 * cross + value_sq_norm
        slack = _LB_SLACK * (1.0 + value_sq_norm)
        # Runs once per window: ndarray methods skip the np.* wrappers'
        # ravel and dispatch and return the same arrays.
        candidates = (approx_sq <= threshold * threshold + slack).nonzero()[0]
        if candidates.size == 0:
            return -1, math.inf
        value_norm = math.sqrt(value_sq_norm)
        lower_bounds = np.abs(self._norms[candidates] - value_norm)
        candidates = candidates[lower_bounds <= threshold + _LB_SLACK]
        if candidates.size == 0:
            return -1, math.inf
        diff = self._matrix[candidates] - values
        distances = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        best = int(distances.argmin())
        if distances[best] > threshold:
            return -1, math.inf
        return int(candidates[best]), float(distances[best])

    def nearest_chunk(
        self, chunk: np.ndarray, chunk_sq_norms: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Nearest representative per chunk row, via one BLAS call.

        Runs the shared chunked assigner against the current
        representative matrix snapshot, reusing the cached norms.
        """
        return assign_to_nearest(
            chunk,
            self.view(),
            point_sq_norms=chunk_sq_norms,
            centroid_sq_norms=self._sq_norms[: self._count],
        )


def assign_to_nearest(
    points: np.ndarray,
    centroids: np.ndarray,
    point_sq_norms: np.ndarray | None = None,
    centroid_sq_norms: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Nearest centroid per point, in one BLAS call.

    The chunked assigner shared by the minibatch construction mode,
    radius-constrained k-means and incremental maintenance:
    ``ED^2 = ||p||^2 + ||c||^2 - 2 p.c`` with the cross term as a single
    gemm. Returns ``(nearest_index, distance)`` arrays.
    """
    if point_sq_norms is None:
        point_sq_norms = np.einsum("ij,ij->i", points, points)
    if centroid_sq_norms is None:
        centroid_sq = np.einsum("ij,ij->i", centroids, centroids)
    else:
        centroid_sq = centroid_sq_norms
    squared = (
        point_sq_norms[:, None] + centroid_sq[None, :] - 2.0 * points @ centroids.T
    )
    np.clip(squared, 0.0, None, out=squared)
    nearest = np.argmin(squared, axis=1)
    distances = np.sqrt(squared[np.arange(points.shape[0]), nearest])
    return nearest, distances


def _check_threshold(st: float) -> None:
    if st <= 0 or not math.isfinite(st):
        raise ThresholdError(st)


class GroupBuilder:
    """Vectorized Algorithm 1 over a columnar subsequence store.

    Parameters
    ----------
    length:
        Subsequence length ``L``.
    st:
        Similarity threshold on the normalized-ED scale; the raw-ED
        admission test is ``ED <= sqrt(L) * st / 2`` (Algorithm 1,
        line 15).
    assign_mode:
        ``"sequential"`` (bit-identical to the reference) or
        ``"minibatch"`` (chunked BLAS assignment, documented deviation).
    envelope_radius:
        LB_Keogh radius stored with each representative; defaults to
        10% of the length.
    chunk_size:
        Rows per BLAS call in minibatch mode.
    """

    def __init__(
        self,
        length: int,
        st: float,
        *,
        assign_mode: str = "sequential",
        envelope_radius: int | None = None,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
    ) -> None:
        _check_threshold(st)
        if assign_mode not in ASSIGN_MODES:
            raise IndexConstructionError(
                f"unknown assign_mode {assign_mode!r}; use one of {ASSIGN_MODES}"
            )
        if chunk_size < 1:
            raise IndexConstructionError(f"chunk_size must be >= 1, got {chunk_size}")
        self.length = int(length)
        self.st = float(st)
        self.threshold = math.sqrt(length) * st / 2.0
        self.assign_mode = assign_mode
        self.envelope_radius = (
            max(1, length // 10) if envelope_radius is None else int(envelope_radius)
        )
        self.chunk_size = int(chunk_size)
        #: Which implementation ran the last assignment pass: the name
        #: of the kernel backend when its fused ``build_assign`` kernel
        #: was dispatched, ``"numpy"`` for the vectorized engine paths.
        self.last_assign_backend: str = "numpy"
        #: Wall-clock split of the last :meth:`build` call, for the
        #: per-length throughput surfaced by ``onex info``.
        self.last_assign_seconds: float = 0.0
        self.last_finalize_seconds: float = 0.0

    # ------------------------------------------------------------------
    # Store-backed construction
    # ------------------------------------------------------------------
    def build(
        self,
        view: LengthView,
        rng: np.random.Generator | None = None,
        *,
        order: np.ndarray | None = None,
    ) -> list[SimilarityGroup]:
        """Group every row of ``view``; returns finalized groups.

        The visit order is either drawn here from ``rng``
        (RANDOMIZE-IN-PLACE: a seeded Fisher-Yates permutation) or
        supplied explicitly via ``order`` — the process-parallel build
        pre-draws every length's permutation in grid order in the parent
        so worker shards make bit-identical decisions to the sequential
        build regardless of job count.
        """
        if view.length != self.length:
            raise IndexConstructionError(
                f"view of length {view.length} passed to builder of length "
                f"{self.length}"
            )
        if view.n_rows == 0:
            raise IndexConstructionError(
                f"store has no subsequences of length {self.length}"
            )
        if order is None:
            if rng is None:
                raise IndexConstructionError(
                    "GroupBuilder.build needs either an rng or an explicit order"
                )
            order = rng.permutation(view.n_rows)
        else:
            order = np.asarray(order, dtype=np.int64)
            if order.shape != (view.n_rows,):
                raise IndexConstructionError(
                    f"visit order has shape {order.shape}; expected "
                    f"({view.n_rows},) for length {self.length}"
                )
        started = time.perf_counter()
        self.last_assign_backend = "numpy"
        if self.assign_mode == "minibatch":
            reps = RepresentativeSet(self.length)
            membership = self._assign_minibatch(view, order, reps)
            sums = reps.sums()
        else:
            backend = get_backend()
            if backend.build_assign is not None:
                membership, sums = self._assign_kernel(
                    view, order, backend.build_assign
                )
                self.last_assign_backend = backend.name
            else:
                reps = RepresentativeSet(self.length)
                membership = self._assign_sequential(view, order, reps)
                sums = reps.sums()
        self.last_assign_seconds = time.perf_counter() - started
        started = time.perf_counter()
        groups = self._finalize(view, sums, membership)
        self.last_finalize_seconds = time.perf_counter() - started
        return groups

    def _assign_sequential(
        self, view: LengthView, order: np.ndarray, reps: RepresentativeSet
    ) -> list[list[int]]:
        threshold = self.threshold
        sq_norms = view.sq_norms()
        windows = view
        membership: list[list[int]] = []
        for row in order.tolist():
            values = windows.row_values(row)  # zero-copy view
            nearest, _ = reps.nearest_sequential(
                values, float(sq_norms[row]), threshold
            )
            if nearest < 0:
                reps.new_group(values)
                membership.append([row])
            else:
                reps.admit(nearest, values)
                membership[nearest].append(row)
        return membership

    def _assign_kernel(
        self, view: LengthView, order: np.ndarray, kernel
    ) -> tuple[list[np.ndarray], np.ndarray]:
        """One fused backend call for the whole assignment pass.

        The kernel returns per-visit group assignments plus each group's
        running member sum and count; membership lists are reconstructed
        here in visit order (a stable argsort over the assignment array,
        matching the append order of the Python paths), and the sums
        feed the shared numpy finalization unchanged.
        """
        assign, sums, counts = kernel(
            view.flat_windows,
            view.window_rows,
            view.sq_norms(),
            order,
            self.threshold,
        )
        n_groups = sums.shape[0]
        positions = np.argsort(assign, kind="stable")
        boundaries = np.searchsorted(
            assign[positions], np.arange(n_groups + 1)
        )
        rows_by_group = order[positions]
        membership = [
            rows_by_group[boundaries[g] : boundaries[g + 1]]
            for g in range(n_groups)
        ]
        return membership, sums

    def _assign_minibatch(
        self, view: LengthView, order: np.ndarray, reps: RepresentativeSet
    ) -> list[list[int]]:
        threshold = self.threshold
        membership: list[list[int]] = []
        for start in range(0, order.size, self.chunk_size):
            rows = order[start : start + self.chunk_size]
            chunk = view.values(rows)
            chunk_sq = view.sq_norms(rows)
            if reps.count:
                nearest, distances = reps.nearest_chunk(chunk, chunk_sq)
                within = distances <= threshold
            else:
                within = np.zeros(rows.size, dtype=bool)
                nearest = np.zeros(rows.size, dtype=np.int64)
            # Whole-chunk admissions against the snapshot representatives.
            hit = np.flatnonzero(within)
            if hit.size:
                targets = nearest[hit]
                reps.admit_chunk(targets, chunk[hit])
                for i, group in zip(hit.tolist(), targets.tolist(), strict=True):
                    membership[group].append(int(rows[i]))
                reps.refresh_rows(np.unique(targets))
            # Sequential fallback for out-of-threshold rows (may seed
            # new groups other fallback rows immediately see).
            for i in np.flatnonzero(~within).tolist():
                row = int(rows[i])
                values = chunk[i]
                group, _ = reps.nearest_sequential(
                    values, float(chunk_sq[i]), threshold
                )
                if group < 0:
                    reps.new_group(values)
                    membership.append([row])
                else:
                    reps.admit(group, values)
                    membership[group].append(row)
        return membership

    def _finalize(
        self,
        view: LengthView,
        sums: np.ndarray,
        membership: list[list[int]] | list[np.ndarray],
    ) -> list[SimilarityGroup]:
        # Shared by every assignment path (engine and kernel alike):
        # given each group's exact member sum and row list, the final
        # payloads come out bit-identical regardless of who assigned.
        groups: list[SimilarityGroup] = []
        for g, member_rows in enumerate(membership):
            rows = np.asarray(member_rows, dtype=np.int64)
            groups.append(
                SimilarityGroup.from_members(
                    self.length,
                    view.ids(rows),
                    sums[g],
                    view.values(rows),
                    self.envelope_radius,
                    member_rows=rows,
                )
            )
        return groups

    # ------------------------------------------------------------------
    # Explicit-member construction (threshold splits, Algorithm 2.C)
    # ------------------------------------------------------------------
    def build_from_members(
        self,
        members: list[tuple[SubsequenceId, np.ndarray]],
        rng: np.random.Generator,
        member_rows: np.ndarray | None = None,
    ) -> list[SimilarityGroup]:
        """Group an explicit ``(id, values)`` list with the same engine.

        ``member_rows`` optionally carries the members' store rows so the
        produced groups stay store-backed.
        """
        if not members:
            raise IndexConstructionError("cannot group an empty member list")
        matrix = np.stack([values for _, values in members]).astype(np.float64)
        sq_norms = np.einsum("ij,ij->i", matrix, matrix)
        order = rng.permutation(len(members))
        reps = RepresentativeSet(self.length)
        membership: list[list[int]] = []
        threshold = self.threshold
        for position in order.tolist():
            values = matrix[position]
            nearest, _ = reps.nearest_sequential(
                values, float(sq_norms[position]), threshold
            )
            if nearest < 0:
                reps.new_group(values)
                membership.append([position])
            else:
                reps.admit(nearest, values)
                membership[nearest].append(position)
        groups: list[SimilarityGroup] = []
        for g, positions in enumerate(membership):
            index_array = np.asarray(positions, dtype=np.int64)
            rows = None if member_rows is None else member_rows[index_array]
            groups.append(
                SimilarityGroup.from_members(
                    self.length,
                    [members[i][0] for i in positions],
                    reps.member_sum(g),
                    matrix[index_array],
                    self.envelope_radius,
                    member_rows=rows,
                )
            )
        return groups


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def build_groups_for_length(
    dataset: Dataset,
    length: int,
    st: float,
    rng: np.random.Generator,
    start_step: int = 1,
    envelope_radius: int | None = None,
    assign_mode: str = "sequential",
) -> list[SimilarityGroup]:
    """Run Algorithm 1 for one subsequence length via the engine.

    Builds a throwaway columnar store over ``dataset``; callers indexing
    several lengths should construct one
    :class:`~repro.data.store.SubsequenceStore` and drive
    :class:`GroupBuilder` directly (as :meth:`OnexIndex.build` does).
    """
    _check_threshold(st)
    store = SubsequenceStore(dataset, start_step=start_step)
    view = store.view(length)
    if view.n_rows == 0:
        raise IndexConstructionError(
            f"dataset {dataset.name!r} has no subsequences of length {length}"
        )
    builder = GroupBuilder(
        length, st, assign_mode=assign_mode, envelope_radius=envelope_radius
    )
    return builder.build(view, rng)


def regroup_members(
    members: list[tuple[SubsequenceId, np.ndarray]],
    length: int,
    st: float,
    rng: np.random.Generator,
    envelope_radius: int | None = None,
    member_rows: np.ndarray | None = None,
) -> list[SimilarityGroup]:
    """Re-cluster an explicit member list with a (smaller) threshold.

    Used by Algorithm 2.C's *split* case (``ST' < ST``): each existing
    group's members are re-grouped with the same methodology as the
    original construction (§5.2 case 2).
    """
    if not members:
        raise IndexConstructionError("cannot regroup an empty member list")
    builder = GroupBuilder(length, st, envelope_radius=envelope_radius)
    return builder.build_from_members(members, rng, member_rows=member_rows)


# ----------------------------------------------------------------------
# Reference implementation (executable specification)
# ----------------------------------------------------------------------
class _ReferenceRepMatrix:
    """The seed implementation's growable representative matrix."""

    def __init__(self, length: int, capacity: int = 16) -> None:
        self._matrix = np.empty((capacity, length))
        self._count = 0

    @property
    def count(self) -> int:
        return self._count

    def view(self) -> np.ndarray:
        return self._matrix[: self._count]

    def append(self, representative: np.ndarray) -> None:
        if self._count == self._matrix.shape[0]:
            grown = np.empty((self._matrix.shape[0] * 2, self._matrix.shape[1]))
            grown[: self._count] = self._matrix[: self._count]
            self._matrix = grown
        self._matrix[self._count] = representative
        self._count += 1

    def update(self, index: int, representative: np.ndarray) -> None:
        self._matrix[index] = representative


def reference_build_groups_for_length(
    dataset: Dataset,
    length: int,
    st: float,
    rng: np.random.Generator,
    start_step: int = 1,
    envelope_radius: int | None = None,
) -> list[SimilarityGroup]:
    """The original entry-at-a-time Algorithm 1 loop, kept verbatim.

    Every subsequence is materialized as a ``(SubsequenceId, ndarray)``
    tuple and compared against the full unpruned representative matrix
    each step. The engine's sequential mode is property-tested
    bit-identical to this function, and
    ``benchmarks/bench_build_engine.py`` uses it as the speedup
    baseline.
    """
    _check_threshold(st)
    if envelope_radius is None:
        envelope_radius = max(1, length // 10)

    entries = list(dataset.subsequences(length, start_step=start_step))
    if not entries:
        raise IndexConstructionError(
            f"dataset {dataset.name!r} has no subsequences of length {length}"
        )
    entries = [entries[i] for i in rng.permutation(len(entries))]

    threshold = math.sqrt(length) * st / 2.0
    groups: list[SimilarityGroup] = []
    reps = _ReferenceRepMatrix(length)
    membership: list[list[int]] = []  # per group: indices into `entries`

    for entry_index, (ssid, values) in enumerate(entries):
        if reps.count == 0:
            groups.append(SimilarityGroup(length, ssid, values))
            reps.append(values)
            membership.append([entry_index])
            continue
        diff = reps.view() - values
        distances = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        nearest = int(np.argmin(distances))
        if distances[nearest] <= threshold:
            groups[nearest].add(ssid, values)
            membership[nearest].append(entry_index)
            reps.update(nearest, groups[nearest].representative)
        else:
            groups.append(SimilarityGroup(length, ssid, values))
            reps.append(values)
            membership.append([entry_index])

    for group, member_rows in zip(groups, membership, strict=True):
        group.finalize(
            np.stack([entries[row][1] for row in member_rows]),
            envelope_radius=envelope_radius,
        )
    return groups
