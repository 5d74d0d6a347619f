"""Process-parallel sharded construction: one worker shard per length.

ONEX construction (Algorithm 1 per indexed length) is embarrassingly
parallel across the length grid: each length's grouping reads only that
length's :class:`~repro.data.store.LengthView` and writes only its own
groups. This module partitions the grid across a
``ProcessPoolExecutor`` while keeping three hard guarantees:

* **No window pickling.** The parent dumps the store's flat value array
  to a temporary ``.npy`` file once; every worker reattaches through
  ``np.load(..., mmap_mode="r")`` and rebuilds an equivalent
  :class:`~repro.data.store.SubsequenceStore` with
  :meth:`~repro.data.store.SubsequenceStore.from_flat`, so the window
  matrices are OS-page-shared views of one file. Task payloads carry
  only a visit-order index array.
* **No result pickling** (the default ``shm`` transport, ISSUE 7).
  ``bench_parallel_build.py`` showed the sharded build *losing* to the
  sequential one because every shard's member-row arrays, sorted EDs
  and representative sums came back through the executor's pickle pipe.
  Workers now pack those arrays into one
  :class:`multiprocessing.shared_memory.SharedMemory` block per shard
  and return a scalar-only :class:`ShardDescriptor`; the parent
  attaches, copies the arrays out, unlinks the block, and rebuilds the
  groups with :meth:`~repro.core.group.SimilarityGroup.restore`. The
  payload ships each group's exact running member **sum** (not its
  representative), so the parent's ``sum / count`` division reproduces
  the worker's representative bit for bit. ``result_transport="pickle"``
  keeps the legacy path for comparison benchmarks and round-trip tests.
* **Bit-identical output.** The parent pre-draws every length's
  Fisher-Yates permutation from the build rng *in grid order* — exactly
  the draws the sequential loop would make — and ships each permutation
  to its shard. Given the same visit order the
  :class:`~repro.core.grouping.GroupBuilder` is deterministic (in both
  ``sequential`` and ``minibatch`` assign modes), so the produced groups
  match the ``n_jobs=1`` build bit for bit regardless of job count,
  shard completion order, or result transport.

Workers also inherit the parent's kernel-backend choice: the pool
initializer re-selects the resolved backend by name in each worker, so
``onex build --backend numba --jobs N`` runs the fused JIT assignment
kernel inside every shard.
"""

from __future__ import annotations

import os
import pickle
import shutil
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

from repro.core.group import SimilarityGroup
from repro.core.grouping import GroupBuilder
from repro.data.store import SubsequenceStore
from repro.exceptions import IndexConstructionError

#: Supported shard result transports (see the module docstring).
RESULT_TRANSPORTS = ("shm", "pickle")


@dataclass
class ShardResult:
    """One length shard's finalized groups plus its build accounting.

    ``seconds`` is the worker's total shard wall time (view + assign +
    finalize), the quantity the build profile reports. The remaining
    timings split out the result-transport tax the shm transport was
    built to kill: ``pack_seconds`` is worker-side serialization (shm
    packing, or ``pickle.dumps`` when profiled on the legacy transport),
    ``unpack_seconds`` is parent-side reconstruction, and
    ``payload_bytes`` the serialized result size.
    """

    length: int
    groups: list[SimilarityGroup]
    n_rows: int
    seconds: float
    transport: str = "pickle"
    assign_backend: str = "numpy"
    assign_seconds: float = 0.0
    finalize_seconds: float = 0.0
    pack_seconds: float = 0.0
    unpack_seconds: float = 0.0
    payload_bytes: int = 0


@dataclass(frozen=True)
class ShardDescriptor:
    """Scalar-only handle to one shard's result in shared memory.

    This is the *entire* pickled payload of an shm-transport shard: the
    member rows, sorted EDs, running sums and counts all live in the
    named shared-memory block, laid out as described by
    :func:`_pack_shard`. ``tests/test_parallel_build.py`` asserts no
    field ever carries an ndarray.
    """

    length: int
    n_rows: int
    n_groups: int
    n_members: int
    envelope_radius: int
    shm_name: str
    seconds: float
    assign_backend: str
    assign_seconds: float
    finalize_seconds: float
    pack_seconds: float
    payload_bytes: int


# ----------------------------------------------------------------------
# Shared-memory result protocol
# ----------------------------------------------------------------------
def _untrack_shm(shm: shared_memory.SharedMemory) -> None:
    """Make the parent, not this process, own the block's lifetime.

    Python's ``resource_tracker`` registers every created segment for
    unlink-at-exit; the shm result protocol hands ownership to the
    parent (which unlinks after copying), so the worker must unregister
    or the tracker double-unlinks and warns at pool shutdown.
    ``track=False`` exists only from 3.13; this is the documented
    workaround for 3.11/3.12.
    """
    try:  # pragma: no cover - depends on platform tracker details
        from multiprocessing import resource_tracker

        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:  # noqa: BLE001 - best-effort, tracker is advisory
        pass


def _shard_layout(
    n_groups: int, n_members: int, length: int
) -> tuple[list[tuple[int, np.dtype, tuple[int, ...]]], int]:
    """The (offset, dtype, shape) of each array in a shard block."""
    layout: list[tuple[int, np.dtype, tuple[int, ...]]] = []
    offset = 0
    for dtype, shape in (
        (np.dtype(np.int64), (n_groups + 1,)),  # member-row offsets
        (np.dtype(np.int64), (n_groups,)),  # member counts
        (np.dtype(np.float64), (n_groups, length)),  # running sums
        (np.dtype(np.float64), (n_members,)),  # sorted EDs, concatenated
        (np.dtype(np.int64), (n_members,)),  # member rows, concatenated
    ):
        layout.append((offset, dtype, shape))
        offset += dtype.itemsize * int(np.prod(shape))
    return layout, offset


def _pack_shard(
    groups: list[SimilarityGroup], length: int
) -> tuple[str, int]:
    """Write a shard's group arrays into a fresh shared-memory block.

    Returns ``(shm_name, payload_bytes)``. Layout per
    :func:`_shard_layout`; every group ships its exact running sum so
    the parent's ``sum / count`` reproduces the representative bit for
    bit. Member rows and EDs are concatenated in the groups' finalized
    ascending-ED order, which :func:`_restore_shard` preserves.
    """
    counts = np.array([len(g.member_ids) for g in groups], dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(counts)])
    n_members = int(offsets[-1])
    layout, total = _shard_layout(len(groups), n_members, length)
    shm = shared_memory.SharedMemory(create=True, size=total)
    try:
        _untrack_shm(shm)  # ONEX701: parent unlinks on the success path
        _fill_shard_block(shm, layout, groups, offsets, counts)
    except BaseException:
        # Nobody will ever receive this block's name — without the
        # unlink it would squat in /dev/shm until reboot.
        shm.unlink()
        raise
    finally:
        shm.close()
    return shm.name, total


def _fill_shard_block(
    shm: shared_memory.SharedMemory,
    layout: list[tuple[int, np.dtype, tuple[int, ...]]],
    groups: list[SimilarityGroup],
    offsets: np.ndarray,
    counts: np.ndarray,
) -> None:
    views = [
        np.ndarray(shape, dtype=dtype, buffer=shm.buf, offset=offset)
        for offset, dtype, shape in layout
    ]
    off_view, count_view, sum_view, ed_view, row_view = views
    off_view[:] = offsets
    count_view[:] = counts
    for g, group in enumerate(groups):
        sum_view[g] = group.member_sum
        ed_view[offsets[g] : offsets[g + 1]] = group.ed_to_rep
        if group.member_rows is None:  # pragma: no cover - defensive
            raise IndexConstructionError(
                "shm shard transport needs store-backed groups "
                "(member_rows is None)"
            )
        row_view[offsets[g] : offsets[g + 1]] = group.member_rows
    del views, off_view, count_view, sum_view, ed_view, row_view


def _discard_descriptor(descriptor: ShardDescriptor) -> None:
    """Unlink a shard block that will never be restored.

    Used on the build's failure path: a shard that completed before a
    sibling raised has already transferred ownership of its block to
    the parent, so the parent must still unlink it or the segment
    outlives the build.
    """
    try:
        shm = shared_memory.SharedMemory(name=descriptor.shm_name)
    except (FileNotFoundError, OSError):  # already restored or unlinked
        return
    try:
        shm.unlink()
    finally:
        shm.close()


def _restore_shard(
    descriptor: ShardDescriptor, store: SubsequenceStore
) -> ShardResult:
    """Rebuild a :class:`ShardResult` from its shared-memory block.

    Attaches, copies every array out, and unlinks the block (the parent
    owns its lifetime — see :func:`_untrack_shm`). Member ids are
    re-materialized from the parent's store rows, which address the
    same series/starts columns the worker's store held.
    """
    started = time.perf_counter()
    layout, _ = _shard_layout(
        descriptor.n_groups, descriptor.n_members, descriptor.length
    )
    shm = shared_memory.SharedMemory(name=descriptor.shm_name)
    try:
        offsets, counts, sums, eds, rows = (
            np.ndarray(
                shape, dtype=dtype, buffer=shm.buf, offset=offset
            ).copy()
            for offset, dtype, shape in layout
        )
    finally:
        shm.close()
        shm.unlink()
    view = store.view(descriptor.length)
    groups: list[SimilarityGroup] = []
    for g in range(descriptor.n_groups):
        member_rows = rows[offsets[g] : offsets[g + 1]]
        groups.append(
            SimilarityGroup.restore(
                descriptor.length,
                view.ids(member_rows),
                eds[offsets[g] : offsets[g + 1]],
                sums[g] / counts[g],
                descriptor.envelope_radius,
                member_rows=member_rows,
                member_sum=sums[g],
            )
        )
    return ShardResult(
        length=descriptor.length,
        groups=groups,
        n_rows=descriptor.n_rows,
        seconds=descriptor.seconds,
        transport="shm",
        assign_backend=descriptor.assign_backend,
        assign_seconds=descriptor.assign_seconds,
        finalize_seconds=descriptor.finalize_seconds,
        pack_seconds=descriptor.pack_seconds,
        unpack_seconds=time.perf_counter() - started,
        payload_bytes=descriptor.payload_bytes,
    )


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
# One store per worker process, attached once by the pool initializer and
# reused by every shard the worker runs.
_WORKER_STORE: SubsequenceStore | None = None


def _init_worker(
    flat_path: str,
    series_lengths: np.ndarray,
    start_step: int,
    backend: str | None = None,
) -> None:
    global _WORKER_STORE
    values = np.load(flat_path, mmap_mode="r")
    _WORKER_STORE = SubsequenceStore.from_flat(
        values, series_lengths, start_step=start_step
    )
    if backend is not None:
        # Re-select the parent's resolved backend by name; in an
        # environment where it is unavailable this falls back to numpy
        # with a warning, same as everywhere else.
        from repro.distances.backend import set_backend

        set_backend(backend)


def _build_shard(
    length: int,
    order: np.ndarray,
    st: float,
    assign_mode: str,
    envelope_radius: int | None,
    result_transport: str = "pickle",
    profile_transport: bool = False,
) -> ShardResult | ShardDescriptor:
    if _WORKER_STORE is None:  # pragma: no cover - initializer always ran
        raise IndexConstructionError("worker store was never initialized")
    started = time.perf_counter()
    view = _WORKER_STORE.view(length)
    builder = GroupBuilder(
        length, st, assign_mode=assign_mode, envelope_radius=envelope_radius
    )
    groups = builder.build(view, order=order)
    seconds = time.perf_counter() - started
    if result_transport == "shm":
        pack_started = time.perf_counter()
        shm_name, payload_bytes = _pack_shard(groups, length)
        return ShardDescriptor(
            length=length,
            n_rows=view.n_rows,
            n_groups=len(groups),
            n_members=sum(len(g.member_ids) for g in groups),
            envelope_radius=builder.envelope_radius,
            shm_name=shm_name,
            seconds=seconds,
            assign_backend=builder.last_assign_backend,
            assign_seconds=builder.last_assign_seconds,
            finalize_seconds=builder.last_finalize_seconds,
            pack_seconds=time.perf_counter() - pack_started,
            payload_bytes=payload_bytes,
        )
    pack_seconds = 0.0
    payload_bytes = 0
    if profile_transport:
        # Measure the pickle tax explicitly (the executor re-pickles the
        # result on the way out; this doubles the cost, so it is opt-in
        # for the overhead benchmark only).
        pack_started = time.perf_counter()
        payload_bytes = len(
            pickle.dumps(groups, protocol=pickle.HIGHEST_PROTOCOL)
        )
        pack_seconds = time.perf_counter() - pack_started
    return ShardResult(
        length=length,
        groups=groups,
        n_rows=view.n_rows,
        seconds=seconds,
        transport="pickle",
        assign_backend=builder.last_assign_backend,
        assign_seconds=builder.last_assign_seconds,
        finalize_seconds=builder.last_finalize_seconds,
        pack_seconds=pack_seconds,
        payload_bytes=payload_bytes,
    )


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
def build_shards_parallel(
    store: SubsequenceStore,
    grid: list[int],
    orders: dict[int, np.ndarray],
    st: float,
    assign_mode: str = "sequential",
    envelope_radius: int | None = None,
    n_jobs: int = 2,
    progress: "callable | None" = None,
    backend: str | None = None,
    result_transport: str = "shm",
    profile_transport: bool = False,
) -> dict[int, ShardResult]:
    """Build every length's groups across a process pool.

    ``orders`` maps each length to its pre-drawn visit permutation (see
    the module docstring for why the parent draws them). ``progress`` is
    invoked as shards *complete* (completion order is nondeterministic;
    the returned mapping is assembled per length and is not).
    ``backend`` names the kernel backend workers should select;
    ``result_transport`` picks how shard results come home (``"shm"``
    descriptors by default, ``"pickle"`` for the legacy path);
    ``profile_transport`` additionally measures the pickle tax on the
    legacy transport.
    """
    if not grid:
        raise IndexConstructionError("cannot build an empty length grid")
    if result_transport not in RESULT_TRANSPORTS:
        raise IndexConstructionError(
            f"unknown result_transport {result_transport!r}; "
            f"use one of {RESULT_TRANSPORTS}"
        )
    shard_dir = tempfile.mkdtemp(prefix="onex-shards-")
    flat_path = os.path.join(shard_dir, "flat_values.npy")
    results: dict[int, ShardResult] = {}
    try:
        # Scratch hand-off to the worker pool, not index state: the
        # array lives in a private temp dir and is deleted post-build.
        np.save(  # onex: ignore[ONEX401]
            flat_path, np.ascontiguousarray(store.flat_values)
        )
        max_workers = max(1, min(int(n_jobs), len(grid)))
        futures: dict = {}
        try:
            with ProcessPoolExecutor(
                max_workers=max_workers,
                initializer=_init_worker,
                initargs=(
                    flat_path,
                    store.series_lengths,
                    store.start_step,
                    backend,
                ),
            ) as pool:
                futures = {
                    pool.submit(
                        _build_shard,
                        length,
                        orders[length],
                        st,
                        assign_mode,
                        envelope_radius,
                        result_transport,
                        profile_transport,
                    ): length
                    for length in grid
                }
                for future in as_completed(futures):
                    outcome = future.result()
                    if isinstance(outcome, ShardDescriptor):
                        shard = _restore_shard(outcome, store)
                    else:
                        shard = outcome
                    results[shard.length] = shard
                    if progress is not None:
                        progress(shard.length, shard.n_rows, shard.seconds)
        except BaseException:
            # The pool has shut down (the `with` exit waits), so every
            # future is settled. Shards that completed before the
            # failure handed their shm blocks to this process; reap
            # them or they leak (ONEX701's runtime dual).
            for future in futures:
                if not future.done() or future.cancelled():
                    continue  # pragma: no cover - settled post-shutdown
                if future.exception() is not None:
                    continue
                outcome = future.result()
                if (
                    isinstance(outcome, ShardDescriptor)
                    and outcome.length not in results
                ):
                    _discard_descriptor(outcome)
            raise
    finally:
        shutil.rmtree(shard_dir, ignore_errors=True)
    return results
