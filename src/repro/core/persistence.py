"""Saving and loading ONEX indexes.

Two on-disk formats coexist; both hold flat NumPy arrays plus a JSON
manifest — no pickling, so saved indexes are portable and safe to load.

**Format v3 (default): a memory-mappable directory.** ``manifest.json``
sits next to one raw ``.npy`` file per array (``series_values``,
``series_offsets``, and per length ``L<u>_reps`` / ``L<u>_member_rows``
/ ``L<u>_member_eds`` / ``L<u>_group_offsets``). The directory is
written atomically: arrays land in a temp directory beside the target,
which is then renamed into place, so readers never observe a
half-written index. Loading opens every array with ``mmap_mode="r"``
and registers one *lazy loader* per length with the R-Space: ``load``
itself is O(manifest), and a bucket's groups (plus the mmap pages that
back them) only materialize when the first query touches that length.
The manifest also persists each length's ``(ST_half, ST_final)`` so the
SP-Space restores without re-running the Kruskal merge sweep.

**Format v2 (legacy): a single ``.npz`` archive** with the same arrays
plus a ``manifest`` entry, selected by saving to a path ending in
``.npz``. The archive is written to a temp file and ``os.replace``'d
into place (crash-safe). Version-1 archives (explicit
``member_series`` / ``member_starts`` arrays) load transparently.

Members are stored **columnar** in every version ≥ 2: one row index
into the per-length store view instead of materialized ``(series,
start)`` pairs; loading rebuilds store-backed groups with a vectorized
gather. Saves fall back to the id encoding (``member_encoding:
"ids"``) for the rare index whose member ids do not address enumerable
store rows.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import tempfile

import numpy as np

from repro.core.group import SimilarityGroup
from repro.core.onex import OnexIndex
from repro.core.rspace import LengthBucket, RSpace
from repro.core.spspace import SPSpace
from repro.data.dataset import Dataset
from repro.data.store import SubsequenceStore
from repro.data.timeseries import SubsequenceId, TimeSeries
from repro.exceptions import DataError, PersistenceError

_FORMAT_VERSION = 3
_NPZ_FORMAT_VERSION = 2
_READABLE_VERSIONS = (1, 2, 3)
_MANIFEST_NAME = "manifest.json"


def _window_to_manifest(window: int | float | None) -> dict:
    if window is None:
        return {"kind": "none"}
    if isinstance(window, float):
        return {"kind": "fraction", "value": window}
    return {"kind": "radius", "value": int(window)}


def _window_from_manifest(spec: dict) -> int | float | None:
    kind = spec.get("kind")
    if kind == "none":
        return None
    if kind == "fraction":
        return float(spec["value"])
    if kind == "radius":
        return int(spec["value"])
    raise PersistenceError(f"unknown window spec {spec!r}")


def _bucket_member_rows(
    bucket: LengthBucket, store: SubsequenceStore
) -> np.ndarray | None:
    """Concatenated per-group store rows, or ``None`` if unaddressable."""
    view = store.view(bucket.length)
    per_group: list[np.ndarray] = []
    for group in bucket.groups:
        if group.member_rows is not None:
            per_group.append(np.asarray(group.member_rows, dtype=np.int64))
            continue
        try:
            per_group.append(
                view.rows_of(
                    np.array([ssid.series for ssid in group.member_ids]),
                    np.array([ssid.start for ssid in group.member_ids]),
                )
            )
        except DataError:
            return None
    return np.concatenate(per_group) if per_group else np.empty(0, dtype=np.int64)


# ----------------------------------------------------------------------
# Saving
# ----------------------------------------------------------------------
def _collect_index(
    index: OnexIndex, version: int
) -> tuple[dict, dict[str, np.ndarray]]:
    """Flatten an index into ``(manifest, named arrays)``."""
    arrays: dict[str, np.ndarray] = {}

    series_values = np.concatenate([s.values for s in index.dataset])
    series_offsets = np.cumsum([0] + [len(s) for s in index.dataset])
    arrays["series_values"] = series_values
    arrays["series_offsets"] = series_offsets.astype(np.int64)

    store = SubsequenceStore(index.dataset, start_step=index.start_step)
    lengths_meta = []
    for bucket in index.rspace:
        prefix = f"L{bucket.length}_"
        arrays[prefix + "reps"] = bucket.rep_matrix
        member_eds: list[np.ndarray] = []
        group_offsets = [0]
        envelope_radius = bucket.groups[0].envelope_radius
        total = 0
        for group in bucket.groups:
            member_eds.append(group.ed_to_rep)
            total += group.count
            group_offsets.append(total)
        member_rows = _bucket_member_rows(bucket, store)
        if member_rows is not None:
            encoding = "rows"
            arrays[prefix + "member_rows"] = member_rows
        else:
            # Fallback: ids that do not address enumerable store rows
            # (e.g. a foreign start_step) are written explicitly.
            encoding = "ids"
            arrays[prefix + "member_series"] = np.asarray(
                [s.series for g in bucket.groups for s in g.member_ids],
                dtype=np.int64,
            )
            arrays[prefix + "member_starts"] = np.asarray(
                [s.start for g in bucket.groups for s in g.member_ids],
                dtype=np.int64,
            )
        arrays[prefix + "member_eds"] = np.concatenate(member_eds)
        arrays[prefix + "group_offsets"] = np.asarray(group_offsets, dtype=np.int64)
        st_half, st_final = index.spspace.local(bucket.length)
        lengths_meta.append(
            {
                "length": bucket.length,
                "envelope_radius": envelope_radius,
                "member_encoding": encoding,
                "st_half": st_half,
                "st_final": st_final,
                # Shard-map weight: the cluster tier partitions the
                # length grid so every shard carries a comparable share
                # of members (see repro.serve.cluster.shardmap).
                "n_subsequences": bucket.n_subsequences,
            }
        )

    manifest = {
        "format_version": version,
        "dataset_name": index.dataset.name,
        "st": index.st,
        "window": _window_to_manifest(index.window),
        "start_step": index.start_step,
        "value_range": list(index.value_range),
        "build_seconds": index.build_seconds,
        "group_search_width": index.processor.group_search_width,
        "assign_mode": index.assign_mode,
        "build_profile": index.build_profile,
        "build_backend": index.build_backend,
        "series_names": [s.name for s in index.dataset],
        "series_labels": [s.label for s in index.dataset],
        "lengths": lengths_meta,
        # The shard map is a pure function of (this spec, the per-length
        # weights above, the shard count), so persisting the spec pins
        # the partition every router computes from this manifest.
        "sharding": {
            "strategy": "contiguous-balanced",
            "version": 1,
        },
    }
    return manifest, arrays


def save_index(
    index: OnexIndex, path: str | os.PathLike, version: int | None = None
) -> None:
    """Write ``index`` to ``path``.

    ``version=None`` infers the format from the path: an ``.npz``
    suffix selects the legacy single-archive v2; any other path writes
    the memory-mappable v3 directory. Both writes go through a temp
    file/directory plus rename, so a reader never observes a partially
    written index; a hard kill inside the v3 two-rename swap can leave
    the *previous* index at ``<path>.old-<pid>`` (recoverable, swept by
    the next save) rather than at ``path``.
    """
    path = os.fspath(path)
    if version is None:
        version = _NPZ_FORMAT_VERSION if path.endswith(".npz") else _FORMAT_VERSION
    if version == _NPZ_FORMAT_VERSION:
        _save_npz(index, path)
    elif version == _FORMAT_VERSION:
        _save_v3(index, path)
    else:
        raise PersistenceError(
            f"cannot save index format version {version!r} "
            f"(writable: {(_NPZ_FORMAT_VERSION, _FORMAT_VERSION)})"
        )


def _save_npz(index: OnexIndex, path: str) -> None:
    """Atomic v2 save: temp ``.npz`` in the target directory + replace."""
    final = path if path.endswith(".npz") else path + ".npz"
    manifest, arrays = _collect_index(index, _NPZ_FORMAT_VERSION)
    arrays["manifest"] = np.frombuffer(
        json.dumps(manifest).encode("utf-8"), dtype=np.uint8
    )
    directory = os.path.dirname(os.path.abspath(final)) or "."
    # The suffix must keep the ".npz" extension: np.savez would append
    # one otherwise and the rename source would not exist.
    fd, tmp = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(final) + ".", suffix=".tmp.npz"
    )
    os.close(fd)
    try:
        np.savez_compressed(tmp, **arrays)
        os.chmod(tmp, 0o666 & ~_current_umask())  # mkstemp creates 0600
        os.replace(tmp, final)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _save_v3(index: OnexIndex, path: str) -> None:
    """Atomic v3 save: temp directory of ``.npy`` files + rename."""
    manifest, arrays = _collect_index(index, _FORMAT_VERSION)
    target = os.path.abspath(os.fspath(path))
    parent = os.path.dirname(target) or "."
    os.makedirs(parent, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=parent, prefix=".onex-save-")
    try:
        os.chmod(tmp, 0o777 & ~_current_umask())  # mkdtemp creates 0700
        for name, array in arrays.items():
            np.save(os.path.join(tmp, name + ".npy"), np.ascontiguousarray(array))
        with open(
            os.path.join(tmp, _MANIFEST_NAME), "w", encoding="utf-8"
        ) as handle:
            json.dump(manifest, handle, indent=1)
        _replace_tree(tmp, target)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise


def _replace_tree(tmp: str, target: str) -> None:
    """Rename ``tmp`` over ``target``, displacing whatever was there.

    Directories cannot be exchanged in one portable rename, so the swap
    is two renames: a reader never observes a partially written index,
    but a hard kill in the narrow window between them leaves the
    previous index recoverable at ``<target>.old-<pid>`` instead of at
    ``target`` (the next save sweeps leftovers whose owning process is
    gone — a live concurrent writer's in-flight backup is never
    touched). A concurrent writer re-creating ``target`` between the
    two renames is retried — simultaneous saves converge to
    last-writer-wins instead of erroring out.
    """
    _sweep_dead_backups(target)
    last_error: OSError | None = None
    for _ in range(8):
        backup = None
        if os.path.lexists(target):
            backup = target + f".old-{os.getpid()}"
            if os.path.lexists(backup):  # our own earlier attempt
                _remove_tree(backup)
            try:
                os.rename(target, backup)
            except FileNotFoundError:
                backup = None  # another writer moved it first
        try:
            os.rename(tmp, target)
        except OSError as exc:
            # A concurrent writer installed its index at `target` in the
            # window (non-empty directories cannot be replaced). Restore
            # our displaced copy if the slot is free, then try again.
            last_error = exc
            if backup is not None:
                with contextlib.suppress(OSError):
                    os.rename(backup, target)
            continue
        if backup is not None:
            _remove_tree(backup)
        return
    raise PersistenceError(
        f"could not install index at {target!r} after repeated attempts "
        f"(concurrent writers?): {last_error}"
    )


def _sweep_dead_backups(target: str) -> None:
    """Remove ``<target>.old-<pid>`` leftovers whose owner is gone.

    Backups belonging to a *live* process are another writer's
    in-flight rollback copy and must not be touched.
    """
    parent = os.path.dirname(target) or "."
    marker = os.path.basename(target) + ".old-"
    try:
        names = sorted(os.listdir(parent))
    except OSError:
        return
    for name in names:
        if not name.startswith(marker):
            continue
        suffix = name[len(marker) :]
        if not suffix.isdigit():
            continue
        pid = int(suffix)
        if pid == os.getpid() or not _pid_alive(pid):
            _remove_tree(os.path.join(parent, name))


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except (PermissionError, OSError):
        return True
    return True


def _current_umask() -> int:
    """The process umask (there is no read-only accessor in os)."""
    mask = os.umask(0o022)
    os.umask(mask)
    return mask


def _remove_tree(path: str) -> None:
    if os.path.isdir(path) and not os.path.islink(path):
        shutil.rmtree(path, ignore_errors=True)
    else:
        os.remove(path)


# ----------------------------------------------------------------------
# Loading
# ----------------------------------------------------------------------
def _restore_groups(
    length: int,
    envelope_radius: int,
    reps: np.ndarray,
    member_eds: np.ndarray,
    group_offsets: np.ndarray,
    rows: np.ndarray | None,
    member_series: np.ndarray,
    member_starts: np.ndarray,
) -> list[SimilarityGroup]:
    """Rebuild finalized groups from the persisted per-length arrays."""
    groups = []
    for g in range(len(group_offsets) - 1):
        start, stop = int(group_offsets[g]), int(group_offsets[g + 1])
        ids = [
            SubsequenceId(int(member_series[i]), int(member_starts[i]), length)
            for i in range(start, stop)
        ]
        groups.append(
            SimilarityGroup.restore(
                length=length,
                member_ids=ids,
                ed_to_rep=member_eds[start:stop],
                representative=reps[g],
                envelope_radius=envelope_radius,
                member_rows=None if rows is None else rows[start:stop],
            )
        )
    return groups


def _build_index(
    manifest: dict,
    dataset: Dataset,
    rspace: RSpace,
    spspace: SPSpace,
    start_step: int,
) -> OnexIndex:
    width = manifest.get("group_search_width")
    return OnexIndex(
        dataset=dataset,
        rspace=rspace,
        spspace=spspace,
        st=float(manifest["st"]),
        window=_window_from_manifest(manifest["window"]),
        start_step=start_step,
        value_range=tuple(manifest["value_range"]),
        build_seconds=float(manifest.get("build_seconds", 0.0)),
        group_search_width=None if width is None else int(width),
        assign_mode=str(manifest.get("assign_mode", "sequential")),
        build_profile=manifest.get("build_profile") or [],
        # Absent in pre-build-kernel saves: the engine was numpy-only.
        build_backend=str(manifest.get("build_backend", "numpy")),
    )


def _dataset_from_arrays(
    manifest: dict, values: np.ndarray, offsets: np.ndarray
) -> Dataset:
    names = manifest["series_names"]
    labels = manifest["series_labels"]
    series = [
        TimeSeries(
            values[offsets[i] : offsets[i + 1]], name=names[i], label=labels[i]
        )
        for i in range(len(offsets) - 1)
    ]
    return Dataset(series, name=manifest["dataset_name"])


def load_index(path: str | os.PathLike) -> OnexIndex:
    """Load an index written by :func:`save_index` (any readable version).

    v3 directories open lazily (see the module docstring); v1/v2
    ``.npz`` archives decompress and hydrate eagerly as before.
    """
    path = os.fspath(path)
    if os.path.isdir(path):
        return _load_v3(path)
    if not os.path.exists(path) and os.path.exists(path + ".npz"):
        path = path + ".npz"
    return _load_npz(path)


def _load_member_columns(
    archive, entry: dict, length: int, store: SubsequenceStore
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """Resolve ``(member_rows, member_series, member_starts)`` per length.

    v2+ ``rows`` encoding reads the row column and derives ids from the
    store's id columns; v1 (and the ``ids`` fallback) reads explicit id
    arrays and re-attaches rows through the vectorized inverse lookup
    where possible.
    """
    prefix = f"L{length}_"
    view = store.view(length)
    if entry.get("member_encoding", "ids") == "rows":
        rows = archive[prefix + "member_rows"]
        return rows, view.series[rows], view.starts[rows]
    member_series = archive[prefix + "member_series"]
    member_starts = archive[prefix + "member_starts"]
    try:
        rows = view.rows_of(member_series, member_starts)
    except DataError:
        rows = None
    return rows, member_series, member_starts


def _load_npz(path: str) -> OnexIndex:
    try:
        archive = np.load(path)
    except (OSError, ValueError) as exc:
        raise PersistenceError(f"cannot read index archive {path!r}: {exc}") from exc
    try:
        manifest = json.loads(bytes(archive["manifest"]).decode("utf-8"))
    except KeyError as exc:
        raise PersistenceError(f"{path!r} is not an ONEX index archive") from exc
    version = manifest.get("format_version")
    if version not in (1, 2):
        raise PersistenceError(
            f"unsupported index format version {version!r} "
            f"(readable: {_READABLE_VERSIONS}; version 3 is a directory)"
        )

    values = archive["series_values"]
    offsets = archive["series_offsets"]
    dataset = _dataset_from_arrays(manifest, values, offsets)
    start_step = int(manifest["start_step"])
    store = SubsequenceStore(dataset, start_step=start_step)

    buckets: dict[int, LengthBucket] = {}
    for entry in manifest["lengths"]:
        length = int(entry["length"])
        prefix = f"L{length}_"
        rows, member_series, member_starts = _load_member_columns(
            archive, entry, length, store
        )
        groups = _restore_groups(
            length,
            int(entry["envelope_radius"]),
            archive[prefix + "reps"],
            archive[prefix + "member_eds"],
            archive[prefix + "group_offsets"],
            rows,
            member_series,
            member_starts,
        )
        buckets[length] = LengthBucket(
            length=length,
            groups=groups,
            store_view=None if rows is None else store.view(length),
        )

    rspace = RSpace(buckets)
    spspace = SPSpace(rspace, float(manifest["st"]))
    return _build_index(manifest, dataset, rspace, spspace, start_step)


def _v3_required_files(manifest: dict) -> list[str]:
    required = ["series_values", "series_offsets"]
    for entry in manifest.get("lengths", []):
        prefix = f"L{int(entry['length'])}_"
        required += [prefix + "reps", prefix + "member_eds", prefix + "group_offsets"]
        if entry.get("member_encoding", "ids") == "rows":
            required.append(prefix + "member_rows")
        else:
            required += [prefix + "member_series", prefix + "member_starts"]
    return required


def read_manifest(path: str | os.PathLike) -> dict:
    """Read and sanity-check a v3 index directory's ``manifest.json``.

    The blessed read path for consumers that need the index *metadata*
    without hydrating any arrays — the cluster router computes its shard
    map and the §5.3 length order from exactly this dict.
    """
    path = os.fspath(path)
    manifest_path = os.path.join(path, _MANIFEST_NAME)
    try:
        with open(manifest_path, encoding="utf-8") as handle:
            manifest = json.load(handle)
    except FileNotFoundError as exc:
        raise PersistenceError(
            f"{path!r} is not an ONEX index directory (no {_MANIFEST_NAME})"
        ) from exc
    except (OSError, ValueError) as exc:
        raise PersistenceError(
            f"corrupted index manifest {manifest_path!r}: {exc}"
        ) from exc
    if not isinstance(manifest, dict) or "lengths" not in manifest:
        raise PersistenceError(
            f"corrupted index manifest {manifest_path!r}: not an index manifest"
        )
    return manifest


def _load_v3(path: str) -> OnexIndex:
    manifest_path = os.path.join(path, _MANIFEST_NAME)
    manifest = read_manifest(path)
    version = manifest.get("format_version")
    if version != _FORMAT_VERSION:
        raise PersistenceError(
            f"unsupported index format version {version!r} "
            f"(readable: {_READABLE_VERSIONS}; versions 1-2 are .npz archives)"
        )
    missing_keys = [
        key
        for key in (
            "dataset_name",
            "st",
            "window",
            "start_step",
            "value_range",
            "series_names",
            "series_labels",
        )
        if key not in manifest
    ] + [
        f"lengths[{i}].{key}"
        for i, entry in enumerate(manifest["lengths"])
        for key in ("length", "envelope_radius", "st_half", "st_final")
        if key not in entry
    ]
    if missing_keys:
        raise PersistenceError(
            f"corrupted index manifest {manifest_path!r}: missing "
            f"{', '.join(missing_keys)}"
        )
    # Fail now, not at first query: a truncated copy should not produce a
    # working-looking index whose buckets explode on hydration.
    missing = [
        name
        for name in _v3_required_files(manifest)
        if not os.path.exists(os.path.join(path, name + ".npy"))
    ]
    if missing:
        raise PersistenceError(
            f"index directory {path!r} is truncated: missing "
            f"{', '.join(name + '.npy' for name in missing)}"
        )

    def _mmap(name: str) -> np.ndarray:
        try:
            return np.load(os.path.join(path, name + ".npy"), mmap_mode="r")
        except (OSError, ValueError) as exc:
            raise PersistenceError(
                f"cannot map index array {name!r} in {path!r}: {exc}"
            ) from exc

    values = _mmap("series_values")
    offsets = _mmap("series_offsets")
    dataset = _dataset_from_arrays(manifest, values, offsets)
    start_step = int(manifest["start_step"])
    # The store windows directly over the on-disk mapping: subsequence
    # values are paged in on demand, never duplicated into RAM up front.
    store = SubsequenceStore.from_flat(
        values, np.diff(np.asarray(offsets)), start_step, dataset=dataset
    )

    local_thresholds: dict[int, tuple[float, float]] = {}
    loaders: dict[int, "callable"] = {}
    for entry in manifest["lengths"]:
        length = int(entry["length"])
        local_thresholds[length] = (
            float(entry["st_half"]),
            float(entry["st_final"]),
        )
        # Map every array NOW (cheap: a header read plus an mmap call,
        # no data pages) so the open mappings pin this directory
        # generation — an atomic re-save over the same path between
        # load and first query cannot mix arrays from two builds.
        prefix = f"L{length}_"
        arrays = {
            "reps": _mmap(prefix + "reps"),
            "member_eds": _mmap(prefix + "member_eds"),
            "group_offsets": _mmap(prefix + "group_offsets"),
        }
        if entry.get("member_encoding", "ids") == "rows":
            arrays["member_rows"] = _mmap(prefix + "member_rows")
        else:
            arrays["member_series"] = _mmap(prefix + "member_series")
            arrays["member_starts"] = _mmap(prefix + "member_starts")

        def _hydrate(
            length: int = length, entry: dict = entry, arrays: dict = arrays
        ) -> LengthBucket:
            view = store.view(length)
            if "member_rows" in arrays:
                rows = arrays["member_rows"]
                member_series = view.series[rows]
                member_starts = view.starts[rows]
            else:
                member_series = arrays["member_series"]
                member_starts = arrays["member_starts"]
                try:
                    rows = view.rows_of(member_series, member_starts)
                except DataError:
                    rows = None
            groups = _restore_groups(
                length,
                int(entry["envelope_radius"]),
                arrays["reps"],
                arrays["member_eds"],
                arrays["group_offsets"],
                rows,
                member_series,
                member_starts,
            )
            bucket = LengthBucket(
                length=length,
                groups=groups,
                store_view=None if rows is None else view,
            )
            bucket.st_half, bucket.st_final = local_thresholds[length]
            return bucket

        loaders[length] = _hydrate

    rspace = RSpace({}, loaders=loaders)
    spspace = SPSpace.restore(float(manifest["st"]), local_thresholds)
    return _build_index(manifest, dataset, rspace, spspace, start_step)
