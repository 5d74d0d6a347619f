"""Tests for index save/load (npz archives + v3 mmap directories)."""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.core.onex import OnexIndex
from repro.core.persistence import load_index, save_index
from repro.exceptions import PersistenceError


@pytest.fixture
def saved_path(small_index, tmp_path):
    path = tmp_path / "index.npz"
    save_index(small_index, path)
    return path


class TestRoundTrip:
    def test_dataset_restored(self, small_index, saved_path):
        loaded = load_index(saved_path)
        assert len(loaded.dataset) == len(small_index.dataset)
        assert loaded.dataset.name == small_index.dataset.name
        for before, after in zip(small_index.dataset, loaded.dataset, strict=True):
            assert np.allclose(before.values, after.values)
            assert before.name == after.name
            assert before.label == after.label

    def test_structure_restored(self, small_index, saved_path):
        loaded = load_index(saved_path)
        assert loaded.rspace.lengths == small_index.rspace.lengths
        assert loaded.rspace.n_groups == small_index.rspace.n_groups
        assert loaded.rspace.n_subsequences == small_index.rspace.n_subsequences
        for length in loaded.rspace.lengths:
            before = small_index.rspace.bucket(length)
            after = loaded.rspace.bucket(length)
            assert np.allclose(before.rep_matrix, after.rep_matrix)
            assert np.allclose(before.dc, after.dc)
            for group_before, group_after in zip(
                before.groups, after.groups, strict=True
            ):
                assert group_before.member_ids == group_after.member_ids
                assert np.allclose(group_before.ed_to_rep, group_after.ed_to_rep)

    def test_parameters_restored(self, small_index, saved_path):
        loaded = load_index(saved_path)
        assert loaded.st == small_index.st
        assert loaded.window == small_index.window
        assert loaded.start_step == small_index.start_step
        assert loaded.value_range == small_index.value_range

    def test_spspace_recomputed_identically(self, small_index, saved_path):
        loaded = load_index(saved_path)
        assert loaded.spspace.st_half == pytest.approx(small_index.spspace.st_half)
        assert loaded.spspace.st_final == pytest.approx(small_index.spspace.st_final)

    def test_queries_identical_after_reload(self, small_index, saved_path):
        loaded = load_index(saved_path)
        for series in range(3):
            query = small_index.dataset[series].values[2:14]
            before = small_index.query(query, length=12)[0]
            after = loaded.query(query, length=12)[0]
            assert before.ssid == after.ssid
            assert before.dtw_normalized == pytest.approx(after.dtw_normalized)

    def test_facade_save_load(self, small_index, tmp_path):
        path = tmp_path / "facade.npz"
        small_index.save(str(path))
        loaded = OnexIndex.load(str(path))
        assert loaded.rspace.n_groups == small_index.rspace.n_groups

    def test_bare_path_writes_v3_directory(self, small_index, tmp_path):
        bare = tmp_path / "noext"
        save_index(small_index, bare)  # no .npz suffix -> v3 directory
        assert bare.is_dir() and (bare / "manifest.json").exists()
        loaded = load_index(bare)
        assert loaded.rspace.n_groups == small_index.rspace.n_groups

    def test_extension_appended_for_explicit_v2(self, small_index, tmp_path):
        bare = tmp_path / "noext"
        save_index(small_index, bare, version=2)  # legacy: .npz appended
        assert (tmp_path / "noext.npz").exists()
        loaded = load_index(bare)  # loader finds the .npz variant
        assert loaded.rspace.n_groups == small_index.rspace.n_groups

    def test_pathlike_round_trips_end_to_end(self, small_index, tmp_path):
        path = Path(tmp_path) / "pathlike.npz"
        small_index.save(path)  # a Path, not a str
        loaded = OnexIndex.load(path)
        assert loaded.rspace.n_groups == small_index.rspace.n_groups

    def test_npz_save_is_atomic(self, small_index, tmp_path):
        path = tmp_path / "atomic.npz"
        save_index(small_index, path)
        save_index(small_index, path)  # overwrite via temp + os.replace
        leftovers = [n for n in os.listdir(tmp_path) if ".tmp" in n]
        assert leftovers == []
        assert load_index(path).rspace.n_groups == small_index.rspace.n_groups


class TestStoreBackedFormat:
    def test_v2_groups_reattach_to_store(self, saved_path):
        loaded = load_index(saved_path)
        for bucket in loaded.rspace:
            assert bucket.store_view is not None
            for group in bucket.groups:
                assert group.member_rows is not None
                assert bucket.store_view.ids(group.member_rows) == list(
                    group.member_ids
                )

    def test_v2_archives_are_columnar(self, saved_path):
        archive = np.load(saved_path)
        manifest = json.loads(bytes(archive["manifest"]).decode())
        assert manifest["format_version"] == 2
        assert manifest["assign_mode"] == "sequential"
        for entry in manifest["lengths"]:
            assert entry["member_encoding"] == "rows"
            prefix = f"L{entry['length']}_"
            assert prefix + "member_rows" in archive
            assert prefix + "member_series" not in archive

    def test_build_profile_round_trips(self, small_index, saved_path):
        loaded = load_index(saved_path)
        assert loaded.build_profile == small_index.build_profile
        assert loaded.assign_mode == small_index.assign_mode

    def _write_v1(self, index, path):
        """Re-create the legacy format 1 archive layout."""
        arrays = {}
        arrays["series_values"] = np.concatenate(
            [s.values for s in index.dataset]
        )
        arrays["series_offsets"] = np.cumsum(
            [0] + [len(s) for s in index.dataset]
        ).astype(np.int64)
        lengths_meta = []
        for bucket in index.rspace:
            prefix = f"L{bucket.length}_"
            arrays[prefix + "reps"] = bucket.rep_matrix
            member_series, member_starts, member_eds = [], [], []
            group_offsets = [0]
            for group in bucket.groups:
                for ssid in group.member_ids:
                    member_series.append(ssid.series)
                    member_starts.append(ssid.start)
                member_eds.extend(group.ed_to_rep.tolist())
                group_offsets.append(len(member_series))
            arrays[prefix + "member_series"] = np.asarray(
                member_series, dtype=np.int64
            )
            arrays[prefix + "member_starts"] = np.asarray(
                member_starts, dtype=np.int64
            )
            arrays[prefix + "member_eds"] = np.asarray(
                member_eds, dtype=np.float64
            )
            arrays[prefix + "group_offsets"] = np.asarray(
                group_offsets, dtype=np.int64
            )
            lengths_meta.append(
                {
                    "length": bucket.length,
                    "envelope_radius": bucket.groups[0].envelope_radius,
                }
            )
        manifest = {
            "format_version": 1,
            "dataset_name": index.dataset.name,
            "st": index.st,
            "window": {"kind": "fraction", "value": index.window},
            "start_step": index.start_step,
            "value_range": list(index.value_range),
            "build_seconds": index.build_seconds,
            "group_search_width": None,
            "use_batch_kernels": True,
            "series_names": [s.name for s in index.dataset],
            "series_labels": [s.label for s in index.dataset],
            "lengths": lengths_meta,
        }
        arrays["manifest"] = np.frombuffer(
            json.dumps(manifest).encode("utf-8"), dtype=np.uint8
        )
        np.savez_compressed(path, **arrays)

    def test_v1_archives_still_load(self, small_index, tmp_path):
        path = tmp_path / "legacy.npz"
        self._write_v1(small_index, path)
        loaded = load_index(path)
        assert loaded.rspace.n_groups == small_index.rspace.n_groups
        for length in loaded.rspace.lengths:
            before = small_index.rspace.bucket(length)
            after = loaded.rspace.bucket(length)
            for group_before, group_after in zip(
                before.groups, after.groups, strict=True
            ):
                assert group_before.member_ids == group_after.member_ids
                assert np.allclose(group_before.ed_to_rep, group_after.ed_to_rep)

    def test_v1_groups_reattach_to_store(self, small_index, tmp_path):
        path = tmp_path / "legacy.npz"
        self._write_v1(small_index, path)
        loaded = load_index(path)
        for bucket in loaded.rspace:
            assert bucket.store_view is not None
            for group in bucket.groups:
                assert group.member_rows is not None

    def test_v1_queries_match_v2(self, small_index, tmp_path, saved_path):
        legacy = tmp_path / "legacy.npz"
        self._write_v1(small_index, legacy)
        from_v1 = load_index(legacy)
        from_v2 = load_index(saved_path)
        query = small_index.dataset[1].values[4:16]
        a = from_v1.query(query, length=12)[0]
        b = from_v2.query(query, length=12)[0]
        assert a.ssid == b.ssid
        assert a.dtw == pytest.approx(b.dtw, abs=1e-12)


@pytest.fixture
def v3_path(small_index, tmp_path):
    path = tmp_path / "index.onex"
    save_index(small_index, path, version=3)
    return path


class TestV3Format:
    def test_directory_layout(self, v3_path):
        names = set(os.listdir(v3_path))
        assert "manifest.json" in names
        assert "series_values.npy" in names and "series_offsets.npy" in names
        manifest = json.loads((v3_path / "manifest.json").read_text())
        assert manifest["format_version"] == 3
        for entry in manifest["lengths"]:
            prefix = f"L{entry['length']}_"
            assert entry["member_encoding"] == "rows"
            assert prefix + "member_rows.npy" in names
            assert prefix + "reps.npy" in names
            # The SP-Space thresholds persist so load skips the merge sweep.
            assert "st_half" in entry and "st_final" in entry

    def test_round_trip_queries_match_v1_v2_v3(
        self, small_index, saved_path, tmp_path, v3_path
    ):
        legacy = tmp_path / "legacy.npz"
        TestStoreBackedFormat()._write_v1(small_index, legacy)
        from_v1 = load_index(legacy)
        from_v2 = load_index(saved_path)
        from_v3 = load_index(v3_path)
        for series in range(3):
            query = small_index.dataset[series].values[2:14]
            expected = small_index.query(query, length=12)[0]
            for loaded in (from_v1, from_v2, from_v3):
                match = loaded.query(query, length=12)[0]
                assert match.ssid == expected.ssid
                assert match.dtw == pytest.approx(expected.dtw, abs=1e-12)

    def test_structure_and_parameters_restored(self, small_index, v3_path):
        loaded = load_index(v3_path)
        assert loaded.st == small_index.st
        assert loaded.window == small_index.window
        assert loaded.start_step == small_index.start_step
        assert loaded.value_range == small_index.value_range
        assert loaded.build_profile == small_index.build_profile
        assert loaded.rspace.lengths == small_index.rspace.lengths
        assert loaded.rspace.n_groups == small_index.rspace.n_groups
        for length in loaded.rspace.lengths:
            before = small_index.rspace.bucket(length)
            after = loaded.rspace.bucket(length)
            assert np.allclose(before.rep_matrix, after.rep_matrix)
            for group_before, group_after in zip(
                before.groups, after.groups, strict=True
            ):
                assert group_before.member_ids == group_after.member_ids
                assert np.allclose(group_before.ed_to_rep, group_after.ed_to_rep)

    def test_load_is_lazy_until_first_query(self, small_index, v3_path):
        loaded = load_index(v3_path)
        # O(manifest) load: no bucket (and no member matrix) hydrates yet.
        assert loaded.rspace.hydrated_lengths == []
        query = small_index.dataset[0].values[2:14]
        loaded.query(query, length=12)
        assert loaded.rspace.hydrated_lengths == [12]
        untouched = [x for x in loaded.rspace.lengths if x != 12]
        assert all(
            length not in loaded.rspace.hydrated_lengths for length in untouched
        )

    def test_spspace_restored_without_hydration(self, small_index, v3_path):
        loaded = load_index(v3_path)
        assert loaded.spspace.st_half == pytest.approx(small_index.spspace.st_half)
        assert loaded.spspace.st_final == pytest.approx(
            small_index.spspace.st_final
        )
        for length in small_index.rspace.lengths:
            assert loaded.spspace.local(length) == pytest.approx(
                small_index.spspace.local(length)
            )
        assert loaded.rspace.hydrated_lengths == []
        # Hydration stamps the persisted local thresholds onto the bucket.
        bucket = loaded.rspace.bucket(12)
        assert bucket.st_half == pytest.approx(
            small_index.rspace.bucket(12).st_half
        )

    def test_series_values_are_memory_mapped(self, v3_path):
        loaded = load_index(v3_path)
        # The store behind every hydrated view windows over the on-disk map:
        # somewhere down the window matrix's base chain sits the memmap.
        array = loaded.rspace.bucket(12).store_view._windows
        bases = []
        while array is not None:
            bases.append(array)
            array = getattr(array, "base", None)
        assert any(isinstance(base, np.memmap) for base in bases)

    def test_groups_reattach_to_store(self, v3_path):
        loaded = load_index(v3_path)
        for bucket in loaded.rspace:
            assert bucket.store_view is not None
            for group in bucket.groups:
                assert group.member_rows is not None
                assert bucket.store_view.ids(group.member_rows) == list(
                    group.member_ids
                )

    def test_atomic_overwrite_of_existing_directory(self, small_index, v3_path):
        save_index(small_index, v3_path, version=3)  # overwrite in place
        parent = v3_path.parent
        leftovers = [
            name
            for name in os.listdir(parent)
            if ".old-" in name or name.startswith(".onex-save-")
        ]
        assert leftovers == []
        assert load_index(v3_path).rspace.n_groups == small_index.rspace.n_groups

    def test_loaded_generation_survives_atomic_resave(
        self, small_index, v3_path
    ):
        """A lazy handle pins its directory generation.

        All array mmaps open at load time, so an atomic re-save over the
        same path between load and first query cannot mix arrays from
        two different builds into one index.
        """
        loaded = load_index(v3_path)
        assert loaded.rspace.hydrated_lengths == []
        save_index(small_index.with_threshold(0.35), v3_path, version=3)
        query = small_index.dataset[0].values[2:14]
        expected = small_index.query(query, length=12)[0]
        got = loaded.query(query, length=12)[0]  # hydrates now
        assert got.ssid == expected.ssid
        assert got.dtw == pytest.approx(expected.dtw, abs=1e-12)
        # The path itself now serves the new generation.
        assert load_index(v3_path).st == pytest.approx(0.35)

    def test_v3_to_v2_conversion(self, v3_path, tmp_path, small_index):
        loaded = load_index(v3_path)
        converted = tmp_path / "converted.npz"
        save_index(loaded, converted)
        assert load_index(converted).rspace.n_groups == small_index.rspace.n_groups


class TestV3NonQueryPaths:
    """Non-query entry points must hydrate lazy buckets correctly."""

    def test_with_threshold_hydrates_and_adapts(self, small_index, v3_path):
        loaded = load_index(v3_path)
        assert loaded.rspace.hydrated_lengths == []
        adapted = loaded.with_threshold(0.35)
        expected = small_index.with_threshold(0.35)
        assert adapted.st == expected.st
        assert adapted.rspace.lengths == expected.rspace.lengths
        assert adapted.rspace.n_groups == expected.rspace.n_groups
        for length in expected.rspace.lengths:
            before = expected.rspace.bucket(length)
            after = adapted.rspace.bucket(length)
            for group_before, group_after in zip(
                before.groups, after.groups, strict=True
            ):
                assert group_before.member_ids == group_after.member_ids
                assert np.allclose(group_before.ed_to_rep, group_after.ed_to_rep)

    def test_seasonal_hydrates_only_its_length(self, small_index, v3_path):
        loaded = load_index(v3_path)
        assert loaded.rspace.hydrated_lengths == []
        result = loaded.seasonal(12)
        assert loaded.rspace.hydrated_lengths == [12]
        assert result.groups == small_index.seasonal(12).groups
        user_driven = loaded.seasonal(12, series=1)
        assert user_driven.groups == small_index.seasonal(12, series=1).groups

    def test_stats_hydrate_and_match_eager_load(self, small_index, v3_path):
        loaded = load_index(v3_path)
        assert loaded.rspace.hydrated_lengths == []
        stats = loaded.stats()
        expected = small_index.stats()
        assert loaded.rspace.hydrated_lengths == small_index.rspace.lengths
        assert stats.n_groups == expected.n_groups
        assert stats.n_representatives == expected.n_representatives
        assert stats.n_subsequences == expected.n_subsequences
        assert stats.n_lengths == expected.n_lengths

    def test_within_on_lazy_index_matches(self, small_index, v3_path):
        loaded = load_index(v3_path)
        assert loaded.rspace.hydrated_lengths == []
        query = small_index.dataset[2].values[1:13]
        got = loaded.within(query, st=0.4, length=12)
        expected = small_index.within(query, st=0.4, length=12)
        assert [m.ssid for m in got] == [m.ssid for m in expected]
        assert [m.dtw for m in got] == pytest.approx([m.dtw for m in expected])


class TestLegacyKernelFlag:
    """Indexes saved before the scalar query path was removed carry a
    ``use_batch_kernels`` manifest key; it is ignored on load."""

    def _battery(self, index):
        answers = []
        for series in range(4):
            values = index.dataset[series].values
            for query, length in ((values[2:14], 12), (values[1:10], None)):
                matches = index.query(query, length=length, k=3)
                answers.append([(m.ssid, m.dtw) for m in matches])
        return answers

    @pytest.mark.parametrize("flag", [False, True])
    def test_v3_manifest_with_flag_loads_and_answers(
        self, small_index, v3_path, flag
    ):
        manifest_path = v3_path / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["use_batch_kernels"] = flag
        manifest_path.write_text(json.dumps(manifest))
        assert self._battery(load_index(v3_path)) == self._battery(small_index)

    def test_v2_archive_with_flag_loads_and_answers(self, small_index, saved_path):
        with np.load(saved_path) as archive:
            arrays = {name: archive[name] for name in archive.files}
        manifest = json.loads(bytes(arrays["manifest"]).decode("utf-8"))
        manifest["use_batch_kernels"] = False
        arrays["manifest"] = np.frombuffer(
            json.dumps(manifest).encode("utf-8"), dtype=np.uint8
        )
        np.savez_compressed(saved_path, **arrays)
        assert self._battery(load_index(saved_path)) == self._battery(small_index)

    def test_saved_manifests_no_longer_carry_the_flag(self, saved_path, v3_path):
        assert "use_batch_kernels" not in json.loads(
            (v3_path / "manifest.json").read_text()
        )
        with np.load(saved_path) as archive:
            v2_manifest = json.loads(bytes(archive["manifest"]).decode("utf-8"))
        assert "use_batch_kernels" not in v2_manifest


class TestV3Errors:
    def test_missing_manifest(self, tmp_path):
        empty = tmp_path / "empty.onex"
        empty.mkdir()
        with pytest.raises(PersistenceError, match="manifest"):
            load_index(empty)

    def test_corrupted_manifest(self, v3_path):
        (v3_path / "manifest.json").write_text("{ this is not json")
        with pytest.raises(PersistenceError, match="corrupt"):
            load_index(v3_path)

    def test_manifest_without_lengths(self, v3_path):
        (v3_path / "manifest.json").write_text(json.dumps({"format_version": 3}))
        with pytest.raises(PersistenceError, match="manifest"):
            load_index(v3_path)

    def test_manifest_missing_scalar_keys(self, v3_path):
        manifest = json.loads((v3_path / "manifest.json").read_text())
        del manifest["start_step"]
        del manifest["lengths"][0]["st_half"]
        (v3_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(PersistenceError, match="missing .*start_step"):
            load_index(v3_path)

    def test_wrong_version_in_directory(self, v3_path):
        manifest = json.loads((v3_path / "manifest.json").read_text())
        manifest["format_version"] = 99
        (v3_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(PersistenceError, match="version"):
            load_index(v3_path)

    def test_truncated_directory_fails_at_load_not_first_query(self, v3_path):
        os.remove(v3_path / "L12_member_rows.npy")
        with pytest.raises(PersistenceError, match="truncated"):
            load_index(v3_path)

    def test_unwritable_save_version(self, small_index, tmp_path):
        with pytest.raises(PersistenceError, match="version"):
            save_index(small_index, tmp_path / "x.onex", version=7)


class TestErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(PersistenceError):
            load_index(tmp_path / "absent.npz")

    def test_not_an_index_archive(self, tmp_path):
        path = tmp_path / "other.npz"
        np.savez(path, something=np.arange(3))
        with pytest.raises(PersistenceError, match="not an ONEX index"):
            load_index(path)

    def test_wrong_format_version(self, small_index, tmp_path, saved_path):
        archive = dict(np.load(saved_path))
        manifest = json.loads(bytes(archive["manifest"]).decode())
        manifest["format_version"] = 99
        archive["manifest"] = np.frombuffer(
            json.dumps(manifest).encode(), dtype=np.uint8
        )
        bad = tmp_path / "bad.npz"
        np.savez(bad, **archive)
        with pytest.raises(PersistenceError, match="version"):
            load_index(bad)

    def test_garbage_file(self, tmp_path):
        path = tmp_path / "garbage.npz"
        path.write_bytes(b"not a zip at all")
        with pytest.raises(PersistenceError):
            load_index(path)
