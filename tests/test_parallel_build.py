"""Tests for the process-parallel sharded construction engine.

The contract under test: ``OnexIndex.build`` produces **bit-identical**
indexes for every ``n_jobs`` value — same groups, same member order,
same representatives, same store rows — in both assign modes, because
the parent pre-draws every length's visit permutation in grid order and
workers window a shared mmap of the same subsequence store.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.onex import OnexIndex
from repro.core.parallel import build_shards_parallel
from repro.data.normalize import min_max_normalize_dataset
from repro.data.store import SubsequenceStore
from repro.data.synthetic import make_dataset
from repro.exceptions import IndexConstructionError, QueryError
from repro.utils.validation import resolve_n_jobs

LENGTHS = [8, 16, 24, 32]


def _dataset(seed: int):
    return min_max_normalize_dataset(
        make_dataset("ItalyPower", n_series=10, length=32, seed=seed)
    )


def _build(dataset, n_jobs: int, assign_mode: str, seed: int) -> OnexIndex:
    return OnexIndex.build(
        dataset,
        st=0.25,
        lengths=LENGTHS,
        normalize=False,
        seed=seed,
        assign_mode=assign_mode,
        n_jobs=n_jobs,
    )


def _assert_identical(a: OnexIndex, b: OnexIndex) -> None:
    assert a.rspace.lengths == b.rspace.lengths
    for length in a.rspace.lengths:
        bucket_a = a.rspace.bucket(length)
        bucket_b = b.rspace.bucket(length)
        assert len(bucket_a.groups) == len(bucket_b.groups)
        assert np.array_equal(bucket_a.rep_matrix, bucket_b.rep_matrix)
        for group_a, group_b in zip(bucket_a.groups, bucket_b.groups, strict=True):
            assert group_a.member_ids == group_b.member_ids
            assert np.array_equal(group_a.ed_to_rep, group_b.ed_to_rep)
            assert np.array_equal(
                group_a.representative, group_b.representative
            )
            assert np.array_equal(group_a.member_rows, group_b.member_rows)


class TestBitIdentity:
    @pytest.mark.parametrize("assign_mode", ["sequential", "minibatch"])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_n_jobs_4_matches_n_jobs_1(self, assign_mode, seed):
        dataset = _dataset(seed)
        sequential = _build(dataset, 1, assign_mode, seed)
        parallel = _build(dataset, 4, assign_mode, seed)
        _assert_identical(sequential, parallel)

    def test_queries_identical_across_job_counts(self):
        dataset = _dataset(3)
        sequential = _build(dataset, 1, "sequential", 3)
        parallel = _build(dataset, 2, "sequential", 3)
        for series in range(3):
            query = dataset[series].values[4:20]
            match_seq = sequential.query(query, length=16)[0]
            match_par = parallel.query(query, length=16)[0]
            assert match_seq.ssid == match_par.ssid
            assert match_seq.dtw == pytest.approx(match_par.dtw, abs=0.0)

    def test_build_profile_covers_grid_in_order(self):
        dataset = _dataset(1)
        parallel = _build(dataset, 4, "sequential", 1)
        assert [entry["length"] for entry in parallel.build_profile] == LENGTHS
        assert all(entry["seconds"] >= 0.0 for entry in parallel.build_profile)

    def test_progress_called_for_every_length(self):
        dataset = _dataset(2)
        seen: list[int] = []
        OnexIndex.build(
            dataset,
            st=0.25,
            lengths=LENGTHS,
            normalize=False,
            seed=2,
            n_jobs=2,
            progress=lambda length, n, s: seen.append(length),
        )
        assert sorted(seen) == LENGTHS


class TestShardEngine:
    def test_shards_match_in_process_builder(self):
        from repro.core.grouping import GroupBuilder

        dataset = _dataset(5)
        store = SubsequenceStore(dataset)
        rng = np.random.default_rng(5)
        orders = {
            length: rng.permutation(store.view(length).n_rows)
            for length in LENGTHS
        }
        shards = build_shards_parallel(
            store, LENGTHS, orders, st=0.25, n_jobs=2
        )
        assert sorted(shards) == LENGTHS
        for length in LENGTHS:
            local = GroupBuilder(length, 0.25).build(
                store.view(length), order=orders[length]
            )
            remote = shards[length].groups
            assert len(local) == len(remote)
            for group_a, group_b in zip(local, remote, strict=True):
                assert group_a.member_ids == group_b.member_ids
                assert np.array_equal(
                    group_a.representative, group_b.representative
                )

    def test_empty_grid_rejected(self):
        dataset = _dataset(0)
        store = SubsequenceStore(dataset)
        with pytest.raises(IndexConstructionError):
            build_shards_parallel(store, [], {}, st=0.25, n_jobs=2)


class TestJobResolution:
    def test_defaults(self):
        assert resolve_n_jobs(None) == 1
        assert resolve_n_jobs(1) == 1
        assert resolve_n_jobs(4) == 4

    def test_negative_counts_back_from_cores(self):
        import os

        cores = os.cpu_count() or 1
        assert resolve_n_jobs(-1) == cores
        assert resolve_n_jobs(-cores - 5) == 1

    def test_zero_rejected(self):
        with pytest.raises(IndexConstructionError):
            resolve_n_jobs(0)

    def test_kmeans_grouping_rejects_parallel(self):
        dataset = _dataset(0)
        with pytest.raises(QueryError, match="incremental"):
            OnexIndex.build(
                dataset,
                st=0.25,
                lengths=[16],
                normalize=False,
                grouping="kmeans",
                n_jobs=2,
            )

    def test_kmeans_grouping_still_builds_sequentially(self):
        dataset = _dataset(0)
        index = OnexIndex.build(
            dataset,
            st=0.25,
            lengths=[16, 32],
            normalize=False,
            grouping="kmeans",
            n_jobs=1,
        )
        assert index.rspace.lengths == [16, 32]
