"""Property tests for the vectorized construction engine.

The contract of ISSUE 2: the engine's sequential mode is bit-identical
to the reference Algorithm 1 loop across seeds, datasets and start
steps; the minibatch mode preserves the Lemma 1/2 invariants and
answers queries end to end; and incremental maintenance built on the
engine agrees with the scalar query path.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.grouping import (
    GroupBuilder,
    build_groups_for_length,
    reference_build_groups_for_length,
)
from repro.core.onex import OnexIndex
from repro.data.store import SubsequenceStore
from repro.exceptions import IndexConstructionError
from tests.oracles import scalar_query


def _assert_identical(engine_groups, reference_groups):
    assert len(engine_groups) == len(reference_groups)
    for engine_group, reference_group in zip(
        engine_groups, reference_groups, strict=True
    ):
        assert engine_group.member_ids == reference_group.member_ids
        assert np.array_equal(engine_group.ed_to_rep, reference_group.ed_to_rep)
        assert np.array_equal(
            engine_group.representative, reference_group.representative
        )


class TestSequentialBitIdentity:
    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("start_step", [1, 2, 3])
    def test_small_dataset(self, small_dataset, seed, start_step):
        engine = build_groups_for_length(
            small_dataset, 12, 0.2, np.random.default_rng(seed), start_step=start_step
        )
        reference = reference_build_groups_for_length(
            small_dataset, 12, 0.2, np.random.default_rng(seed), start_step=start_step
        )
        _assert_identical(engine, reference)

    @pytest.mark.parametrize("st", [0.05, 0.2, 0.8])
    def test_thresholds(self, small_dataset, st):
        engine = build_groups_for_length(
            small_dataset, 18, st, np.random.default_rng(3)
        )
        reference = reference_build_groups_for_length(
            small_dataset, 18, st, np.random.default_rng(3)
        )
        _assert_identical(engine, reference)

    @pytest.mark.parametrize("length", [16, 48])
    def test_ecg_dataset(self, ecg_dataset, length):
        engine = build_groups_for_length(
            ecg_dataset, length, 0.1, np.random.default_rng(11)
        )
        reference = reference_build_groups_for_length(
            ecg_dataset, length, 0.1, np.random.default_rng(11)
        )
        _assert_identical(engine, reference)

    def test_groups_are_store_backed(self, small_dataset):
        store = SubsequenceStore(small_dataset)
        view = store.view(12)
        groups = GroupBuilder(12, 0.2).build(view, np.random.default_rng(0))
        for group in groups:
            assert group.member_rows is not None
            # Rows are stored in LSI order, aligned with member_ids.
            assert view.ids(group.member_rows) == list(group.member_ids)


class TestMinibatchInvariants:
    @pytest.fixture(scope="class")
    def minibatch_groups(self, small_dataset):
        builder = GroupBuilder(12, 0.2, assign_mode="minibatch", chunk_size=64)
        view = SubsequenceStore(small_dataset).view(12)
        return builder.build(view, np.random.default_rng(0))

    def test_every_subsequence_in_exactly_one_group(
        self, small_dataset, minibatch_groups
    ):
        seen = set()
        for group in minibatch_groups:
            for ssid in group.member_ids:
                assert ssid not in seen
                seen.add(ssid)
        expected = {ssid for ssid, _ in small_dataset.subsequences(12)}
        assert seen == expected

    def test_lemma2_members_near_representative(self, minibatch_groups):
        """Members were admitted within sqrt(L)*ST/2 of a then-current
        representative; with the documented running-mean drift slack the
        final spread stays within twice the admission radius (the same
        bound the sequential reference satisfies)."""
        threshold = math.sqrt(12) * 0.2 / 2.0
        for group in minibatch_groups:
            assert group.ed_to_rep.max() <= threshold * 2.0

    def test_lemma1_pairwise_similarity(self, small_dataset, minibatch_groups):
        st = 0.2
        for group in minibatch_groups:
            values = [small_dataset.subsequence(s) for s in group.member_ids]
            for i in range(len(values)):
                for j in range(i + 1, len(values)):
                    ned = float(
                        np.linalg.norm(values[i] - values[j])
                    ) / math.sqrt(12)
                    assert ned <= st * 2.0 + 1e-9

    def test_bad_mode_rejected(self):
        with pytest.raises(IndexConstructionError):
            GroupBuilder(12, 0.2, assign_mode="turbo")

    def test_chunk_size_invariance_of_coverage(self, small_dataset):
        view = SubsequenceStore(small_dataset).view(12)
        for chunk_size in (16, 1024):
            groups = GroupBuilder(
                12, 0.2, assign_mode="minibatch", chunk_size=chunk_size
            ).build(view, np.random.default_rng(5))
            assert sum(g.count for g in groups) == view.n_rows


class TestMinibatchEndToEnd:
    @pytest.fixture(scope="class")
    def minibatch_index(self, small_dataset):
        return OnexIndex.build(
            small_dataset,
            st=0.2,
            lengths=[6, 12, 18, 24],
            normalize=False,
            seed=0,
            assign_mode="minibatch",
        )

    def test_query_finds_close_match(self, small_dataset, minibatch_index):
        for series in range(4):
            query = small_dataset[series].values[3:15]
            matches = minibatch_index.query(query, length=12)
            assert matches
            best = matches[0]
            # The query is itself an indexed subsequence, so the guided
            # search must land within the similarity threshold.
            assert best.dtw_normalized <= minibatch_index.st
            assert best.ssid.length == 12

    def test_batch_and_scalar_paths_agree(self, small_dataset, minibatch_index):
        queries = [small_dataset[s].values[0:12] for s in range(3)]
        batch_results = minibatch_index.query_batch(queries, length=12)
        for query, matches in zip(queries, batch_results, strict=True):
            reference = scalar_query.best_match(
                minibatch_index.processor, query, length=12, k=1
            )
            assert matches[0].ssid == reference[0].ssid
            assert abs(matches[0].dtw - reference[0].dtw) <= 1e-9

    def test_mode_recorded(self, minibatch_index):
        assert minibatch_index.assign_mode == "minibatch"
        assert [entry["length"] for entry in minibatch_index.build_profile] == [
            6,
            12,
            18,
            24,
        ]


class TestMaintenanceProperty:
    def test_append_then_query_batch_matches_scalar(self, small_dataset):
        from repro.extensions.maintenance import append_series

        index = OnexIndex.build(
            small_dataset, st=0.2, lengths=[6, 12], normalize=False, seed=0
        )
        rng = np.random.default_rng(23)
        novel = np.clip(
            small_dataset[0].values + rng.normal(0, 0.05, len(small_dataset[0])),
            0.0,
            1.0,
        )
        extended = append_series(index, novel, name="novel", normalized=True)
        assert len(extended.dataset) == len(small_dataset) + 1
        assert extended.rspace.n_subsequences > index.rspace.n_subsequences

        queries = [extended.dataset[s].values[2:14] for s in range(4)] + [
            novel[1:13]
        ]
        batch_results = extended.query_batch(queries, length=12)
        for query, matches in zip(queries, batch_results, strict=True):
            reference = scalar_query.best_match(
                extended.processor, query, length=12, k=1
            )
            assert matches[0].ssid == reference[0].ssid
            assert abs(matches[0].dtw - reference[0].dtw) <= 1e-9

    def test_extended_bucket_is_store_backed(self, small_dataset):
        from repro.extensions.maintenance import append_series

        index = OnexIndex.build(
            small_dataset, st=0.2, lengths=[12], normalize=False, seed=0
        )
        extended = append_series(
            index, small_dataset[1].values.copy(), normalized=True
        )
        bucket = extended.rspace.bucket(12)
        assert bucket.store_view is not None
        for group_index, group in enumerate(bucket.groups):
            matrix = bucket.member_matrix(group_index, extended.dataset)
            expected = np.stack(
                [extended.dataset.subsequence(s) for s in group.member_ids]
            )
            assert np.array_equal(matrix, expected)


class TestThresholdAdaptationStoreBacked:
    def test_split_and_merge_keep_rows(self, small_dataset):
        index = OnexIndex.build(
            small_dataset, st=0.2, lengths=[12], normalize=False, seed=0
        )
        for st_new in (0.1, 0.4):  # split and merge paths
            adapted = index.with_threshold(st_new)
            bucket = adapted.rspace.bucket(12)
            assert bucket.store_view is not None
            for group in bucket.groups:
                assert group.member_rows is not None
                assert bucket.store_view.ids(group.member_rows) == list(
                    group.member_ids
                )
