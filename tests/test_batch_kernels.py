"""Batch kernels vs scalar kernels: agreement to fp tolerance.

The contract of :mod:`repro.distances.batch` is exactness — every
vectorized kernel must agree with its scalar counterpart, and the
query path built on them must return the same matches as the scalar
oracle in ``tests/oracles/scalar_query.py``.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.brute_force import StandardDTW
from repro.baselines.trillion import Trillion
from repro.core.query_processor import QueryProcessor
from repro.distances.batch import (
    EnvelopeStack,
    dtw_batch,
    dtw_pairs,
    envelope_matrix,
    lb_keogh_batch,
    lb_keogh_reverse_batch,
    lb_keogh_reverse_stacked,
    lb_kim_batch,
    lb_kim_stacked,
    sliding_minmax,
)
from repro.distances.dtw import dtw, resolve_window
from repro.distances.lower_bounds import CascadePruner, envelope, lb_keogh, lb_kim
from repro.exceptions import DistanceError
from tests.oracles import scalar_query

values_strategy = st.floats(min_value=-10, max_value=10, allow_nan=False)


def stacks(min_length=1, max_length=12, max_rows=6):
    """Strategy: a (k, n) candidate stack as a list of equal-length lists."""
    return st.integers(min_length, max_length).flatmap(
        lambda n: st.lists(
            st.lists(values_strategy, min_size=n, max_size=n),
            min_size=1,
            max_size=max_rows,
        )
    )


class TestEnvelopeKernels:
    @given(
        st.lists(values_strategy, min_size=1, max_size=20), st.integers(0, 6)
    )
    @settings(max_examples=100, deadline=None)
    def test_property_sliding_minmax_matches_scalar_envelope(self, values, radius):
        y = np.asarray(values)
        lower, upper = sliding_minmax(y, radius)
        reference = envelope(y, radius)
        np.testing.assert_allclose(lower, reference.lower)
        np.testing.assert_allclose(upper, reference.upper)

    @given(stacks(), st.integers(0, 5))
    @settings(max_examples=80, deadline=None)
    def test_property_envelope_matrix_matches_per_row(self, rows, radius):
        stack = np.asarray(rows)
        batched = envelope_matrix(stack, radius)
        assert batched.radius == radius
        for row in range(stack.shape[0]):
            reference = envelope(stack[row], radius)
            np.testing.assert_allclose(batched.lower[row], reference.lower)
            np.testing.assert_allclose(batched.upper[row], reference.upper)

    def test_rejects_bad_inputs(self):
        with pytest.raises(DistanceError):
            sliding_minmax(np.array([]), 1)
        with pytest.raises(DistanceError):
            sliding_minmax(np.arange(4.0), -1)
        with pytest.raises(DistanceError):
            envelope_matrix(np.arange(4.0), 1)  # 1-D, not a stack


class TestLowerBoundKernels:
    @given(st.lists(values_strategy, min_size=1, max_size=12), stacks())
    @settings(max_examples=100, deadline=None)
    def test_property_lb_kim_batch_matches_scalar(self, query, rows):
        q = np.asarray(query)
        stack = np.asarray(rows)
        batched = lb_kim_batch(q, stack)
        expected = [lb_kim(q, stack[i]) for i in range(stack.shape[0])]
        np.testing.assert_allclose(batched, expected, atol=1e-12)

    @given(stacks(min_length=2), st.integers(0, 4), st.data())
    @settings(max_examples=80, deadline=None)
    def test_property_lb_keogh_batch_matches_scalar(self, rows, radius, data):
        stack = np.asarray(rows)
        n = stack.shape[1]
        query = np.asarray(
            data.draw(st.lists(values_strategy, min_size=n, max_size=n))
        )
        query_env = envelope(query, radius)
        batched = lb_keogh_batch(stack, query_env.lower, query_env.upper)
        expected = [lb_keogh(stack[i], query_env) for i in range(stack.shape[0])]
        np.testing.assert_allclose(batched, expected, atol=1e-9)

        reversed_batch = lb_keogh_reverse_batch(query, envelope_matrix(stack, radius))
        reversed_expected = [
            lb_keogh(query, envelope(stack[i], radius))
            for i in range(stack.shape[0])
        ]
        np.testing.assert_allclose(reversed_batch, reversed_expected, atol=1e-9)


class TestDtwBatch:
    @given(
        st.lists(values_strategy, min_size=1, max_size=12),
        stacks(),
        st.integers(0, 5),
    )
    @settings(max_examples=100, deadline=None)
    def test_property_matches_scalar_dtw(self, query, rows, window):
        q = np.asarray(query)
        stack = np.asarray(rows)
        radius = resolve_window(q.shape[0], stack.shape[1], window)
        batched = dtw_batch(q, stack, radius)
        expected = [dtw(q, stack[i], window=window) for i in range(stack.shape[0])]
        np.testing.assert_allclose(batched, expected, atol=1e-9)

    @given(
        st.lists(values_strategy, min_size=2, max_size=12),
        stacks(min_length=2),
        st.integers(1, 5),
    )
    @settings(max_examples=80, deadline=None)
    def test_property_shared_abandon_is_consistent(self, query, rows, window):
        """With a shared bound, surviving distances are exact and every
        abandoned candidate is provably above the bound."""
        q = np.asarray(query)
        stack = np.asarray(rows)
        radius = resolve_window(q.shape[0], stack.shape[1], window)
        exact = np.asarray(
            [dtw(q, stack[i], window=window) for i in range(stack.shape[0])]
        )
        finite = exact[np.isfinite(exact)]
        bound = float(np.median(finite)) if finite.size else 1.0
        bounded = dtw_batch(q, stack, radius, abandon_above=bound)
        for got, reference in zip(bounded, exact, strict=True):
            if math.isfinite(got):
                assert got == pytest.approx(reference, abs=1e-9)
            else:
                assert reference >= bound - 1e-9

    def test_empty_stack_rejected(self):
        with pytest.raises(DistanceError):
            dtw_batch(np.arange(3.0), np.empty((2, 0)), 1)


class TestCascadePrunerBatch:
    @given(stacks(min_length=2, max_length=10, max_rows=8), st.data())
    @settings(max_examples=60, deadline=None)
    def test_property_batch_cascade_exact_under_bound(self, rows, data):
        stack = np.asarray(rows)
        n = stack.shape[1]
        query = np.asarray(
            data.draw(st.lists(values_strategy, min_size=n, max_size=n))
        )
        exact = np.asarray([dtw(query, stack[i], window=1) for i in range(len(stack))])
        bound = float(np.max(exact[np.isfinite(exact)], initial=1.0)) + 0.5
        pruner = CascadePruner(query, window=1)
        batched = pruner.distance_batch(
            stack, bound, candidate_envelopes=envelope_matrix(stack, pruner._radius)
        )
        np.testing.assert_allclose(batched, exact, atol=1e-9)
        assert pruner.stats.examined == len(stack)


class TestQueryPathParity:
    """The production query path vs the scalar oracle in ``tests/oracles``."""

    def _processor(self, small_index, **kwargs):
        return QueryProcessor(
            small_index.rspace,
            small_index.dataset,
            st=small_index.st,
            window=small_index.window,
            **kwargs,
        )

    def _assert_parity(self, got, expected):
        assert [m.ssid for m in got] == [m.ssid for m in expected]
        for gm, em in zip(got, expected, strict=True):
            assert gm.dtw == pytest.approx(em.dtw, abs=1e-9)

    def test_best_match_parity_exact_length(self, small_index):
        processor = self._processor(small_index)
        for series in range(6):
            query = small_index.dataset[series].values[2:14]
            self._assert_parity(
                processor.best_match(query, length=12, k=3),
                scalar_query.best_match(processor, query, length=12, k=3),
            )

    def test_best_match_parity_any_length(self, small_index):
        processor = self._processor(small_index)
        for series in range(4):
            query = small_index.dataset[series].values[1:13]
            for stop in (True, False):
                self._assert_parity(
                    processor.best_match(query, stop_at_half_st=stop),
                    scalar_query.best_match(processor, query, stop_at_half_st=stop),
                )

    @pytest.mark.parametrize(
        "options",
        [
            {"n_probe": 3},
            {"use_lower_bounds": False},
            {"use_lower_bounds": False, "median_ordering": False},
            {"group_search_width": 2},
            {"n_probe": 2, "group_search_width": 3},
        ],
    )
    def test_best_match_parity_under_options(self, small_index, options):
        processor = self._processor(small_index, **options)
        for series in (3, 7):
            query = small_index.dataset[series].values[4:16]
            self._assert_parity(
                processor.best_match(query, length=12, k=4),
                scalar_query.best_match(processor, query, length=12, k=4),
            )
            self._assert_parity(
                processor.best_match(query, k=2),
                scalar_query.best_match(processor, query, k=2),
            )

    def test_query_batch_matches_per_query(self, small_index):
        queries = [
            small_index.dataset[series].values[0:12] for series in range(5)
        ]
        batched = small_index.query_batch(queries, length=12, k=2)
        assert len(batched) == len(queries)
        for query, matches in zip(queries, batched, strict=True):
            singles = small_index.query(query, length=12, k=2)
            assert [m.ssid for m in matches] == [m.ssid for m in singles]
            assert [m.dtw for m in matches] == [m.dtw for m in singles]

    def test_search_group_uses_scan_distance(self, small_index, monkeypatch):
        """Bugfix regression: the in-group search must not recompute the
        query→representative DTW the scan already produced."""
        import repro.core.query_processor as qp

        processor = self._processor(small_index)
        query = small_index.dataset[2].values[3:15]
        bucket = small_index.rspace.bucket(12)
        rep_pairs = 0
        original_pairs = qp.dtw_pairs

        def counting_pairs(queries, candidates, *args, **kwargs):
            nonlocal rep_pairs
            rep_pairs += len(candidates)
            return original_pairs(queries, candidates, *args, **kwargs)

        monkeypatch.setattr(qp, "dtw_pairs", counting_pairs)
        processor.best_match(query, length=12)
        # dtw_pairs is the only kernel that runs a representative DP:
        # the scan DTWs each (unpruned) representative at most once, and
        # the group search adds no computation for the probed group's
        # representative.
        assert 0 < rep_pairs <= len(bucket.groups)

    def test_baseline_parity(self, small_dataset):
        lengths = [12, 24]
        scalar_brute = StandardDTW(use_batch_kernels=False)
        batch_brute = StandardDTW(use_batch_kernels=True)
        scalar_trillion = Trillion(use_batch_kernels=False)
        batch_trillion = Trillion(use_batch_kernels=True)
        for method in (scalar_brute, batch_brute, scalar_trillion, batch_trillion):
            method.prepare(small_dataset, lengths)
        for series in range(4):
            query = small_dataset[series].values[6:18]
            a = scalar_brute.best_match(query, length=12)
            b = batch_brute.best_match(query, length=12)
            assert a.ssid == b.ssid
            assert a.dtw == pytest.approx(b.dtw, abs=1e-9)
            c = scalar_trillion.best_match(query, length=12)
            d = batch_trillion.best_match(query, length=12)
            assert c.ssid == d.ssid
            assert c.dtw == pytest.approx(d.dtw, abs=1e-9)


class TestStackedKernels:
    """The serving layer's multi-query kernels vs their per-query twins."""

    @given(stacks(min_length=2), stacks(min_length=2))
    @settings(max_examples=60, deadline=None)
    def test_property_lb_kim_stacked_rows_match_batch(self, queries, candidates):
        q_matrix = np.asarray(queries)
        matrix = np.asarray(candidates)
        stacked = lb_kim_stacked(q_matrix, matrix)
        assert stacked.shape == (q_matrix.shape[0], matrix.shape[0])
        for row, query in enumerate(q_matrix):
            np.testing.assert_array_equal(stacked[row], lb_kim_batch(query, matrix))

    @given(stacks(min_length=2, max_length=10), st.integers(0, 4))
    @settings(max_examples=60, deadline=None)
    def test_property_lb_keogh_reverse_stacked_rows_match_batch(
        self, rows, radius
    ):
        matrix = np.asarray(rows)
        stack = envelope_matrix(matrix, radius)
        stacked = lb_keogh_reverse_stacked(matrix, stack)
        for row, query in enumerate(matrix):
            np.testing.assert_array_equal(
                stacked[row], lb_keogh_reverse_batch(query, stack)
            )

    @given(stacks(min_length=2, max_length=10), st.integers(0, 5))
    @settings(max_examples=60, deadline=None)
    def test_property_dtw_pairs_matches_scalar_dtw(self, rows, radius):
        matrix = np.asarray(rows)
        rng = np.random.default_rng(matrix.shape[0])
        candidates = rng.uniform(-10, 10, size=matrix.shape)
        distances = dtw_pairs(matrix, candidates, radius)
        for pair in range(matrix.shape[0]):
            expected = dtw(matrix[pair], candidates[pair], window=radius)
            if math.isinf(expected):
                assert math.isinf(distances[pair])
            else:
                assert distances[pair] == pytest.approx(expected, abs=1e-9)

    @given(stacks(min_length=2, max_length=10), st.integers(0, 5))
    @settings(max_examples=60, deadline=None)
    def test_property_dtw_pairs_per_lane_abandon_is_admissible(
        self, rows, radius
    ):
        matrix = np.asarray(rows)
        rng = np.random.default_rng(matrix.shape[0] + 1)
        candidates = rng.uniform(-10, 10, size=matrix.shape)
        exact = dtw_pairs(matrix, candidates, radius)
        bounds = rng.uniform(0.0, 15.0, size=matrix.shape[0])
        bounded = dtw_pairs(matrix, candidates, radius, abandon_above=bounds)
        for pair in range(matrix.shape[0]):
            if math.isinf(exact[pair]) or exact[pair] > bounds[pair]:
                # At or below the bound the lane must survive; above it
                # the lane may be abandoned (inf) but never misreported.
                assert math.isinf(bounded[pair]) or bounded[pair] == exact[pair]
            else:
                assert bounded[pair] == exact[pair]

    def test_dtw_pairs_scalar_bound_matches_dtw_batch(self):
        rng = np.random.default_rng(5)
        query = rng.uniform(-1, 1, size=16)
        candidates = rng.uniform(-1, 1, size=(12, 16))
        batch = dtw_batch(query, candidates, 3, abandon_above=2.0)
        pairs = dtw_pairs(
            np.broadcast_to(query, candidates.shape),
            candidates,
            3,
            abandon_above=2.0,
        )
        np.testing.assert_array_equal(batch, pairs)

    def test_dtw_pairs_rejects_misaligned_stacks(self):
        with pytest.raises(DistanceError, match="aligned"):
            dtw_pairs(np.zeros((2, 4)), np.zeros((3, 4)), 1)

    def test_stacked_kernels_reject_1d_queries(self):
        with pytest.raises(DistanceError, match="2-D"):
            lb_kim_stacked(np.zeros(4), np.zeros((2, 4)))

    def test_lb_keogh_reverse_stacked_chunks_identically(self, monkeypatch):
        import repro.distances.batch as batch_module

        rng = np.random.default_rng(11)
        queries = rng.uniform(-5, 5, size=(17, 24))
        stack = envelope_matrix(rng.uniform(-5, 5, size=(9, 24)), 3)
        whole = lb_keogh_reverse_stacked(queries, stack)
        monkeypatch.setattr(batch_module, "STACKED_LB_TEMP_BYTES", 1)
        chunked = lb_keogh_reverse_stacked(queries, stack)  # one row at a time
        np.testing.assert_array_equal(whole, chunked)
