"""Input validation helpers shared across the package."""

from __future__ import annotations

import os
from collections.abc import Sequence
from typing import Any

import numpy as np

from repro.exceptions import DataError, IndexConstructionError


def as_float_array(values: Any, name: str = "values") -> np.ndarray:
    """Coerce ``values`` into a 1-D ``float64`` array.

    Raises :class:`~repro.exceptions.DataError` for empty input, wrong
    dimensionality, or non-finite entries (NaN / inf), all of which would
    silently corrupt distance computations downstream.
    """
    try:
        array = np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise DataError(f"{name} is not numeric: {exc}") from exc
    if array.ndim != 1:
        raise DataError(f"{name} must be 1-dimensional, got shape {array.shape}")
    if array.size == 0:
        raise DataError(f"{name} must not be empty")
    if not np.all(np.isfinite(array)):
        raise DataError(f"{name} contains NaN or infinite values")
    return array


def require(condition: bool, message: str) -> None:
    """Raise :class:`~repro.exceptions.DataError` unless ``condition`` holds."""
    if not condition:
        raise DataError(message)


def check_positive(value: float, name: str = "value") -> float:
    """Validate that ``value`` is a finite number strictly greater than zero."""
    value = float(value)
    if not np.isfinite(value) or value <= 0:
        raise DataError(f"{name} must be a positive finite number, got {value}")
    return value


def check_probability(value: float, name: str = "value") -> float:
    """Validate that ``value`` lies in the closed interval [0, 1]."""
    value = float(value)
    if not np.isfinite(value) or not 0.0 <= value <= 1.0:
        raise DataError(f"{name} must lie in [0, 1], got {value}")
    return value


def check_lengths(lengths: Sequence[int], max_length: int) -> list[int]:
    """Validate a collection of subsequence lengths against ``max_length``.

    Returns the lengths sorted ascending with duplicates removed.
    """
    cleaned = sorted({int(length) for length in lengths})
    if not cleaned:
        raise DataError("at least one subsequence length is required")
    if cleaned[0] < 2:
        raise DataError(f"subsequence lengths must be >= 2, got {cleaned[0]}")
    if cleaned[-1] > max_length:
        raise DataError(
            f"subsequence length {cleaned[-1]} exceeds the longest series ({max_length})"
        )
    return cleaned


def resolve_n_jobs(n_jobs: int | None) -> int:
    """Normalize an ``n_jobs`` spec to a concrete worker count.

    ``None`` means sequential (1). Negative values count back from the
    machine: ``-1`` is every core, ``-2`` all but one, and so on.
    """
    if n_jobs is None:
        return 1
    n_jobs = int(n_jobs)
    if n_jobs == 0:
        raise IndexConstructionError(
            "n_jobs must be >= 1, or negative to count back from the "
            "core count (-1 = all cores)"
        )
    if n_jobs < 0:
        return max(1, (os.cpu_count() or 1) + 1 + n_jobs)
    return n_jobs
