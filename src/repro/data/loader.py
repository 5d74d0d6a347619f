"""Reading and writing datasets in the UCR archive text format.

The UCR Time Series Archive distributes each dataset as plain text: one
series per line, the first field being the integer class label, the rest
the observations, separated by commas or whitespace. The paper's
experiments all run on UCR datasets, so this loader lets users drop in
real UCR files when they have them; our benchmarks fall back to the
synthetic generators in :mod:`repro.data.synthetic`.
"""

from __future__ import annotations

import os
from collections.abc import Iterable

from repro.data.dataset import Dataset
from repro.data.timeseries import TimeSeries
from repro.exceptions import DataError


def _split_fields(line: str) -> list[str]:
    """Split a UCR line on commas or arbitrary whitespace."""
    if "," in line:
        return [field for field in line.split(",") if field.strip()]
    return line.split()


def load_ucr_file(
    path: str | os.PathLike,
    name: str = "",
    has_labels: bool = True,
    max_series: int | None = None,
) -> Dataset:
    """Load a UCR-format text file into a :class:`Dataset`.

    Parameters
    ----------
    path:
        File to read.
    name:
        Dataset name; defaults to the file's stem.
    has_labels:
        When ``True`` (the UCR convention) the first field of every line is
        an integer class label.
    max_series:
        Optional cap on the number of series read (useful for sampling big
        archives).
    """
    path = os.fspath(path)
    series: list[TimeSeries] = []
    try:
        handle = open(path, encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read UCR file {path!r}: {exc}") from exc
    with handle:
        for line_no, raw_line in enumerate(handle, start=1):
            line = raw_line.strip()
            if not line or line.startswith("#"):
                continue
            fields = _split_fields(line)
            label: int | None = None
            if has_labels:
                if len(fields) < 2:
                    raise DataError(
                        f"{path}:{line_no}: expected a label and at least one value"
                    )
                try:
                    label = int(float(fields[0]))
                except ValueError as exc:
                    raise DataError(
                        f"{path}:{line_no}: label {fields[0]!r} is not numeric"
                    ) from exc
                fields = fields[1:]
            try:
                values = [float(field) for field in fields]
            except ValueError as exc:
                raise DataError(f"{path}:{line_no}: non-numeric value: {exc}") from exc
            series.append(
                TimeSeries(values, name=f"{name or 'series'}-{len(series)}", label=label)
            )
            if max_series is not None and len(series) >= max_series:
                break
    if not series:
        raise DataError(f"{path}: no series found")
    if not name:
        name = os.path.splitext(os.path.basename(path))[0]
    return Dataset(series, name=name)


def save_ucr_file(
    dataset: Dataset | Iterable[TimeSeries],
    path: str | os.PathLike,
    with_labels: bool = True,
) -> None:
    """Write series to UCR text format (comma separated).

    Series without a label are written with label ``0`` when
    ``with_labels`` is set, mirroring the archive's convention that every
    line starts with a class id.
    """
    path = os.fspath(path)
    with open(path, "w", encoding="utf-8") as handle:
        for series in dataset:
            fields: list[str] = []
            if with_labels:
                fields.append(str(series.label if series.label is not None else 0))
            fields.extend(f"{value:.10g}" for value in series.values)
            handle.write(",".join(fields) + "\n")
