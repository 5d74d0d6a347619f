"""ONEX - Online Exploration of Time Series (VLDB 2016) reproduction.

Public API quick tour::

    from repro import OnexIndex, make_dataset

    dataset = make_dataset("ItalyPower", n_series=30)
    index = OnexIndex.build(dataset, st=0.2)
    best = index.query(sample_sequence)[0]          # Q1 similarity
    clusters = index.seasonal(length=12)            # Q2 seasonal similarity
    ranges = index.recommend("S")                   # Q3 threshold guidance

See DESIGN.md for the system inventory (including the vectorized batch
kernel layer) and the tables under ``benchmarks/results/`` — produced
by running the ``benchmarks/`` suite — for the paper-versus-measured
results.
"""

from repro._lazy import lazy_exports

_HOMES = {
    "OnexIndex": "repro.core.onex",
    "default_length_grid": "repro.core.onex",
    "BaseStats": "repro.core.results",
    "Match": "repro.core.results",
    "SeasonalGroup": "repro.core.results",
    "SeasonalResult": "repro.core.results",
    "ThresholdRecommendation": "repro.core.results",
    "SimilarityDegree": "repro.core.spspace",
    "Dataset": "repro.data.dataset",
    "TimeSeries": "repro.data.timeseries",
    "SubsequenceId": "repro.data.timeseries",
    "load_ucr_file": "repro.data.loader",
    "save_ucr_file": "repro.data.loader",
    "make_dataset": "repro.data.synthetic",
    # Through the (eager) package, not the submodules: `dtw`, `erp` and
    # `euclidean` are also submodule names there.
    "dtw": "repro.distances",
    "normalized_dtw": "repro.distances",
    "euclidean": "repro.distances",
    "normalized_euclidean": "repro.distances",
    "pdtw": "repro.distances",
    "lcss_distance": "repro.distances",
    "erp": "repro.distances",
    "OnexError": "repro.exceptions",
    "OnexService": "repro.serve.service",
}
__getattr__, __dir__ = lazy_exports(globals(), _HOMES)

__version__ = "1.0.0"

__all__ = [
    "OnexIndex",
    "default_length_grid",
    "BaseStats",
    "Match",
    "SeasonalGroup",
    "SeasonalResult",
    "ThresholdRecommendation",
    "SimilarityDegree",
    "Dataset",
    "TimeSeries",
    "SubsequenceId",
    "load_ucr_file",
    "save_ucr_file",
    "make_dataset",
    "dtw",
    "normalized_dtw",
    "euclidean",
    "normalized_euclidean",
    "pdtw",
    "lcss_distance",
    "erp",
    "OnexError",
    "OnexService",
    "__version__",
]
