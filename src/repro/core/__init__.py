"""The ONEX core: similarity groups, R-Space, indexes and query processing."""

from repro._lazy import lazy_exports

_HOMES = {
    "SimilarityGroup": "repro.core.group",
    "GroupBuilder": "repro.core.grouping",
    "RepresentativeSet": "repro.core.grouping",
    "build_groups_for_length": "repro.core.grouping",
    "reference_build_groups_for_length": "repro.core.grouping",
    "LengthBucket": "repro.core.rspace",
    "RSpace": "repro.core.rspace",
    "SPSpace": "repro.core.spspace",
    "SimilarityDegree": "repro.core.spspace",
    "BaseStats": "repro.core.results",
    "Match": "repro.core.results",
    "SeasonalGroup": "repro.core.results",
    "SeasonalResult": "repro.core.results",
    "ThresholdRecommendation": "repro.core.results",
    "OnexIndex": "repro.core.onex",
}
__getattr__, __dir__ = lazy_exports(globals(), _HOMES)

__all__ = [
    "SimilarityGroup",
    "GroupBuilder",
    "RepresentativeSet",
    "build_groups_for_length",
    "reference_build_groups_for_length",
    "LengthBucket",
    "RSpace",
    "SPSpace",
    "SimilarityDegree",
    "BaseStats",
    "Match",
    "SeasonalGroup",
    "SeasonalResult",
    "ThresholdRecommendation",
    "OnexIndex",
]
