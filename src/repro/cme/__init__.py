"""Cache Miss Equations: reuse analysis and miss estimators."""

from .analytic import AnalyticCME
from .equations import EquationCME, MissBreakdown
from .incremental import IncrementalCME
from .locality import LocalityAnalyzer, default_analyzer, locality_fingerprint
from .reuse import (
    ReuseInfo,
    analyze_reuse,
    group_pairs,
    innermost_stride,
    self_spatial,
    self_temporal,
)
from .sampling import MissEstimate, SamplingCME
from .trace import TraceStore, loop_fingerprint

__all__ = [
    "AnalyticCME",
    "EquationCME",
    "IncrementalCME",
    "LocalityAnalyzer",
    "MissBreakdown",
    "MissEstimate",
    "ReuseInfo",
    "SamplingCME",
    "TraceStore",
    "analyze_reuse",
    "default_analyzer",
    "group_pairs",
    "innermost_stride",
    "locality_fingerprint",
    "loop_fingerprint",
    "self_spatial",
    "self_temporal",
]
