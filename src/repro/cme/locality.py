"""Scheduler-facing locality-analysis protocol.

The schedulers only need two statistics (Section 4.2 of the paper):

* the number of misses incurred by a *set* of memory references sharing
  one cache configuration, and
* the miss ratio of one particular memory instruction within that set.

Any object implementing :class:`LocalityAnalyzer` can drive the RMCA
scheduler; the package ships the incremental sampled engine (primary —
the paper's sampled estimator, answered incrementally over shared
traces), the from-scratch sampled reference and a closed-form analytic
model (ablation).

Analyzers may additionally expose the *batched* probe API
(``probe_clusters(loop, op, residents, caches)``) the schedulers use to
answer all candidate clusters' ``resident + [op]`` probes in one sweep;
the schedulers fall back to the per-call protocol when it is absent.
"""

from __future__ import annotations

from typing import Protocol, Sequence, runtime_checkable

from ..ir.loop import Loop
from ..ir.operations import Operation
from ..machine.config import CacheConfig
from .incremental import IncrementalCME

__all__ = [
    "LocalityAnalyzer",
    "default_analyzer",
    "locality_fingerprint",
]


@runtime_checkable
class LocalityAnalyzer(Protocol):
    """Protocol both CME backends implement."""

    name: str

    def miss_count(
        self, loop: Loop, ops: Sequence[Operation], cache: CacheConfig
    ) -> float:
        """Misses incurred by ``ops`` sharing one cache over ``loop``."""
        ...

    def miss_ratio(
        self,
        loop: Loop,
        op: Operation,
        ops: Sequence[Operation],
        cache: CacheConfig,
    ) -> float:
        """Miss ratio of ``op`` when co-located with ``ops``."""
        ...


def default_analyzer(max_points: int = 2048) -> IncrementalCME:
    """The analyzer used throughout the paper's experiments.

    The incremental engine computes exactly the sampled estimator of
    the paper (bit-identical to :class:`SamplingCME`, enforced by the
    equivalence suites) and shares its ``"sampling"`` fingerprint, so
    grid cache entries and golden recordings are interchangeable
    between the two.
    """
    return IncrementalCME(max_points=max_points)


def locality_fingerprint(analyzer: LocalityAnalyzer) -> str:
    """Stable description of a locality analyzer's configuration.

    Part of every grid cache key: two analyzers with equal fingerprints
    must drive the schedulers to identical decisions.
    """
    name = getattr(analyzer, "name", type(analyzer).__name__)
    max_points = getattr(analyzer, "max_points", None)
    if max_points is not None:
        return f"{name}:{max_points}"
    return str(name)
