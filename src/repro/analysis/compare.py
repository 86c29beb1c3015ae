"""Scheduler comparison helpers.

Cells themselves execute through :class:`~repro.harness.grid.ExperimentGrid`
(whose stages are the pure functions of :mod:`repro.engine.stages`);
this module normalizes their results the way the paper's figures do
and re-exports the names comparisons need.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..engine.result import RunResult
from ..engine.stages import make_scheduler

__all__ = [
    "RunResult",
    "make_scheduler",
    "normalized_cycles",
]


def normalized_cycles(
    results: Sequence[RunResult],
    baselines: Dict[str, int],
) -> List[Dict[str, float]]:
    """Normalize each result's cycles to its kernel's baseline total.

    ``baselines`` maps kernel name → the Unified-configuration total for
    that kernel (the paper normalizes every bar to Unified).  Returns one
    record per result with normalized compute / stall / total.
    """
    records = []
    for result in results:
        try:
            reference = baselines[result.kernel]
        except KeyError:
            raise KeyError(
                f"no baseline for kernel {result.kernel!r}; "
                f"baselines cover {sorted(baselines)}"
            ) from None
        if reference <= 0:
            raise ValueError(f"non-positive baseline for {result.kernel!r}")
        records.append(
            {
                "kernel": result.kernel,
                "machine": result.machine,
                "scheduler": result.scheduler,
                "threshold": result.threshold,
                "norm_compute": result.compute_cycles / reference,
                "norm_stall": result.stall_cycles / reference,
                "norm_total": result.total_cycles / reference,
            }
        )
    return records
