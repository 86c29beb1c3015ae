"""Experiment sweeps reproducing the paper's evaluation (Section 5).

The two figure generators mirror the paper's methodology:

* every cell schedules all suite kernels with one scheduler and one
  miss threshold on one machine, simulates them, and normalizes each
  kernel's total cycles to the Unified reference (threshold 1.00),
* bars average the normalized compute and stall components over kernels
  (the paper reports "normalized number of cycles averaged for all
  benchmarks" with each bar split into compute and stall).

:func:`figure5` sweeps register-bus × memory-bus latencies with an
*unbounded* number of buses (Section 5.2); :func:`figure6` fixes
2 register buses @ 1 cycle and sweeps the number and latency of memory
buses (Section 5.3).

Each figure is a figure scenario (:mod:`repro.harness.scenarios`): its
``figure_args`` build its groups, the scenario's one enumerator lists its
cells (the Unified normalization reference first) and one
:class:`~repro.harness.grid.ExperimentGrid` run computes them, so cells
shared between sweeps are computed once, and ``n_jobs > 1`` fans the
whole figure out over worker processes without changing any result.
:func:`figure_from_rows` then normalizes the cells into bars.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..analysis.compare import RunResult, normalized_cycles
from ..cme.locality import LocalityAnalyzer
from ..ir.builder import Kernel
from .grid import ExperimentGrid, ProgressCallback, resolve_grid

__all__ = [
    "Bar",
    "FigureData",
    "DEFAULT_THRESHOLDS",
    "figure_from_rows",
    "figure5",
    "figure6",
]

DEFAULT_THRESHOLDS: Tuple[float, ...] = (1.0, 0.75, 0.25, 0.0)


@dataclass(frozen=True)
class Bar:
    """One averaged bar of a figure (compute + stall, normalized)."""

    group: str
    scheduler: str
    threshold: float
    norm_compute: float
    norm_stall: float

    @property
    def norm_total(self) -> float:
        return self.norm_compute + self.norm_stall

    @property
    def label(self) -> str:
        return f"{self.group} {self.scheduler} thr={self.threshold:.2f}"


@dataclass
class FigureData:
    """All bars of one figure plus the raw per-kernel records."""

    title: str
    bars: List[Bar] = field(default_factory=list)
    records: List[Dict[str, object]] = field(default_factory=list)

    def bars_in_group(self, group: str) -> List[Bar]:
        return [bar for bar in self.bars if bar.group == group]

    def bar(self, group: str, scheduler: str, threshold: float) -> Bar:
        for candidate in self.bars:
            if (
                candidate.group == group
                and candidate.scheduler == scheduler
                and math.isclose(
                    candidate.threshold, threshold,
                    rel_tol=1e-9, abs_tol=1e-9,
                )
            ):
                return candidate
        raise KeyError(f"no bar ({group!r}, {scheduler!r}, {threshold})")

    @property
    def groups(self) -> List[str]:
        seen: Dict[str, None] = {}
        for bar in self.bars:
            seen.setdefault(bar.group, None)
        return list(seen)


#: One cell of a figure: ``(group label, threshold, kernel name, result)``.
Row = Tuple[str, float, str, RunResult]


def _aggregate(
    rows: Sequence[Row], reference: Dict[str, int]
) -> Tuple[Bar, List[Dict[str, object]]]:
    """Average one bar's per-kernel rows (fixed kernel order)."""
    group, threshold, _kernel, first = rows[0]
    results = [row[3] for row in rows]
    records: List[Dict[str, object]] = []
    compute_sum = 0.0
    stall_sum = 0.0
    for result, norm in zip(results, normalized_cycles(results, reference)):
        compute_sum += norm["norm_compute"]
        stall_sum += norm["norm_stall"]
        records.append(
            {
                "group": group,
                **result.simulation.as_dict(),
                "norm_compute": norm["norm_compute"],
                "norm_stall": norm["norm_stall"],
                "norm_total": norm["norm_total"],
            }
        )
    n = len(results)
    bar = Bar(
        group=group,
        scheduler=first.scheduler,
        threshold=threshold,
        norm_compute=compute_sum / n,
        norm_stall=stall_sum / n,
    )
    return bar, records


def figure_from_rows(
    title: str, rows: Iterable[Row], n_kernels: int
) -> FigureData:
    """Normalize a figure scenario's rows into its bars and records.

    ``rows`` come in enumeration order
    (:meth:`~repro.harness.scenarios.ScenarioOutcome.iter_rows`): the
    ``n_kernels`` reference cells, whose totals are the denominators,
    then ``n_kernels`` cells per bar.
    """
    rows = list(rows)
    reference = {
        kernel: result.total_cycles
        for _group, _threshold, kernel, result in rows[:n_kernels]
    }
    figure = FigureData(title=title)
    for start in range(n_kernels, len(rows), n_kernels):
        bar, records = _aggregate(rows[start:start + n_kernels], reference)
        figure.bars.append(bar)
        figure.records.extend(records)
    return figure


def _figure(
    figure: str,
    kernels: Optional[Sequence[Kernel]],
    locality: Optional[LocalityAnalyzer],
    grid: Optional[ExperimentGrid],
    n_jobs: int,
    progress: Optional[ProgressCallback],
    steady: str,
    **figure_args: object,
) -> FigureData:
    """Run ``figure`` as an inline figure scenario."""
    from .scenarios import ScenarioSpec, run_on_grid  # it imports this module

    scenario = ScenarioSpec(
        name=figure,
        description=figure,
        figure=figure,
        figure_args=tuple(sorted(figure_args.items())),
        steady=steady,
    )
    grid = resolve_grid(locality, grid, n_jobs=n_jobs, progress=progress)
    return run_on_grid(scenario, grid, kernels).figure


def figure5(
    n_clusters: int = 2,
    latencies: Sequence[int] = (1, 2, 4),
    thresholds: Sequence[float] = DEFAULT_THRESHOLDS,
    kernels: Optional[Sequence[Kernel]] = None,
    locality: Optional[LocalityAnalyzer] = None,
    grid: Optional[ExperimentGrid] = None,
    n_jobs: int = 1,
    progress: Optional[ProgressCallback] = None,
    steady: str = "auto",
) -> FigureData:
    """Figure 5: unbounded buses, LRB × LMB latency sweep.

    Groups are named ``LRB=x,LMB=y baseline|rmca`` plus the leading
    ``unified`` group; each group holds one bar per threshold.  Pass a
    shared :class:`ExperimentGrid` (or ``n_jobs``/``progress`` to build
    one) to parallelize and to reuse stored products across figures.
    """
    return _figure(
        "figure5", kernels, locality, grid, n_jobs, progress, steady,
        n_clusters=n_clusters, latencies=tuple(latencies),
        thresholds=tuple(thresholds),
    )


def figure6(
    n_clusters: int = 2,
    bus_counts: Sequence[int] = (1, 2),
    bus_latencies: Sequence[int] = (1, 4),
    thresholds: Sequence[float] = DEFAULT_THRESHOLDS,
    kernels: Optional[Sequence[Kernel]] = None,
    locality: Optional[LocalityAnalyzer] = None,
    grid: Optional[ExperimentGrid] = None,
    n_jobs: int = 1,
    progress: Optional[ProgressCallback] = None,
    steady: str = "auto",
) -> FigureData:
    """Figure 6: realistic buses — 2 register buses @ 1 cycle, NMB × LMB.

    Groups are named ``NMB=n,LMB=y baseline|rmca`` plus ``unified``
    (which shares the clustered runs' single-bus memory system so the
    comparison isolates clustering, not bus bandwidth).
    """
    return _figure(
        "figure6", kernels, locality, grid, n_jobs, progress, steady,
        n_clusters=n_clusters, bus_counts=tuple(bus_counts),
        bus_latencies=tuple(bus_latencies), thresholds=tuple(thresholds),
    )
