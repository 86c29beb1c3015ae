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

Both figures enumerate their cells as :class:`~repro.harness.grid.CellSpec`
grids and submit them through one
:class:`~repro.harness.grid.ExperimentGrid` run, so cells shared between
sweeps (most importantly the Unified normalization reference) are
computed once, and ``n_jobs > 1`` fans the whole figure out over worker
processes without changing any result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..analysis.compare import RunResult
from ..cme.locality import LocalityAnalyzer
from ..ir.builder import Kernel
from ..machine.config import BusConfig, MachineConfig
from ..machine.presets import four_cluster, two_cluster, unified
from ..simulator import DEFAULT_SIM_ENGINE
from ..workloads.suite import spec_suite
from .grid import (
    CellSpec,
    ExperimentGrid,
    ProgressCallback,
    locality_fingerprint,
)

__all__ = [
    "Bar",
    "FigureData",
    "DEFAULT_THRESHOLDS",
    "unified_reference",
    "suite_bar",
    "figure5",
    "figure6",
]

DEFAULT_THRESHOLDS: Tuple[float, ...] = (1.0, 0.75, 0.25, 0.0)

_CLUSTER_PRESETS = {2: two_cluster, 4: four_cluster}

#: The bandwidth-free memory system the normalization reference runs on.
_REFERENCE_BUS = BusConfig(count=None, latency=1)


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


def _resolve_grid(
    locality: Optional[LocalityAnalyzer],
    grid: Optional[ExperimentGrid],
    n_jobs: int = 1,
    progress: Optional[ProgressCallback] = None,
) -> ExperimentGrid:
    """The grid a sweep runs on; refuses silently-conflicting analyzers.

    An explicit ``grid`` carries its own analyzer, so a ``locality``
    argument naming a *different* configuration would be ignored —
    raise instead of computing bars the caller didn't ask for.
    """
    if grid is None:
        return ExperimentGrid(
            locality=locality, n_jobs=n_jobs, progress=progress
        )
    if locality is not None and locality_fingerprint(
        locality
    ) != locality_fingerprint(grid.locality):
        raise ValueError(
            f"conflicting locality analyzers: the sweep was given "
            f"{locality_fingerprint(locality)!r} but the grid runs "
            f"{locality_fingerprint(grid.locality)!r}; pass one or the "
            f"other"
        )
    return grid


def _aggregate(
    group: str,
    kernels: Sequence[Kernel],
    results: Sequence[RunResult],
    scheduler: str,
    threshold: float,
    reference: Dict[str, int],
) -> Tuple[Bar, List[Dict[str, object]]]:
    """Average one bar's per-kernel cells (fixed kernel order)."""
    records: List[Dict[str, object]] = []
    compute_sum = 0.0
    stall_sum = 0.0
    for kernel, result in zip(kernels, results):
        denom = reference[kernel.name]
        compute_sum += result.compute_cycles / denom
        stall_sum += result.stall_cycles / denom
        records.append(
            {
                "group": group,
                **result.simulation.as_dict(),
                "norm_compute": result.compute_cycles / denom,
                "norm_stall": result.stall_cycles / denom,
                "norm_total": result.total_cycles / denom,
            }
        )
    n = len(kernels)
    bar = Bar(
        group=group,
        scheduler=scheduler,
        threshold=threshold,
        norm_compute=compute_sum / n,
        norm_stall=stall_sum / n,
    )
    return bar, records


def unified_reference(
    kernels: Sequence[Kernel],
    locality: Optional[LocalityAnalyzer] = None,
    memory_bus: Optional[BusConfig] = None,
    grid: Optional[ExperimentGrid] = None,
    steady: str = "auto",
    sim: str = DEFAULT_SIM_ENGINE,
) -> Dict[str, int]:
    """Per-kernel total cycles on Unified at threshold 1.00.

    This is the figures' normalization denominator.  The memory bus
    defaults to an unbounded 1-cycle pool so the reference measures the
    machine, not bus starvation; pass an explicit bus to reproduce a
    bandwidth-limited reference.
    """
    grid = _resolve_grid(locality, grid)
    grid.register(kernels)
    machine = unified(
        memory_bus=_REFERENCE_BUS if memory_bus is None else memory_bus
    )
    specs = [
        CellSpec.of(kernel, machine, "baseline", 1.0, steady=steady, sim=sim)
        for kernel in kernels
    ]
    results = grid.run(specs)
    return {
        kernel.name: result.total_cycles
        for kernel, result in zip(kernels, results)
    }


def suite_bar(
    group: str,
    kernels: Sequence[Kernel],
    machine: MachineConfig,
    scheduler: str,
    threshold: float,
    locality: Optional[LocalityAnalyzer],
    reference: Dict[str, int],
    grid: Optional[ExperimentGrid] = None,
    steady: str = "auto",
    sim: str = DEFAULT_SIM_ENGINE,
) -> Tuple[Bar, List[Dict[str, object]]]:
    """Run one bar's cells (through the grid) and average them."""
    grid = _resolve_grid(locality, grid)
    grid.register(kernels)
    specs = [
        CellSpec.of(kernel, machine, scheduler, threshold, steady=steady, sim=sim)
        for kernel in kernels
    ]
    results = grid.run(specs)
    return _aggregate(
        group, kernels, results, scheduler, threshold, reference
    )


def _assemble_figure(
    title: str,
    kernels: Sequence[Kernel],
    thresholds: Sequence[float],
    unified_machine: MachineConfig,
    groups: Sequence[Tuple[str, MachineConfig, str]],
    grid: ExperimentGrid,
    steady: str = "auto",
    sim: str = DEFAULT_SIM_ENGINE,
) -> FigureData:
    """Enumerate every cell of a figure, run them in one grid wave.

    ``groups`` lists ``(group name, machine, scheduler)`` in figure
    order; the Unified reference cells lead the submission so their
    totals normalize everything else.  Bar and record ordering is fully
    determined by the enumeration, never by completion order.
    """
    grid.register(kernels)
    reference_machine = unified(memory_bus=_REFERENCE_BUS)
    specs: List[CellSpec] = [
        CellSpec.of(
            kernel, reference_machine, "baseline", 1.0, steady=steady, sim=sim
        )
        for kernel in kernels
    ]
    bar_plan: List[Tuple[str, str, float, int]] = []

    def plan(
        group: str, machine: MachineConfig, scheduler: str, threshold: float
    ) -> None:
        bar_plan.append((group, scheduler, threshold, len(specs)))
        specs.extend(
            CellSpec.of(
                kernel, machine, scheduler, threshold, steady=steady, sim=sim
            )
            for kernel in kernels
        )

    for threshold in thresholds:
        plan("unified", unified_machine, "baseline", threshold)
    for group, machine, scheduler in groups:
        for threshold in thresholds:
            plan(group, machine, scheduler, threshold)

    results = grid.run(specs)
    n = len(kernels)
    reference = {
        kernel.name: result.total_cycles
        for kernel, result in zip(kernels, results[:n])
    }
    figure = FigureData(title=title)
    for group, scheduler, threshold, start in bar_plan:
        bar, records = _aggregate(
            group,
            kernels,
            results[start:start + n],
            scheduler,
            threshold,
            reference,
        )
        figure.bars.append(bar)
        figure.records.extend(records)
    return figure


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
    sim: str = DEFAULT_SIM_ENGINE,
) -> FigureData:
    """Figure 5: unbounded buses, LRB × LMB latency sweep.

    Groups are named ``LRB=x,LMB=y baseline|rmca`` plus the leading
    ``unified`` group; each group holds one bar per threshold.  Pass a
    shared :class:`ExperimentGrid` (or ``n_jobs``/``progress`` to build
    one) to parallelize and to reuse stored products across figures.
    """
    if n_clusters not in _CLUSTER_PRESETS:
        raise ValueError(f"n_clusters must be one of {sorted(_CLUSTER_PRESETS)}")
    kernels = list(kernels) if kernels is not None else spec_suite()
    grid = _resolve_grid(locality, grid, n_jobs, progress)
    preset = _CLUSTER_PRESETS[n_clusters]
    groups: List[Tuple[str, MachineConfig, str]] = []
    for lrb in latencies:
        for lmb in latencies:
            machine = preset(
                register_bus=BusConfig(count=None, latency=lrb),
                memory_bus=BusConfig(count=None, latency=lmb),
            )
            for scheduler in ("baseline", "rmca"):
                groups.append(
                    (f"LRB={lrb},LMB={lmb} {scheduler}", machine, scheduler)
                )
    return _assemble_figure(
        title=f"Figure 5 ({n_clusters}-cluster): unbounded buses",
        kernels=kernels,
        thresholds=thresholds,
        unified_machine=unified(memory_bus=_REFERENCE_BUS),
        groups=groups,
        grid=grid,
        steady=steady,
        sim=sim,
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
    sim: str = DEFAULT_SIM_ENGINE,
) -> FigureData:
    """Figure 6: realistic buses — 2 register buses @ 1 cycle, NMB × LMB.

    Groups are named ``NMB=n,LMB=y baseline|rmca`` plus ``unified``
    (which shares the clustered runs' single-bus memory system so the
    comparison isolates clustering, not bus bandwidth).
    """
    if n_clusters not in _CLUSTER_PRESETS:
        raise ValueError(f"n_clusters must be one of {sorted(_CLUSTER_PRESETS)}")
    kernels = list(kernels) if kernels is not None else spec_suite()
    grid = _resolve_grid(locality, grid, n_jobs, progress)
    preset = _CLUSTER_PRESETS[n_clusters]
    register_bus = BusConfig(count=2, latency=1)
    groups: List[Tuple[str, MachineConfig, str]] = []
    for nmb in bus_counts:
        for lmb in bus_latencies:
            machine = preset(
                register_bus=register_bus,
                memory_bus=BusConfig(count=nmb, latency=lmb),
            )
            for scheduler in ("baseline", "rmca"):
                groups.append(
                    (f"NMB={nmb},LMB={lmb} {scheduler}", machine, scheduler)
                )
    return _assemble_figure(
        title=f"Figure 6 ({n_clusters}-cluster): realistic buses",
        kernels=kernels,
        thresholds=thresholds,
        unified_machine=unified(memory_bus=BusConfig(count=1, latency=1)),
        groups=groups,
        grid=grid,
        steady=steady,
        sim=sim,
    )
