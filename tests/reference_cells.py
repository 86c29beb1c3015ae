"""Store-less reference execution: one cell at a time, pure stages only.

The grid runs cells through stage plans over a content-addressed store,
deduplicating work across cells.  This helper is what those plans must
reproduce bit for bit: each cell calls the pure stage functions —
:func:`repro.engine.stages.schedule_kernel`, then
:func:`repro.simulator.simulate` — with nothing shared between cells but
the analyzer.

:func:`reference_analyzer` gives the differential matrix
(``tests/test_differential.py``) its oracle's analyzer; the matrix
simulates with the scalar ``LockstepSimulator`` under steady ``off``.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from repro.cme import IncrementalCME, SamplingCME
from repro.cme.locality import LocalityAnalyzer, default_analyzer
from repro.engine import RunResult, schedule_kernel
from repro.harness.grid import CellSpec
from repro.ir.builder import Kernel
from repro.machine.config import MachineConfig
from repro.simulator import simulate
from repro.workloads import kernel_by_name


def reference_cell(
    kernel: Kernel,
    machine: MachineConfig,
    scheduler: str,
    threshold: float = 1.0,
    locality: Optional[LocalityAnalyzer] = None,
    n_iterations: Optional[int] = None,
    n_times: Optional[int] = None,
    steady: Optional[str] = None,
) -> RunResult:
    """Schedule and simulate one cell from scratch."""
    if locality is None:
        locality = default_analyzer()
    schedule = schedule_kernel(kernel, machine, scheduler, threshold, locality)
    return RunResult(
        kernel=kernel.name,
        machine=machine.name,
        scheduler=scheduler,
        threshold=threshold,
        schedule=schedule,
        simulation=simulate(schedule, n_iterations, n_times, steady=steady),
    )


def reference_run(
    specs: Sequence[CellSpec],
    locality: Optional[LocalityAnalyzer] = None,
    kernels: Optional[Mapping[str, Kernel]] = None,
) -> list:
    """:func:`reference_cell` for every spec, in order (suite kernels
    resolve by name; others come from ``kernels``)."""
    kernels = dict(kernels or {})
    return [
        reference_cell(
            kernels.get(spec.kernel) or kernel_by_name(spec.kernel),
            spec.build_machine(),
            spec.scheduler,
            spec.threshold,
            locality,
            spec.n_iterations,
            spec.n_times,
            steady=spec.steady,
        )
        for spec in specs
    ]


def reference_analyzer(locality):
    """The oracle's analyzer for ``locality``: ``SamplingCME`` for the
    sampled estimator ``IncrementalCME`` computes; an analyzer with no
    second implementation (equations, analytic) stands for itself."""
    if isinstance(locality, IncrementalCME):
        return SamplingCME(max_points=locality.max_points)
    return locality


def stage_work(grid):
    """``(schedule tasks, simulate tasks, stage-store writes)`` a grid
    has executed so far — all three stay put across a run that computes
    nothing."""
    stores = sum(c["stores"] for c in grid.stage_store.telemetry().values())
    plan = grid.stats.plan
    return plan.get("schedule_tasks", 0), plan.get("simulate_tasks", 0), stores
