"""The three stages of one experiment cell, as pure functions.

=========  ==================================  ======================
stage      inputs                              product
=========  ==================================  ======================
analyze    loop, analyzer                      the loop's address trace
schedule   kernel, machine, scheduler,         the modulo ``Schedule``
           threshold, analyzer
simulate   schedule, engine, steady mode,      the ``SimulationResult``
           iteration overrides
=========  ==================================  ======================

Each function computes its product from its inputs and nothing else:
no store lookups, no telemetry, no cell bookkeeping.  Deciding which
products to compute, reusing stored ones and assembling cell results is
the :class:`~repro.engine.plan.ExecutionPlanner`'s job, and the grid
executes nothing but its plans.  The simulate stage is
:func:`repro.simulator.simulate` (or
:func:`~repro.simulator.make_simulator`, when the caller also wants the
engine's telemetry).
"""

from __future__ import annotations

from typing import Optional

from ..cme.locality import LocalityAnalyzer, default_analyzer
from ..cme.trace import AddressTrace
from ..ir.builder import Kernel
from ..ir.loop import Loop
from ..machine.config import MachineConfig
from ..scheduler.base import SchedulerConfig
from ..scheduler.baseline import BaselineScheduler
from ..scheduler.result import Schedule
from ..scheduler.rmca import RMCAScheduler

__all__ = [
    "SCHEDULER_NAMES",
    "analyze_loop",
    "make_scheduler",
    "schedule_kernel",
]

SCHEDULER_NAMES = ("baseline", "rmca")


def make_scheduler(
    name: str,
    threshold: float = 1.0,
    locality: Optional[LocalityAnalyzer] = None,
):
    """Instantiate a scheduler by its paper name (``baseline``/``rmca``).

    Both schedulers receive the locality analyzer: the figures apply the
    miss-threshold binding-prefetch step to Baseline too (its bars also
    sweep the threshold); only *cluster selection* differs.
    """
    if name not in SCHEDULER_NAMES:
        raise KeyError(
            f"unknown scheduler {name!r}; choose from {SCHEDULER_NAMES}"
        )
    analyzer = locality if locality is not None else default_analyzer()
    config = SchedulerConfig(threshold=threshold)
    if name == "rmca":
        return RMCAScheduler(analyzer, config)
    return BaselineScheduler(config=config, locality=analyzer)


def analyze_loop(
    loop: Loop, locality: LocalityAnalyzer
) -> Optional[AddressTrace]:
    """The analyze product: the address trace every CME probe samples.

    ``None`` for analyzers without a content-addressed trace store —
    they carry no shareable analyze product.
    """
    traces = getattr(locality, "traces", None)
    max_points = getattr(locality, "max_points", None)
    if traces is None or max_points is None:
        return None
    return traces.address_trace(loop, max_points)


def schedule_kernel(
    kernel: Kernel,
    machine: MachineConfig,
    scheduler: str,
    threshold: float,
    locality: Optional[LocalityAnalyzer] = None,
) -> Schedule:
    """The schedule product: one modulo schedule of ``kernel``."""
    return make_scheduler(scheduler, threshold, locality).schedule(
        kernel, machine
    )
