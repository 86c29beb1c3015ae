"""Cell result containers shared by every layer above the simulator.

:class:`RunResult` is the unit of currency of the whole experiment
stack: the stage plan assembles it, the grid returns it, the sweeps
normalize it.  It lives in the engine package (rather than
``repro.analysis``) so the engine does not depend on the analysis
layer; :mod:`repro.analysis.compare` re-exports it for compatibility.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..scheduler.result import Schedule
from ..simulator.stats import SimulationResult

__all__ = ["RunResult"]


@dataclass(frozen=True)
class RunResult:
    """One (kernel, machine, scheduler, threshold) experiment cell."""

    kernel: str
    machine: str
    scheduler: str
    threshold: float
    schedule: Schedule
    simulation: SimulationResult

    @property
    def total_cycles(self) -> int:
        return self.simulation.total_cycles

    @property
    def compute_cycles(self) -> int:
        return self.simulation.compute_cycles

    @property
    def stall_cycles(self) -> int:
        return self.simulation.stall_cycles

    def canonical(self) -> Dict[str, object]:
        """Plain-data projection of everything the cell observed.

        Two results are equivalent iff their canonical forms are equal;
        unlike ``==`` this also holds across pickling boundaries (the
        dependence graph inside ``schedule.kernel`` compares by identity),
        so the parallel-equivalence tests compare these.
        """
        return {
            "kernel": self.kernel,
            "machine": self.machine,
            "scheduler": self.scheduler,
            "threshold": self.threshold,
            "ii": self.schedule.ii,
            "mii": self.schedule.mii,
            "placements": sorted(
                (p.op, p.cluster, p.time, p.assumed_latency)
                for p in self.schedule.placements.values()
            ),
            "communications": sorted(
                (c.producer, c.src_cluster, c.dst_cluster, c.bus,
                 c.start, c.latency)
                for c in self.schedule.communications
            ),
            "simulation": self.simulation.as_dict(),
        }
