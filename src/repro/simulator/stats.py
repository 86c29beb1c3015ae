"""Simulation result containers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..memory.hierarchy import MemoryStats

__all__ = ["SimulationResult"]


@dataclass
class SimulationResult:
    """Outcome of executing a modulo-scheduled loop.

    Follows the paper's decomposition (Section 2.2):
    ``total = compute + stall``, where compute is the statically known
    ``NTIMES * (NITER + SC - 1) * II`` and stall accumulates the dynamic
    lockstep stalls caused by memory latencies the compiler
    underestimated, MSHR pressure and bus contention.

    One result may be shared by several cells' results, the stage store
    and the plan (see ``ExecutionPlanner.assemble``), so it is never
    mutated; relabel a copy with ``dataclasses.replace``.
    """

    kernel: str
    machine: str
    scheduler: str
    threshold: float
    ii: int
    stage_count: int
    n_times: int
    n_iterations: int
    compute_cycles: int
    stall_cycles: int
    memory: MemoryStats = field(default_factory=MemoryStats)
    register_comms: int = 0  # dynamic inter-cluster register transfers

    @property
    def total_cycles(self) -> int:
        return self.compute_cycles + self.stall_cycles

    @property
    def stall_fraction(self) -> float:
        total = self.total_cycles
        return self.stall_cycles / total if total else 0.0

    @property
    def cycles_per_iteration(self) -> float:
        iterations = self.n_times * self.n_iterations
        return self.total_cycles / iterations if iterations else 0.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "kernel": self.kernel,
            "machine": self.machine,
            "scheduler": self.scheduler,
            "threshold": self.threshold,
            "ii": self.ii,
            "sc": self.stage_count,
            "compute_cycles": self.compute_cycles,
            "stall_cycles": self.stall_cycles,
            "total_cycles": self.total_cycles,
            "register_comms": self.register_comms,
            **{f"mem_{k}": v for k, v in self.memory.as_dict().items()},
        }
