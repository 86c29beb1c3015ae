"""Lockstep multiVLIWprocessor execution simulator.

Two engines execute the same lockstep model:

* :class:`LockstepSimulator` — the scalar reference: one interpreted
  loop body per operation instance;
* :class:`VectorizedSimulator` — the array-at-a-time engine (PR 5):
  batched memory accesses, hazard-check replay, non-memory instances
  never visited.  Bit-identical to the reference and the default
  everywhere (``SIM_ENGINES``/``DEFAULT_SIM_ENGINE``).
"""

from .executor import (
    LockstepSimulator,
    ReadyWindow,
    SteadyState,
    make_simulator,
    simulate,
)
from .stats import SimulationResult
from .trace import Trace, TraceEvent, trace_schedule
from .vectorized import VectorizedSimulator
from .warmstate import WARM_STATE_VERSION, WarmRecord, WarmStateStore

__all__ = [
    "DEFAULT_SIM_ENGINE",
    "LockstepSimulator",
    "ReadyWindow",
    "SIM_ENGINES",
    "SimulationResult",
    "SteadyState",
    "Trace",
    "TraceEvent",
    "VectorizedSimulator",
    "WARM_STATE_VERSION",
    "WarmRecord",
    "WarmStateStore",
    "make_simulator",
    "simulate",
    "trace_schedule",
    "validate_sim_engine",
]

#: Simulate-engine registry: every entry is proven bit-identical to the
#: scalar reference by tests/test_simulator_vectorized.py.
SIM_ENGINES = {
    "scalar": LockstepSimulator,
    "vectorized": VectorizedSimulator,
}

DEFAULT_SIM_ENGINE = "vectorized"


def validate_sim_engine(sim: str) -> str:
    """Return ``sim`` or raise on an unknown engine selection."""
    if sim not in SIM_ENGINES:
        raise KeyError(
            f"unknown simulate engine {sim!r}; "
            f"choose from {sorted(SIM_ENGINES)}"
        )
    return sim
