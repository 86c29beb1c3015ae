"""Lockstep multiVLIWprocessor execution simulator.

Every run executes on :class:`VectorizedSimulator`, the array-at-a-time
engine: batched memory accesses, hazard-check replay, non-memory
instances never visited.  :func:`simulate` is its one-shot helper.

:class:`LockstepSimulator`, the scalar walk with one interpreted loop
body per operation instance, is the engine's base class, its fallback
for statically unsafe schedules and the test oracle it is proven
bit-identical to (the ``vectorized`` column of
``tests/test_differential.py``).
"""

from .executor import LockstepSimulator, ReadyWindow, SteadyState
from .stats import SimulationResult
from .trace import Trace, TraceEvent, trace_schedule
from .vectorized import VectorizedSimulator, simulate
from .warmstate import WARM_STATE_VERSION, WarmRecord, WarmStateStore

__all__ = [
    "LockstepSimulator",
    "ReadyWindow",
    "SimulationResult",
    "SteadyState",
    "Trace",
    "TraceEvent",
    "VectorizedSimulator",
    "WARM_STATE_VERSION",
    "WarmRecord",
    "WarmStateStore",
    "simulate",
    "trace_schedule",
]
