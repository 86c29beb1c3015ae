"""Cell-execution engine: three pure stages and the plan that runs them.

An experiment cell — schedule one kernel on one machine with one
scheduler/threshold, then simulate the schedule — is three stages,
each a pure function from inputs to product
(:mod:`~repro.engine.stages`): :func:`analyze_loop`,
:func:`schedule_kernel` and :func:`~repro.simulator.simulate`.

:mod:`~repro.engine.plan` runs them for whole grids: an
:class:`ExecutionPlanner` dedups every cell's stage work *up front* by
the :class:`StageStore` key families and emits a :class:`StagePlan` of
unique, content-keyed tasks plus one assembly node per cell.  The
planner owns the store protocol, and
:func:`~repro.engine.plan.kernel_units` groups the schedule and simulate
waves into per-kernel work units.  The grid
(:class:`~repro.harness.grid.ExperimentGrid`) executes nothing but its
plans, running the same units in-process or on its process pool.
"""

from .plan import (
    AssemblyNode,
    ExecutionPlanner,
    PlanTask,
    StagePlan,
)
from .result import RunResult
from .stagestore import (
    STAGE_STORE_STAGES,
    STAGE_STORE_VERSION,
    StageStore,
)
from .stages import (
    SCHEDULER_NAMES,
    analyze_loop,
    make_scheduler,
    schedule_kernel,
)

__all__ = [
    "AssemblyNode",
    "ExecutionPlanner",
    "PlanTask",
    "RunResult",
    "SCHEDULER_NAMES",
    "STAGE_STORE_STAGES",
    "STAGE_STORE_VERSION",
    "StagePlan",
    "StageStore",
    "analyze_loop",
    "make_scheduler",
    "schedule_kernel",
]
