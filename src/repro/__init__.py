"""Reproduction of *Modulo Scheduling for a Fully-Distributed Clustered
VLIW Architecture* (Jesús Sánchez and Antonio González, MICRO-33, 2000).

The package implements the complete system the paper describes:

* :mod:`repro.ir` — loop IR: operations, affine references, dependence
  graphs, and a builder DSL for writing kernels,
* :mod:`repro.machine` — the multiVLIWprocessor machine model and the
  paper's Table 1 configurations,
* :mod:`repro.cme` — the Cache Miss Equations locality analysis (sampled
  and analytic backends),
* :mod:`repro.scheduler` — modulo scheduling: MII, SMS ordering, the
  register-communication Baseline and the proposed RMCA scheduler with
  binding prefetching,
* :mod:`repro.memory` — the distributed memory substrate: per-cluster
  non-blocking caches, MSHRs, snoopy MSI coherence, shared memory buses,
* :mod:`repro.simulator` — lockstep execution with the paper's
  NCYCLE_compute / NCYCLE_stall accounting,
* :mod:`repro.workloads` — SPECfp95-style kernels, the Section 3
  motivating example, a random kernel generator,
* :mod:`repro.analysis` — the closed-form cycle model and schedule
  metrics,
* :mod:`repro.engine` — the analyze/schedule/simulate stages as pure
  functions and the stage plan that dedups their work across cells
  against a content-addressed stage store,
* :mod:`repro.harness` — the Figure 5 / Figure 6 experiment sweeps and
  the :class:`~repro.harness.grid.ExperimentGrid` cell engine (run
  :class:`~repro.harness.grid.CellSpec` grids through it).

Quickstart::

    from repro import (
        LoopBuilder, two_cluster, RMCAScheduler, SchedulerConfig,
        default_analyzer, simulate,
    )

    b = LoopBuilder("saxpy")
    i = b.dim("i", 0, 1024)
    x, y = b.array("X", (1024,)), b.array("Y", (1024,))
    s = b.fmul(b.load(x, [b.aff(i=1)]), b.fconst("alpha"))
    t = b.fadd(s, b.load(y, [b.aff(i=1)]))
    b.store(y, [b.aff(i=1)], t)
    kernel = b.build()

    scheduler = RMCAScheduler(default_analyzer(), SchedulerConfig(threshold=0.25))
    schedule = scheduler.schedule(kernel, two_cluster())
    print(simulate(schedule).total_cycles)
"""

from .analysis import (
    CyclePrediction,
    RunResult,
    ScheduleMetrics,
    make_scheduler,
    ncycle_compute,
    predict_cycles,
    schedule_metrics,
)
from .cme import AnalyticCME, EquationCME, SamplingCME, default_analyzer
from .harness import FigureData, figure5, figure6
from .isa import KernelProgram, encode_kernel
from .ir import (
    AffineExpr,
    Array,
    ArrayReference,
    Kernel,
    Loop,
    LoopBuilder,
    OpClass,
    Operation,
)
from .machine import (
    BusConfig,
    CacheConfig,
    ClusterConfig,
    MachineConfig,
    four_cluster,
    preset,
    two_cluster,
    unified,
)
from .scheduler import (
    BaselineScheduler,
    ExpandedLoop,
    RMCAScheduler,
    Schedule,
    SchedulerConfig,
    SchedulingError,
    expand,
)
from .simulator import (
    LockstepSimulator,
    SimulationResult,
    VectorizedSimulator,
    simulate,
)
from .transform import unroll
from .workloads import (
    SPEC_KERNELS,
    motivating_kernel,
    motivating_machine,
    random_kernel,
    spec_suite,
)

__version__ = "1.0.0"

__all__ = [
    "AffineExpr",
    "AnalyticCME",
    "Array",
    "ArrayReference",
    "BaselineScheduler",
    "BusConfig",
    "CacheConfig",
    "ClusterConfig",
    "CyclePrediction",
    "EquationCME",
    "ExpandedLoop",
    "FigureData",
    "Kernel",
    "KernelProgram",
    "LockstepSimulator",
    "VectorizedSimulator",
    "Loop",
    "LoopBuilder",
    "MachineConfig",
    "OpClass",
    "Operation",
    "RMCAScheduler",
    "RunResult",
    "SPEC_KERNELS",
    "SamplingCME",
    "Schedule",
    "ScheduleMetrics",
    "SchedulerConfig",
    "SchedulingError",
    "SimulationResult",
    "default_analyzer",
    "encode_kernel",
    "expand",
    "figure5",
    "figure6",
    "four_cluster",
    "make_scheduler",
    "motivating_kernel",
    "motivating_machine",
    "ncycle_compute",
    "predict_cycles",
    "preset",
    "random_kernel",
    "schedule_metrics",
    "simulate",
    "spec_suite",
    "two_cluster",
    "unified",
    "unroll",
]
