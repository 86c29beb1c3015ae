"""Parallel experiment-grid engine.

Every figure of the paper's evaluation is a grid of independent
``kernel × machine × scheduler × threshold`` cells.  This module turns
that observation into infrastructure:

* :class:`CellSpec` — a hashable, JSON-serializable description of one
  cell.  The machine is carried as its canonical
  :meth:`~repro.machine.config.MachineConfig.to_dict` JSON encoding and
  the kernel as ``name`` plus a content fingerprint, so a spec fully
  identifies the computation without holding live objects.
* :class:`ExperimentGrid` — an engine that executes a sequence of specs
  through one :class:`~repro.engine.plan.StagePlan` per call: the
  :class:`~repro.engine.plan.ExecutionPlanner` dedups the analyze,
  schedule and simulate work of every cell *up front* against the
  grid's :class:`~repro.engine.stagestore.StageStore`, only the unique
  misses run, and every cell's result is assembled from the shared
  products, **in submission order** regardless of completion order.
  The schedule and simulate waves run in per-kernel work units
  (:func:`~repro.engine.plan.kernel_units`); ``n_jobs`` decides only
  whether a wave's units run in-process or on a
  :class:`ProcessPoolExecutor`, never what a unit is.

Every simulation runs on :class:`~repro.simulator.VectorizedSimulator`
under the steady mode its cell names, with the grid's
:class:`~repro.simulator.WarmStateStore` attached.  The stores outlive
the call — in memory always, on disk under ``cache_dir/stages`` (and
``cache_dir/warm``) when ``cache_dir`` is set or ``REPRO_GRID_CACHE``
is exported — so two sweeps sharing cells (``figure5`` and ``figure6``
both normalize against the Unified reference) never recompute them.
Entries are invalidated implicitly: the store keys cover the kernel
fingerprint, machine encoding, scheduler, threshold, analyzer
configuration and, for simulations, the schedule content.
"""

from __future__ import annotations

import json
import os
import pathlib
import threading
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..cme.locality import (
    LocalityAnalyzer,
    default_analyzer,
    locality_fingerprint,
)
from ..engine.plan import (
    ExecutionPlanner,
    PlanTask,
    kernel_units,
    run_analyze_task,
    run_schedule_task,
    run_simulate_batch,
)
from ..engine.result import RunResult
from ..engine.stagestore import StageStore, kernel_fingerprint, machine_key
from ..ir.builder import Kernel
from ..machine.config import MachineConfig
from ..scheduler.result import Schedule
from ..simulator import WarmStateStore
from ..simulator.stats import SimulationResult
from ..steady import validate_steady_mode
from ..workloads.suite import SPEC_KERNELS, kernel_by_name

__all__ = [
    "CellSpec",
    "GridStats",
    "ExperimentGrid",
    "kernel_fingerprint",
    "locality_fingerprint",
    "machine_key",
    "machine_from_key",
]

#: Environment variable providing a default on-disk cache directory.
CACHE_ENV_VAR = "REPRO_GRID_CACHE"

ProgressCallback = Callable[[int, int, "CellSpec", str], None]


# ----------------------------------------------------------------------
# Fingerprints
# ----------------------------------------------------------------------
# ``kernel_fingerprint`` and ``machine_key`` live in
# ``repro.engine.stagestore`` (the store keys on them) and are
# re-exported here — this module remains their harness-facing home.


def machine_from_key(key: str) -> MachineConfig:
    """Rebuild the machine a :func:`machine_key` string describes."""
    return MachineConfig.from_dict(json.loads(key))


# ----------------------------------------------------------------------
# Cell specification
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CellSpec:
    """One ``kernel × machine × scheduler × threshold`` experiment cell.

    Instances are hashable (usable as dict keys / dedup targets) and
    JSON-serializable (:meth:`to_json` / :meth:`from_json`).  Build them
    with :meth:`of`, which captures the kernel content fingerprint and
    the machine encoding.
    """

    kernel: str
    machine: str  # canonical machine_key() JSON
    scheduler: str
    threshold: float
    kernel_fp: str
    n_iterations: Optional[int] = None
    n_times: Optional[int] = None
    #: Steady-state detector selection (results are bit-identical across
    #: modes, but the simulate key distinguishes them so mode
    #: comparisons — e.g. the fig6-steady-ablation scenario — never
    #: serve one mode's timing run from another mode's product).
    steady: str = "auto"

    def __post_init__(self) -> None:
        validate_steady_mode(self.steady)

    @classmethod
    def of(
        cls,
        kernel: Union[Kernel, str],
        machine: MachineConfig,
        scheduler: str,
        threshold: float,
        n_iterations: Optional[int] = None,
        n_times: Optional[int] = None,
        steady: str = "auto",
    ) -> "CellSpec":
        if isinstance(kernel, str):
            kernel = kernel_by_name(kernel)
        return cls(
            kernel=kernel.name,
            machine=machine_key(machine),
            scheduler=scheduler,
            threshold=float(threshold),
            kernel_fp=kernel_fingerprint(kernel),
            n_iterations=n_iterations,
            n_times=n_times,
            steady=steady,
        )

    @property
    def machine_name(self) -> str:
        return json.loads(self.machine)["name"]

    def build_machine(self) -> MachineConfig:
        return machine_from_key(self.machine)

    def to_json(self) -> str:
        return json.dumps(
            {
                "kernel": self.kernel,
                "machine": json.loads(self.machine),
                "scheduler": self.scheduler,
                "threshold": self.threshold,
                "kernel_fp": self.kernel_fp,
                "n_iterations": self.n_iterations,
                "n_times": self.n_times,
                "steady": self.steady,
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "CellSpec":
        data = json.loads(text)
        return cls(
            kernel=data["kernel"],
            machine=json.dumps(
                data["machine"], sort_keys=True, separators=(",", ":")
            ),
            scheduler=data["scheduler"],
            threshold=data["threshold"],
            kernel_fp=data["kernel_fp"],
            n_iterations=data["n_iterations"],
            n_times=data["n_times"],
            steady=data.get("steady", "auto"),
        )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.kernel}@{self.machine_name} "
            f"{self.scheduler} thr={self.threshold:.2f}"
        )


# ----------------------------------------------------------------------
# Engine
# ----------------------------------------------------------------------
@dataclass
class GridStats:
    """What one engine instance was asked for and what its plans did."""

    requested: int = 0
    #: Unique cells assembled into results (duplicates excluded).
    computed: int = 0
    deduplicated: int = 0
    #: Wall-clock seconds per stage, summed over executed tasks
    #: (workers report each unit's timing back with its products).
    stage_seconds: Dict[str, float] = field(default_factory=dict)
    #: Planner counters accumulated over ``run`` calls: cells planned,
    #: unique/executed task counts per stage, batch shapes (see
    #: :meth:`ExecutionPlanner.plan`).
    plan: Dict[str, int] = field(default_factory=dict)

    def add_stage_seconds(self, seconds: Mapping[str, float]) -> None:
        for stage, value in seconds.items():
            self.stage_seconds[stage] = (
                self.stage_seconds.get(stage, 0.0) + value
            )

    def add_plan_counters(self, counters: Mapping[str, int]) -> None:
        for key, value in counters.items():
            if key.endswith("_max"):
                self.plan[key] = max(self.plan.get(key, 0), value)
            else:
                self.plan[key] = self.plan.get(key, 0) + value


class _Context(NamedTuple):
    """What every work unit runs against besides its own arguments.

    In-process units get the grid's own analyzer, warm-state store and
    name → :class:`Kernel` registry.  Each pool worker receives copies
    once, at pool start (:func:`_init_worker`): its analyzer's CME memo
    and its kernels' dependence-graph caches then stay warm across the
    units it runs, and the pre-primed warm store's disk layer (when
    enabled) shares warm-ups discovered *during* the sweep.  Units only
    compute: the parent records every product into the stage store.
    """

    locality: LocalityAnalyzer
    warm_store: WarmStateStore
    kernels: Dict[str, Kernel]


_WORKER_CONTEXT: Optional[_Context] = None


def _init_worker(context: _Context) -> None:
    global _WORKER_CONTEXT
    _WORKER_CONTEXT = context


def _timed(fn: Callable, *args) -> Tuple[object, float]:
    start = time.perf_counter()
    product = fn(*args)
    return product, time.perf_counter() - start


def _schedule_unit(
    context: _Context, tasks: Sequence[PlanTask]
) -> Tuple[List[Schedule], float]:
    """One kernel's schedule tasks in plan order, each machine rebuilt
    from its key: ``(schedules, seconds)``."""
    kernel = context.kernels[str(tasks[0].payload["kernel"])]
    return _timed(
        lambda: [
            run_schedule_task(
                task,
                kernel,
                machine_from_key(str(task.payload["machine"])),
                context.locality,
            )
            for task in tasks
        ]
    )


def _simulate_unit(
    context: _Context,
    tasks: Sequence[PlanTask],
    schedules: Sequence[Schedule],
) -> Tuple[List[SimulationResult], float]:
    """One kernel's simulate tasks, each with the schedule it reads:
    ``(simulations, seconds)``."""
    return _timed(run_simulate_batch, tasks, schedules, context.warm_store)


def _pooled_schedule_unit(
    tasks: Sequence[PlanTask],
) -> Tuple[List[Schedule], float]:
    """Pool entry point: :func:`_schedule_unit` in the worker's context."""
    return _schedule_unit(_WORKER_CONTEXT, tasks)


def _pooled_simulate_unit(
    tasks: Sequence[PlanTask], schedules: Sequence[Schedule]
) -> Tuple[List[SimulationResult], float]:
    """Pool entry point: :func:`_simulate_unit` in the worker's context."""
    return _simulate_unit(_WORKER_CONTEXT, tasks, schedules)


#: Each wave's unit function and the pool entry point that runs it.
_WAVES = {
    "schedule": (_schedule_unit, _pooled_schedule_unit),
    "simulate": (_simulate_unit, _pooled_simulate_unit),
}


class ExperimentGrid:
    """Executes :class:`CellSpec` grids through stage plans, in parallel.

    Parameters
    ----------
    locality:
        The analyzer every cell uses (default: the paper's sampling CME).
        Its fingerprint is part of every stage-store key.
    n_jobs:
        Worker processes.  ``1`` (default) runs serially in-process;
        results are identical either way — tasks are deterministic and
        results are returned in submission order.
    cache:
        ``False`` turns the disk layers off: the stage and warm-state
        stores then dedup only *within* this grid, in memory.
    cache_dir:
        Directory for the disk layers (``stages/`` and ``warm/``).
        Defaults to ``$REPRO_GRID_CACHE`` when exported, else in-memory
        stores only.
    kernels:
        Optional name → :class:`Kernel` registry for kernels that are not
        part of the SPECfp95 suite; suite kernels resolve automatically.
    progress:
        ``callback(done, total, spec, source)`` invoked once per
        requested cell with ``source`` in ``{"computed", "dedup"}``.

    ``warm_store`` shares detector-confirmed post-warm-up memory state
    between simulations whose schedules land byte-identical (keyed by
    ``Schedule.fingerprint()`` × geometry × steady mode).  Adoption
    re-proves replay soundness against the consuming run's own address
    tables, so a hit and a miss give bit-identical results.
    """

    def __init__(
        self,
        locality: Optional[LocalityAnalyzer] = None,
        n_jobs: int = 1,
        cache: bool = True,
        cache_dir: Optional[Union[str, pathlib.Path]] = None,
        kernels: Optional[Mapping[str, Kernel]] = None,
        progress: Optional[ProgressCallback] = None,
    ):
        if n_jobs < 1:
            raise ValueError("n_jobs must be >= 1")
        self.locality = (
            locality if locality is not None else default_analyzer()
        )
        self.n_jobs = n_jobs
        if cache_dir is None:
            env_dir = os.environ.get(CACHE_ENV_VAR)
            cache_dir = pathlib.Path(env_dir) if env_dir else None
        self.cache_dir = pathlib.Path(cache_dir) if cache_dir else None
        self.progress = progress
        self.stats = GridStats()
        # Guards the kernel registry and the stats counters: one grid
        # may serve several threads (the experiment service submits jobs
        # concurrently).  Stage work runs outside the lock.
        self._lock = threading.RLock()
        self._kernels: Dict[str, Kernel] = dict(kernels or {})
        disk = self.cache_dir if cache else None
        self.warm_store = WarmStateStore(
            cache_dir=disk / "warm" if disk else None
        )
        self.stage_store = StageStore(
            cache_dir=disk / "stages" if disk else None
        )

    # ------------------------------------------------------------------
    # Kernel resolution
    # ------------------------------------------------------------------
    def register(self, kernels: Sequence[Kernel]) -> None:
        """Make non-suite kernels resolvable by the specs naming them."""
        with self._lock:
            for kernel in kernels:
                self._kernels[kernel.name] = kernel

    def _resolve_kernel(self, spec: CellSpec) -> Kernel:
        with self._lock:
            kernel = self._kernels.get(spec.kernel)
            if kernel is None:
                if spec.kernel not in SPEC_KERNELS:
                    raise KeyError(
                        f"cannot resolve kernel {spec.kernel!r}: not in "
                        f"the suite and not registered on this grid"
                    )
                kernel = kernel_by_name(spec.kernel)
                self._kernels[spec.kernel] = kernel
        actual = kernel_fingerprint(kernel)
        if actual != spec.kernel_fp:
            raise ValueError(
                f"kernel {spec.kernel!r} content mismatch: spec expects "
                f"fingerprint {spec.kernel_fp}, resolved kernel has "
                f"{actual} (register the right kernel object)"
            )
        return kernel

    def clear_cache(self) -> None:
        """Drop every stored product: the stage and warm-state stores,
        memory and disk layers alike."""
        self.warm_store.clear_memory()
        self.warm_store.clear_disk()
        self.stage_store.clear()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run_one(self, spec: CellSpec) -> RunResult:
        return self.run([spec])[0]

    def run(self, specs: Sequence[CellSpec]) -> List[RunResult]:
        """Execute the grid; results align with ``specs`` by index.

        Duplicate specs are assembled once.  The unique ones run through
        one stage plan: stored products are reused, the rest execute
        serially or on a process pool depending on ``n_jobs``.
        """
        specs = list(specs)
        total = len(specs)
        done = 0

        def report(spec: CellSpec, source: str) -> None:
            nonlocal done
            done += 1
            if self.progress is not None:
                self.progress(done, total, spec, source)

        unique: Dict[CellSpec, None] = {}
        for spec in specs:
            if spec in unique:
                report(spec, "dedup")
            unique[spec] = None
        with self._lock:
            self.stats.requested += total
            self.stats.deduplicated += total - len(unique)
        results = (
            dict(zip(unique, self._execute(list(unique), report)))
            if unique
            else {}
        )
        return [results[spec] for spec in specs]

    def _execute(
        self,
        specs: Sequence[CellSpec],
        report: Callable[[CellSpec, str], None],
    ) -> List[RunResult]:
        """Plan ``specs``, run the plan's unique tasks and assemble one
        result per spec, in order."""
        kernels = {spec.kernel: self._resolve_kernel(spec) for spec in specs}
        context = _Context(self.locality, self.warm_store, kernels)
        planner = ExecutionPlanner(self.locality, self.stage_store)
        plan = planner.plan(specs, kernels)
        pool: Optional[ProcessPoolExecutor] = None

        def run_wave(stage: str, units: Sequence[tuple]) -> None:
            """Run one wave's units — in-process, or on the pool when
            there are jobs and units to share — then record every
            product, in unit order, so a failed wave stores nothing and
            the store never depends on completion order."""
            nonlocal pool
            unit_fn, entry = _WAVES[stage]
            if self.n_jobs == 1 or len(units) < 2:
                outputs = [unit_fn(context, *unit) for unit in units]
            else:
                if pool is None:
                    pool = ProcessPoolExecutor(
                        max_workers=self.n_jobs,
                        initializer=_init_worker,
                        initargs=(context,),
                    )
                futures = [pool.submit(entry, *unit) for unit in units]
                pending = set(futures)
                while pending:
                    # Raise the first failure as soon as it lands.
                    finished, pending = wait(
                        pending, return_when=FIRST_COMPLETED
                    )
                    for future in finished:
                        future.result()
                outputs = [future.result() for future in futures]
            for unit, (products, seconds) in zip(units, outputs):
                self._tally(stage, seconds)
                for task, product in zip(unit[0], products):
                    planner.record(plan, task, product)

        try:
            # Analyze wave: cheap, shared, and the pickled-to-workers
            # analyzer must carry the traces — run it in the parent,
            # before any pool exists.
            for task in plan.analyze_tasks:
                _, seconds = _timed(
                    run_analyze_task,
                    task,
                    kernels[str(task.payload["kernel"])],
                    self.locality,
                    self.stage_store,
                )
                self._tally("analyze", seconds)
            run_wave(
                "schedule",
                [(tasks,) for tasks in kernel_units(plan.schedule_tasks)],
            )
            # Simulate keys need the materialized schedules'
            # fingerprints, so this pass plans and dedups now.
            planner.plan_simulate(plan)
            run_wave(
                "simulate",
                [
                    (
                        tasks,
                        [
                            plan.schedules[str(task.payload["schedule_key"])]
                            for task in tasks
                        ],
                    )
                    for tasks in kernel_units(plan.simulate_tasks)
                ],
            )
        finally:
            # Every future has finished unless a unit failed; then the
            # queued units are dropped instead of run for nothing.
            if pool is not None:
                pool.shutdown(cancel_futures=True)

        # Assembly: submission order, one result per spec.
        out: List[RunResult] = []
        for node in plan.assembly:
            out.append(planner.assemble(node, plan))
            report(node.spec, "computed")
        with self._lock:
            self.stats.computed += len(out)
            self.stats.add_plan_counters(plan.counters)
        return out

    def _tally(self, stage: str, seconds: float) -> None:
        with self._lock:
            self.stats.add_stage_seconds({stage: seconds})
