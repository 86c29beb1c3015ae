"""Plan-based execution: the stage plan every grid call runs.

:class:`ExecutionPlanner` takes a list of cell specs and emits a
:class:`StagePlan` — the call's content-keyed stage tasks, deduplicated
*up front* by the :class:`~repro.engine.stagestore.StageStore` key
families:

* one **schedule** task per scheduling problem: kernel × scheduler ×
  threshold × analyzer × the machine's scheduling view (the machine
  without its memory-bus count, which no scheduler reads),
* one **analyze** task per unique ``loop_fingerprint`` among the
  kernels of those schedule tasks, which builds the loop's address
  trace into the analyzer, where the schedulers read it: a run whose
  every schedule is stored builds none,
* one **simulate** task per ``Schedule.fingerprint()`` × steady mode ×
  iteration overrides, where the fingerprint names the cell's own
  machine, memory buses included,

plus one :class:`AssemblyNode` per cell that relabels the shared
products into that cell's :class:`~repro.engine.result.RunResult`.
Schedule and simulate keys already in the store are planned away; only
misses become tasks.

The planner owns the whole store protocol — lookups at plan and
assembly time, :meth:`ExecutionPlanner.record` for every executed
product — while the task helpers (:func:`run_analyze_task`,
:func:`run_schedule_task`, :func:`run_simulate_batch`) compute products
with the pure stage functions of :mod:`repro.engine.stages`.  A
schedule task schedules on its key's scheduling view, and the store
keeps the result as its :class:`~repro.scheduler.result.ScheduleBody`.
The plan attaches each key's decisions, once per (key, cell machine),
to its own kernel and the shared machine of the cell
(:meth:`StagePlan.attached`); planning the simulate wave, running it
and assembly all read that attached schedule.  Every simulation runs on
:class:`~repro.simulator.VectorizedSimulator` under the steady mode its
cell names.

The schedule and simulate waves run in per-kernel work units:
:func:`kernel_units` groups a wave's unique tasks by kernel, each group
in plan order.  A schedule unit is one kernel's schedule tasks; a
simulate unit is one kernel's simulate tasks, which
:func:`run_simulate_batch` runs one after another.  Task payloads are
JSON-serializable primitives that name their kernel.  Execution lives
in :meth:`repro.harness.grid.ExperimentGrid.run`, which runs the same
units in-process or on its process pool.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..cme.locality import LocalityAnalyzer, locality_fingerprint
from ..cme.trace import loop_fingerprint
from ..ir.builder import Kernel
from ..machine.config import MachineConfig
from ..scheduler.result import Schedule, ScheduleBody
from ..simulator import VectorizedSimulator, WarmStateStore
from ..simulator.stats import SimulationResult
from ..steady import resolve_steady_mode
from .result import RunResult
from .stages import analyze_loop, schedule_kernel
from .stagestore import StageStore, machine_from_key

__all__ = [
    "PlanTask",
    "AssemblyNode",
    "StagePlan",
    "ExecutionPlanner",
    "kernel_units",
    "run_analyze_task",
    "run_schedule_task",
    "run_simulate_batch",
]


# ----------------------------------------------------------------------
# Plan nodes
# ----------------------------------------------------------------------
@dataclass
class PlanTask:
    """One unique unit of stage work, content-keyed by the store.

    ``payload`` holds everything a worker needs beyond the kernels and
    analyzer it receives once, as JSON-serializable primitives; every
    payload names its ``kernel``.
    """

    stage: str  # "analyze" | "schedule" | "simulate"
    #: The StageStore key this task produces (an analyze task's is its
    #: loop fingerprint: traces live in the analyzer, not the store).
    key: str
    payload: Dict[str, object] = field(default_factory=dict)


@dataclass
class AssemblyNode:
    """Per-cell sink: relabels shared products into a ``RunResult``.

    ``schedule_owner``/``simulate_owner`` mark the first cell to claim
    each product key; duplicate cells make a counted store lookup at
    assembly time, so every cell probes each store family exactly once.
    """

    spec: object  # CellSpec (duck-typed; harness owns the class)
    schedule_key: str
    schedule_owner: bool
    simulate_key: Optional[str] = None
    simulate_owner: bool = False


@dataclass
class StagePlan:
    """One grid call's unique tasks plus its per-cell sinks.

    ``schedules``/``simulations`` accumulate the materialized products
    by key (store hits at plan time, then task results during
    execution).  A schedule product is a stored body or an executed
    task's schedule on the key's scheduling view; either attaches to a
    cell machine (:meth:`attached`).  ``kernels`` maps each cell's
    kernel name to the object schedules attach to.  ``counters``
    summarizes the plan for telemetry (``planned`` vs ``executed`` task
    counts).
    """

    locality_fp: str
    kernels: Mapping[str, Kernel]
    analyze_tasks: List[PlanTask] = field(default_factory=list)
    schedule_tasks: List[PlanTask] = field(default_factory=list)
    simulate_tasks: List[PlanTask] = field(default_factory=list)
    assembly: List[AssemblyNode] = field(default_factory=list)
    schedules: Dict[str, Union[ScheduleBody, Schedule]] = field(
        default_factory=dict
    )
    simulations: Dict[str, SimulationResult] = field(default_factory=dict)
    counters: Dict[str, int] = field(default_factory=dict)
    #: :meth:`attached`'s schedules, by (schedule key, cell machine key).
    attachments: Dict[Tuple[str, str], Schedule] = field(
        default_factory=dict, repr=False, compare=False
    )

    def attached(self, kernel: str, key: str, machine: str) -> Schedule:
        """Schedule ``key``'s decisions on this plan's ``kernel`` and the
        shared config of the cell machine key ``machine``: attached once
        per (key, machine), so every cell on that machine reads one
        object."""
        schedule = self.attachments.get((key, machine))
        if schedule is None:
            schedule = self.attachments[key, machine] = self.schedules[
                key
            ].attach(self.kernels[kernel], machine_from_key(machine))
        return schedule


def kernel_units(tasks: Sequence[PlanTask]) -> List[List[PlanTask]]:
    """``tasks`` grouped by kernel in first-seen order, each group in
    plan order: the work units of the schedule and simulate waves."""
    units: Dict[str, List[PlanTask]] = {}
    for task in tasks:
        units.setdefault(str(task.payload["kernel"]), []).append(task)
    return list(units.values())


# ----------------------------------------------------------------------
# Planner
# ----------------------------------------------------------------------
class ExecutionPlanner:
    """Builds :class:`StagePlan`\\ s from cell specs.

    Planning happens in two passes because simulate keys depend on
    *materialized* schedules (``Schedule.fingerprint()``): :meth:`plan`
    dedups schedule and analyze work up front, and once every schedule
    exists — from store hits or executed tasks — :meth:`plan_simulate`
    dedups the simulate work.
    """

    def __init__(self, locality: LocalityAnalyzer, store: StageStore) -> None:
        self.locality = locality
        self.store = store
        self.locality_fp = locality_fingerprint(locality)

    # -- pass 1: schedule + analyze ------------------------------------
    def plan(
        self,
        specs: Sequence[object],
        kernels: Mapping[str, Kernel],
    ) -> StagePlan:
        """Dedup schedule, then analyze work for ``specs`` against the
        store.

        ``kernels`` maps each spec's kernel name to its resolved object.
        One counted store lookup happens per *unique* schedule key —
        hits are planned away as pre-materialized products, misses
        become tasks.  Duplicate cells incur their (counted) lookups at
        assembly time instead.  Only a scheduler reads an analyze
        product, so analyze tasks are planned for the kernels of the
        schedule tasks alone.
        """
        plan = StagePlan(locality_fp=self.locality_fp, kernels=kernels)
        counters = plan.counters
        counters["runs"] = 1
        counters["cells"] = len(specs)

        # Schedule: one task per unique scheduling problem, keyed and
        # scheduled on the cell machine's view; first spec owns it.
        schedule_owner: Dict[str, None] = {}
        for spec in specs:
            view = machine_from_key(spec.machine).scheduling_view
            key = StageStore.schedule_key(
                kernel_name=spec.kernel,
                kernel_fp=spec.kernel_fp,
                view=view.canonical_json,
                scheduler=spec.scheduler,
                threshold=spec.threshold,
                locality_fp=self.locality_fp,
            )
            owner = key not in schedule_owner
            if owner:
                schedule_owner[key] = None
                hit = self.store.lookup("schedule", key)
                if hit is not None:
                    plan.schedules[key] = hit
                else:
                    plan.schedule_tasks.append(
                        PlanTask(
                            stage="schedule",
                            key=key,
                            payload={
                                "kernel": spec.kernel,
                                "kernel_fp": spec.kernel_fp,
                                "machine": view.canonical_json,
                                "scheduler": spec.scheduler,
                                "threshold": spec.threshold,
                                "locality_fp": self.locality_fp,
                            },
                        )
                    )
            plan.assembly.append(
                AssemblyNode(spec=spec, schedule_key=key, schedule_owner=owner)
            )

        # Analyze: one task per unique loop that a schedule task reads.
        # Only analyzers with a content-addressed trace store have an
        # analyze product (see stages.analyze_loop).
        if getattr(self.locality, "traces", None) is not None:
            seen_analyze: Dict[str, None] = {}
            for task in plan.schedule_tasks:
                name = task.payload["kernel"]
                loop_fp = loop_fingerprint(kernels[name].loop)
                if loop_fp in seen_analyze:
                    continue
                seen_analyze[loop_fp] = None
                plan.analyze_tasks.append(
                    PlanTask(
                        stage="analyze", key=loop_fp, payload={"kernel": name}
                    )
                )
        counters["analyze_tasks"] = len(plan.analyze_tasks)
        counters["schedule_unique"] = len(schedule_owner)
        counters["schedule_tasks"] = len(plan.schedule_tasks)
        return plan

    # -- pass 2: simulate ----------------------------------------------
    def plan_simulate(self, plan: StagePlan) -> None:
        """Dedup simulate work once every schedule exists.

        Keys come from the fingerprints of the schedules attached to
        each cell's machine; one counted lookup per unique key, misses
        become tasks.  The ``batches`` counters describe the wave's
        :func:`kernel_units`.
        """
        counters = plan.counters
        simulate_owner: Dict[str, None] = {}
        for node in plan.assembly:
            spec = node.spec
            schedule = plan.attached(
                spec.kernel, node.schedule_key, spec.machine
            )
            steady = resolve_steady_mode(spec.steady)
            key = StageStore.simulate_key(
                schedule_fp=schedule.fingerprint(),
                steady=steady,
                n_iterations=spec.n_iterations,
                n_times=spec.n_times,
            )
            node.simulate_key = key
            if key in simulate_owner:
                continue
            simulate_owner[key] = None
            node.simulate_owner = True
            hit = self.store.lookup("simulate", key)
            if hit is not None:
                plan.simulations[key] = hit
                continue
            plan.simulate_tasks.append(
                PlanTask(
                    stage="simulate",
                    key=key,
                    payload={
                        "kernel": spec.kernel,
                        "schedule_key": node.schedule_key,
                        "machine": spec.machine,
                        "steady": steady,
                        "n_iterations": spec.n_iterations,
                        "n_times": spec.n_times,
                    },
                )
            )
        units = kernel_units(plan.simulate_tasks)
        counters["simulate_unique"] = len(simulate_owner)
        counters["simulate_tasks"] = len(plan.simulate_tasks)
        counters["batches"] = len(units)
        counters["batch_width_max"] = max(map(len, units), default=0)

    # -- execution results -------------------------------------------
    def record(self, plan: StagePlan, task: PlanTask, product: object) -> None:
        """Keep one executed schedule/simulate task's product: in the
        plan, and in the store (a schedule as its body)."""
        if task.stage == "schedule":
            plan.schedules[task.key] = product
            self.store.store("schedule", task.key, product.body())
        else:
            plan.simulations[task.key] = product
            self.store.store("simulate", task.key, product)

    # -- assembly ------------------------------------------------------
    def assemble(self, node: AssemblyNode, plan: StagePlan) -> RunResult:
        """Relabel this cell's shared products into its ``RunResult``.

        The schedule is the one attached to the cell's machine.  Owners
        read the simulation straight from the plan; duplicate cells do a
        counted store lookup for each product, so every cell probes each
        store family once.  The simulation carries the cell's own
        kernel/machine/scheduler/threshold: a product made under another
        label set is relabeled into a copy, and one that already carries
        the cell's labels is used as it is.  Results therefore share
        their ``SimulationResult`` with the plan, the store and other
        results, and nothing ever mutates one.
        """
        spec = node.spec
        machine = spec.machine_name
        if not node.schedule_owner:
            self._adopt("schedule", node.schedule_key)
        schedule = plan.attached(spec.kernel, node.schedule_key, spec.machine)
        simulation = (
            plan.simulations[node.simulate_key]
            if node.simulate_owner
            else self._adopt("simulate", node.simulate_key)
        )
        # ``repr`` tells 1 from 1.0 and 0.0 from -0.0, as the result's
        # canonical form does.
        if (
            simulation.kernel != spec.kernel
            or simulation.machine != machine
            or simulation.scheduler != spec.scheduler
            or repr(simulation.threshold) != repr(spec.threshold)
        ):
            simulation = replace(
                simulation,
                kernel=spec.kernel,
                machine=machine,
                scheduler=spec.scheduler,
                threshold=spec.threshold,
            )
        return RunResult(
            kernel=spec.kernel,
            machine=machine,
            scheduler=spec.scheduler,
            threshold=spec.threshold,
            schedule=schedule,
            simulation=simulation,
        )

    def _adopt(self, stage: str, key: str) -> object:
        product = self.store.lookup(stage, key)
        if product is None:  # pragma: no cover - defensive
            raise RuntimeError(f"plan assembly missing {stage} product {key}")
        return product


# ----------------------------------------------------------------------
# Task execution helpers
# ----------------------------------------------------------------------
def run_analyze_task(
    task: PlanTask, kernel: Kernel, locality: LocalityAnalyzer
) -> None:
    """Leave one loop's address trace in ``locality``'s trace store
    (built there unless it is already), where the schedulers read it."""
    analyze_loop(kernel.loop, locality)


def run_schedule_task(
    task: PlanTask,
    kernel: Kernel,
    machine: MachineConfig,
    locality: LocalityAnalyzer,
) -> Schedule:
    """Produce one schedule on ``machine`` (the task's scheduling view),
    digested before it is shipped so the copy back from a worker, the
    body the planner stores and every schedule attached from either
    carry the hash of its decisions."""
    schedule = schedule_kernel(
        kernel,
        machine,
        str(task.payload["scheduler"]),
        float(task.payload["threshold"]),  # type: ignore[arg-type]
        locality,
    )
    schedule.digest()
    return schedule


def run_simulate_batch(
    tasks: Sequence[PlanTask],
    schedules: Sequence[Schedule],
    warm_store: WarmStateStore,
) -> List[SimulationResult]:
    """Produce the simulations of ``tasks``, member after member, each
    from the schedule at its index in ``schedules``.

    Each simulator is built right before it runs (and dropped after), so
    a unit never holds more than one engine's tables.  Results align
    with ``tasks`` by index.
    """
    return VectorizedSimulator.run_batch(
        VectorizedSimulator(
            schedule,
            n_iterations=task.payload["n_iterations"],
            n_times=task.payload["n_times"],
            steady=task.payload["steady"],
            warm_store=warm_store,
        )
        for task, schedule in zip(tasks, schedules)
    )
