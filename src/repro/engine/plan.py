"""Plan-based execution: the stage-task DAG every grid call runs.

:class:`ExecutionPlanner` takes a list of cell specs and emits a
:class:`StagePlan` — a small DAG of content-keyed tasks deduplicated
*up front* by the :class:`~repro.engine.stagestore.StageStore` key
families:

* one **analyze** task per unique ``loop_fingerprint`` × analyzer
  configuration,
* one **schedule** task per kernel × machine × scheduler × threshold ×
  analyzer,
* one **simulate** task per ``Schedule.fingerprint()`` × steady mode ×
  iteration overrides,

plus one :class:`AssemblyNode` per cell that relabels the shared
products into that cell's :class:`~repro.engine.result.RunResult`.
Keys already in the store are planned away; only misses become tasks.

The planner owns the whole store protocol — lookups at plan and
assembly time, :meth:`ExecutionPlanner.record` for every executed
product — while the task helpers (:func:`run_analyze_task`,
:func:`run_schedule_task`, :func:`run_simulate_batch`) compute products
with the pure stage functions of :mod:`repro.engine.stages`.  Every
simulation runs on :class:`~repro.simulator.VectorizedSimulator` under
the steady mode its cell names.

Unique simulate tasks of the same kernel and iteration geometry are
grouped into :class:`SimulateBatch`\\ es, the process pool's unit of
work; a batch's members run one after another.  Tasks carry only
JSON-serializable payloads (:meth:`PlanTask.to_dict`), so a worker
needs nothing but the payload and the shared kernel/analyzer registry
to produce a product.  Execution lives in
:meth:`repro.harness.grid.ExperimentGrid.run`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Mapping, Optional, Sequence

from ..cme.locality import LocalityAnalyzer, locality_fingerprint
from ..cme.trace import loop_fingerprint
from ..ir.builder import Kernel
from ..machine.config import MachineConfig
from ..scheduler.result import Schedule
from ..simulator import VectorizedSimulator, WarmStateStore
from ..simulator.stats import SimulationResult
from ..steady import resolve_steady_mode
from .result import RunResult
from .stages import analyze_loop, schedule_kernel
from .stagestore import StageStore

__all__ = [
    "PlanTask",
    "AssemblyNode",
    "SimulateBatch",
    "StagePlan",
    "ExecutionPlanner",
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

    ``payload`` holds everything a worker needs beyond the shared
    kernel/analyzer registry, as JSON-serializable primitives — a task
    can be shipped to another process (or, eventually, another host)
    as nothing but its :meth:`to_dict`.
    """

    task_id: str
    stage: str  # "analyze" | "schedule" | "simulate"
    key: str  # the StageStore key this task produces
    payload: Dict[str, object] = field(default_factory=dict)
    deps: List[str] = field(default_factory=list)

    def to_dict(self) -> Dict[str, object]:
        return {
            "task_id": self.task_id,
            "stage": self.stage,
            "key": self.key,
            "payload": dict(self.payload),
            "deps": list(self.deps),
        }


@dataclass
class AssemblyNode:
    """Per-cell sink: relabels shared products into a ``RunResult``.

    ``schedule_owner``/``simulate_owner`` mark the first cell to claim
    each product key; duplicate cells adopt the product through a
    counted store lookup at assembly time, so every cell probes each
    store family exactly once.
    """

    spec: object  # CellSpec (duck-typed; harness owns the class)
    schedule_key: str
    schedule_owner: bool
    simulate_key: Optional[str] = None
    simulate_owner: bool = False
    deps: List[str] = field(default_factory=list)

    def to_dict(self) -> Dict[str, object]:
        return {
            "spec": self.spec.to_json(),
            "schedule_key": self.schedule_key,
            "schedule_owner": self.schedule_owner,
            "simulate_key": self.simulate_key,
            "simulate_owner": self.simulate_owner,
            "deps": list(self.deps),
        }


@dataclass
class SimulateBatch:
    """Unique simulate tasks sharing a kernel and geometry.

    Members simulate different schedules of the same kernel under the
    same iteration overrides; a batch is the process pool's unit of
    work, and its members run one after another.
    """

    batch_id: str
    kernel_fp: str
    n_iterations: Optional[int]
    n_times: Optional[int]
    tasks: List[PlanTask] = field(default_factory=list)

    @property
    def width(self) -> int:
        return len(self.tasks)

    def to_dict(self) -> Dict[str, object]:
        return {
            "batch_id": self.batch_id,
            "kernel_fp": self.kernel_fp,
            "n_iterations": self.n_iterations,
            "n_times": self.n_times,
            "tasks": [task.to_dict() for task in self.tasks],
        }


@dataclass
class StagePlan:
    """The full DAG for one grid call: unique tasks + per-cell sinks.

    ``schedules``/``simulations`` accumulate the materialized products
    (store hits at plan time, then task results during execution);
    assembly reads them by key.  ``counters`` summarizes the plan for
    telemetry (``planned`` vs ``executed`` task counts).
    """

    locality_fp: str
    analyze_tasks: List[PlanTask] = field(default_factory=list)
    schedule_tasks: List[PlanTask] = field(default_factory=list)
    simulate_tasks: List[PlanTask] = field(default_factory=list)
    batches: List[SimulateBatch] = field(default_factory=list)
    assembly: List[AssemblyNode] = field(default_factory=list)
    schedules: Dict[str, Schedule] = field(default_factory=dict)
    simulations: Dict[str, SimulationResult] = field(default_factory=dict)
    counters: Dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable plan description (tasks only, no products)."""
        return {
            "locality_fp": self.locality_fp,
            "analyze_tasks": [t.to_dict() for t in self.analyze_tasks],
            "schedule_tasks": [t.to_dict() for t in self.schedule_tasks],
            "simulate_tasks": [t.to_dict() for t in self.simulate_tasks],
            "batches": [b.to_dict() for b in self.batches],
            "assembly": [a.to_dict() for a in self.assembly],
            "counters": dict(self.counters),
        }


# ----------------------------------------------------------------------
# Planner
# ----------------------------------------------------------------------
class ExecutionPlanner:
    """Builds :class:`StagePlan`\\ s from cell specs.

    Planning happens in two passes because simulate keys depend on
    *materialized* schedules (``Schedule.fingerprint()``): :meth:`plan`
    dedups analyze and schedule work up front, and once every schedule
    exists — from store hits or executed tasks — :meth:`plan_simulate`
    dedups and batches the simulate work.
    """

    def __init__(self, locality: LocalityAnalyzer, store: StageStore) -> None:
        self.locality = locality
        self.store = store
        self.locality_fp = locality_fingerprint(locality)

    # -- pass 1: analyze + schedule ------------------------------------
    def plan(
        self,
        specs: Sequence[object],
        kernels: Mapping[str, Kernel],
    ) -> StagePlan:
        """Dedup analyze/schedule work for ``specs`` against the store.

        ``kernels`` maps each spec's kernel name to its resolved object.
        One counted store lookup happens per *unique* schedule key —
        hits are planned away as pre-materialized products, misses
        become tasks.  Duplicate cells incur their (counted) lookups at
        assembly time instead.
        """
        plan = StagePlan(locality_fp=self.locality_fp)
        counters = plan.counters
        counters["runs"] = 1
        counters["cells"] = len(specs)

        # Analyze: one task per unique loop × analyzer configuration.
        # Only analyzers with a content-addressed trace store carry a
        # shareable analyze product (see stages.analyze_loop).
        traces = getattr(self.locality, "traces", None)
        max_points = getattr(self.locality, "max_points", None)
        if traces is not None and max_points is not None:
            seen_analyze: Dict[str, None] = {}
            for spec in specs:
                kernel = kernels[spec.kernel]
                loop_fp = loop_fingerprint(kernel.loop)
                key = StageStore.analyze_key(loop_fp, self.locality_fp)
                if key in seen_analyze:
                    continue
                seen_analyze[key] = None
                plan.analyze_tasks.append(
                    PlanTask(
                        task_id=f"analyze:{len(plan.analyze_tasks)}",
                        stage="analyze",
                        key=key,
                        payload={
                            "kernel": spec.kernel,
                            "loop_fp": loop_fp,
                            "locality_fp": self.locality_fp,
                        },
                    )
                )
        counters["analyze_tasks"] = len(plan.analyze_tasks)

        # Schedule: one task per unique store key; first spec owns it.
        schedule_owner: Dict[str, None] = {}
        schedule_task_by_key: Dict[str, str] = {}
        for spec in specs:
            key = StageStore.schedule_key(
                kernel_name=spec.kernel,
                kernel_fp=spec.kernel_fp,
                machine=spec.machine,
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
                    task = PlanTask(
                        task_id=f"schedule:{len(plan.schedule_tasks)}",
                        stage="schedule",
                        key=key,
                        payload={
                            "kernel": spec.kernel,
                            "kernel_fp": spec.kernel_fp,
                            "machine": spec.machine,
                            "scheduler": spec.scheduler,
                            "threshold": spec.threshold,
                            "locality_fp": self.locality_fp,
                        },
                    )
                    plan.schedule_tasks.append(task)
                    schedule_task_by_key[key] = task.task_id
            plan.assembly.append(
                AssemblyNode(
                    spec=spec,
                    schedule_key=key,
                    schedule_owner=owner,
                    deps=(
                        [schedule_task_by_key[key]]
                        if key in schedule_task_by_key
                        else []
                    ),
                )
            )
        counters["schedule_unique"] = len(schedule_owner)
        counters["schedule_tasks"] = len(plan.schedule_tasks)
        return plan

    # -- pass 2: simulate + batching -----------------------------------
    def plan_simulate(self, plan: StagePlan) -> None:
        """Dedup and batch simulate work once every schedule exists.

        Keys come from the materialized schedules' fingerprints; one
        counted lookup per unique key, misses become tasks.  Unique
        tasks sharing ``(kernel_fp, n_iterations, n_times)`` are grouped
        into :class:`SimulateBatch`\\ es in first-seen order.
        """
        counters = plan.counters
        simulate_owner: Dict[str, None] = {}
        batch_by_group: Dict[tuple, SimulateBatch] = {}
        for node in plan.assembly:
            spec = node.spec
            schedule = plan.schedules[node.schedule_key]
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
            task = PlanTask(
                task_id=f"simulate:{len(plan.simulate_tasks)}",
                stage="simulate",
                key=key,
                payload={
                    "schedule_key": node.schedule_key,
                    "steady": steady,
                    "n_iterations": spec.n_iterations,
                    "n_times": spec.n_times,
                },
                deps=list(node.deps),
            )
            plan.simulate_tasks.append(task)
            node.deps = node.deps + [task.task_id]
            group = (spec.kernel_fp, spec.n_iterations, spec.n_times)
            batch = batch_by_group.get(group)
            if batch is None:
                batch = SimulateBatch(
                    batch_id=f"batch:{len(plan.batches)}",
                    kernel_fp=spec.kernel_fp,
                    n_iterations=spec.n_iterations,
                    n_times=spec.n_times,
                )
                batch_by_group[group] = batch
                plan.batches.append(batch)
            batch.tasks.append(task)
        counters["simulate_unique"] = len(simulate_owner)
        counters["simulate_tasks"] = len(plan.simulate_tasks)
        counters["batches"] = len(plan.batches)
        counters["batch_width_max"] = max(
            (batch.width for batch in plan.batches), default=0
        )

    # -- execution results -------------------------------------------
    def record(self, plan: StagePlan, task: PlanTask, product: object) -> None:
        """Keep one executed schedule/simulate task's product: in the
        plan for assembly, and in the store."""
        products = (
            plan.schedules if task.stage == "schedule" else plan.simulations
        )
        products[task.key] = product
        self.store.store(task.stage, task.key, product)

    # -- assembly ------------------------------------------------------
    def assemble(self, node: AssemblyNode, plan: StagePlan) -> RunResult:
        """Relabel this cell's shared products into its ``RunResult``.

        Owners read the product straight from the plan; duplicate cells
        do a counted store lookup.  The simulation is always relabeled
        with the cell's own kernel/machine/scheduler/threshold (a shared
        simulate product may have been produced under a different label
        set).
        """
        spec = node.spec
        schedule = (
            plan.schedules[node.schedule_key]
            if node.schedule_owner
            else self._adopt("schedule", node.schedule_key)
        )
        simulation = (
            plan.simulations[node.simulate_key]
            if node.simulate_owner
            else self._adopt("simulate", node.simulate_key)
        )
        simulation = replace(
            simulation,
            kernel=spec.kernel,
            machine=spec.machine_name,
            scheduler=spec.scheduler,
            threshold=spec.threshold,
        )
        return RunResult(
            kernel=spec.kernel,
            machine=spec.machine_name,
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
    task: PlanTask,
    kernel: Kernel,
    locality: LocalityAnalyzer,
    store: StageStore,
) -> None:
    """Leave one analyze product in both the analyzer and the store.

    The trace is published when the analyzer already walked it, adopted
    from the store when some earlier run stored it, and computed and
    stored otherwise.
    """
    traces = locality.traces
    local = traces.peek_address_trace(task.payload["loop_fp"], locality.max_points)
    if local is not None:
        store.publish("analyze", task.key, local)
        return
    hit = store.lookup("analyze", task.key)
    if hit is not None:
        traces.install_address_trace(hit)
        return
    store.store("analyze", task.key, analyze_loop(kernel.loop, locality))


def run_schedule_task(
    task: PlanTask,
    kernel: Kernel,
    machine: MachineConfig,
    locality: LocalityAnalyzer,
) -> Schedule:
    """Produce one schedule, fingerprinted before it is stored or
    shipped so every copy (pickled to disk or back from a worker)
    carries its simulate-key hash."""
    schedule = schedule_kernel(
        kernel,
        machine,
        str(task.payload["scheduler"]),
        float(task.payload["threshold"]),  # type: ignore[arg-type]
        locality,
    )
    schedule.fingerprint()
    return schedule


def run_simulate_batch(
    batch: SimulateBatch,
    schedules: Mapping[str, Schedule],
    warm_store: WarmStateStore,
) -> List[SimulationResult]:
    """Produce one batch's simulations, member after member.

    Each simulator is built right before it runs (and dropped after), so
    a batch never holds more than one engine's tables.  Results align
    with ``batch.tasks`` by index.
    """
    return VectorizedSimulator.run_batch(
        VectorizedSimulator(
            schedules[task.payload["schedule_key"]],
            n_iterations=task.payload["n_iterations"],
            n_times=task.payload["n_times"],
            steady=task.payload["steady"],
            warm_store=warm_store,
        )
        for task in batch.tasks
    )
