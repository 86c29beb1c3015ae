"""Job lifecycle: the persistent grid, the worker thread, the events.

:class:`JobManager` is the service's heart and the whole point of
``repro serve``: **one warm process owns the experiment stack across
jobs**.  Grids — one per locality-analyzer configuration, since every
stage-store key embeds the analyzer fingerprint — live for the
manager's lifetime, so the trace store, the warm-state store and the
per-stage result store accumulate across every job.  The second
submission of a scenario (or the first submission of a neighbouring
one) adopts analyze/schedule/simulate products instead of recomputing
them the way a fresh CLI process would, and each job's telemetry
(``store_hits`` / ``sim_warm_hits`` deltas) reports exactly what the
stores served it.

Execution model: jobs run on a **single worker thread**
(``ThreadPoolExecutor(max_workers=1)``), submitted from the event loop
with ``loop.run_in_executor``.  Submission is thread-safe and concurrent;
execution is serialized — the paper's cells are CPU-bound, so two jobs
interleaving on one process would only trade latency for confusion, and
the single writer keeps per-job telemetry deltas exact.  Parallelism
*within* a job is the grid's own ``n_jobs`` process fan-out.

Progress flows through the existing
:data:`~repro.harness.grid.ProgressCallback` hook: each running job
installs its per-cell callback on the grid, events append to the job's
list under a condition variable, and the server's NDJSON handler drains
them by cursor (:meth:`Job.events_since`).
"""

from __future__ import annotations

import os
import threading
import time
import uuid
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..cme.locality import locality_fingerprint
from ..harness.grid import CellSpec, ExperimentGrid
from ..harness.io import figure_payload
from ..harness.scenarios import (
    ScenarioOutcome,
    ScenarioSpec,
    get_scenario,
    run_scenario,
    scenario_names,
)
from ..simulator import validate_sim_engine
from ..steady import validate_steady_mode
from .backend import MemoryBackend, ResultBackend
from .export import outcome_records

__all__ = ["JOB_STATES", "Job", "JobManager"]

#: A job's lifecycle, in order.  ``done`` and ``failed`` are terminal.
JOB_STATES = ("queued", "running", "done", "failed")


class Job:
    """One submitted scenario run and its observable state.

    Everything a client can see lives here: the (resolved) spec, the
    run overrides, the state machine, the monotonically growing event
    list, and — once terminal — the result payload, flat export records
    and per-job store telemetry.  Mutation happens only on the manager's
    worker thread; reads may come from any thread, so state transitions
    and event appends happen under :attr:`condition`.
    """

    def __init__(
        self,
        job_id: str,
        sequence: int,
        spec: ScenarioSpec,
        overrides: Dict[str, object],
    ):
        self.id = job_id
        self.sequence = sequence
        self.spec = spec
        self.overrides = overrides
        self.state = "queued"
        self.error: Optional[str] = None
        self.created = time.time()
        self.started: Optional[float] = None
        self.finished: Optional[float] = None
        self.result: Optional[Dict[str, object]] = None
        self.export_records: Optional[List[Dict[str, object]]] = None
        self.telemetry: Optional[Dict[str, object]] = None
        self.condition = threading.Condition()
        self.events: List[Dict[str, object]] = []
        self._emit({"type": "state", "state": "queued"})

    # ------------------------------------------------------------------
    # Events
    # ------------------------------------------------------------------
    def _emit(self, event: Dict[str, object]) -> None:
        with self.condition:
            event = dict(event)
            event["seq"] = len(self.events)
            event["job"] = self.id
            self.events.append(event)
            self.condition.notify_all()

    def _transition(self, state: str, **extra: object) -> None:
        with self.condition:
            self.state = state
        self._emit({"type": "state", "state": state, **extra})

    @property
    def is_terminal(self) -> bool:
        return self.state in ("done", "failed")

    def events_since(
        self, cursor: int
    ) -> Tuple[List[Dict[str, object]], int, bool]:
        """Events past ``cursor`` plus the new cursor and terminality.

        The terminal flag is read *after* the slice under the same lock,
        so a consumer that sees ``finished=True`` with no new events has
        provably drained the stream.
        """
        with self.condition:
            fresh = self.events[cursor:]
            return fresh, len(self.events), self.is_terminal

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the job is terminal; ``False`` on timeout."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self.condition:
            while not self.is_terminal:
                remaining = (
                    None if deadline is None
                    else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    return False
                self.condition.wait(remaining)
            return True

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def describe(self) -> Dict[str, object]:
        """The job summary ``GET /jobs`` and ``GET /jobs/<id>`` serve."""
        with self.condition:
            return {
                "id": self.id,
                "sequence": self.sequence,
                "scenario": self.spec.name,
                "overrides": dict(self.overrides),
                "state": self.state,
                "error": self.error,
                "created": self.created,
                "started": self.started,
                "finished": self.finished,
                "n_events": len(self.events),
            }

    def record(self) -> Dict[str, object]:
        """The full JSON record the :class:`ResultBackend` persists."""
        record = self.describe()
        record["spec"] = self.spec.to_dict()
        record["result"] = self.result
        record["export_records"] = self.export_records
        record["telemetry"] = self.telemetry
        return record


def _progress_event(
    done: int, total: int, spec: CellSpec, source: str
) -> Dict[str, object]:
    return {
        "type": "cell",
        "done": done,
        "total": total,
        "kernel": spec.kernel,
        "machine": spec.machine_name,
        "scheduler": spec.scheduler,
        "threshold": spec.threshold,
        "source": source,
    }


def _result_payload(outcome: ScenarioOutcome) -> Dict[str, object]:
    """The JSON result body — bit-identical to what the in-process APIs
    produce (``RunResult.canonical()`` rows; the shared figure payload)."""
    if outcome.figure is not None:
        return {"kind": "figure", "figure": figure_payload(outcome.figure)}
    return {
        "kind": "grid",
        "rows": [
            {
                "group": label,
                "threshold": threshold,
                "kernel": kernel,
                "result": result.canonical(),
            }
            for label, threshold, kernel, result in outcome.iter_rows()
        ],
    }


#: The keys ``POST /jobs`` accepts.
_SUBMIT_KEYS = frozenset({"scenario", "spec", "steady", "sim"})


class JobManager:
    """Owns the persistent grids and runs submitted jobs against them."""

    def __init__(
        self,
        cache_dir: Optional[os.PathLike] = None,
        backend: Optional[ResultBackend] = None,
        n_jobs: int = 1,
        exact: bool = False,
    ):
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.backend = backend if backend is not None else MemoryBackend()
        self.n_jobs = n_jobs
        self.exact = exact
        self.started = time.time()
        # Grids keyed by locality fingerprint: a grid's store keys embed
        # the analyzer configuration, so scenarios declaring different
        # analyzers get different (equally persistent) grids.
        self._grids: Dict[str, ExperimentGrid] = {}
        self._jobs: Dict[str, Job] = {}
        self._sequence = 0
        self._lock = threading.RLock()
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-job"
        )

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def parse_payload(
        self, payload: object
    ) -> Tuple[ScenarioSpec, Dict[str, object]]:
        """Validate a ``POST /jobs`` body into (spec, overrides).

        Every malformed shape raises ``ValueError`` naming the offending
        key (the spec itself validates through
        :meth:`ScenarioSpec.from_dict`), so the server can answer 400
        with a message that tells the client what to fix.
        """
        if not isinstance(payload, dict):
            raise ValueError(
                f"job submission must be a JSON object, "
                f"got {type(payload).__name__}"
            )
        unknown = sorted(str(key) for key in payload if key not in _SUBMIT_KEYS)
        if unknown:
            raise ValueError(
                f"unknown key(s) {', '.join(map(repr, unknown))} in job "
                f"submission; allowed: {sorted(_SUBMIT_KEYS)}"
            )
        name = payload.get("scenario")
        inline = payload.get("spec")
        if (name is None) == (inline is None):
            raise ValueError(
                "job submission needs exactly one of 'scenario' "
                "(a registry name) or 'spec' (an inline scenario spec)"
            )
        if name is not None:
            if not isinstance(name, str):
                raise ValueError(
                    f"key 'scenario' in job submission must be a string, "
                    f"got {type(name).__name__}"
                )
            try:
                spec = get_scenario(name)
            except KeyError as exc:
                raise ValueError(str(exc).strip('"')) from None
        else:
            spec = ScenarioSpec.from_dict(inline)
        overrides: Dict[str, object] = {}
        for key, validate in (
            ("steady", validate_steady_mode),
            ("sim", validate_sim_engine),
        ):
            value = payload.get(key)
            if value is None:
                continue
            if not isinstance(value, str):
                raise ValueError(
                    f"key {key!r} in job submission must be a string, "
                    f"got {type(value).__name__}"
                )
            try:
                overrides[key] = validate(value)
            except (KeyError, ValueError) as exc:
                raise ValueError(
                    f"key {key!r} in job submission: {exc}"
                ) from None
        return spec, overrides

    def submit_payload(self, payload: object) -> Job:
        """Validate and enqueue one job (the ``POST /jobs`` entry)."""
        spec, overrides = self.parse_payload(payload)
        return self.submit(spec, overrides)

    def submit(
        self, spec: ScenarioSpec, overrides: Optional[Dict[str, object]] = None
    ) -> Job:
        overrides = dict(overrides or {})
        with self._lock:
            self._sequence += 1
            job = Job(
                job_id=uuid.uuid4().hex[:12],
                sequence=self._sequence,
                spec=spec,
                overrides=overrides,
            )
            self._jobs[job.id] = job
        self.backend.save(job.record())
        self._executor.submit(self._run, job)
        return job

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def job(self, job_id: str) -> Job:
        with self._lock:
            try:
                return self._jobs[job_id]
            except KeyError:
                raise KeyError(f"unknown job {job_id!r}") from None

    def jobs(self) -> List[Job]:
        """Every job, in submission order."""
        with self._lock:
            return sorted(self._jobs.values(), key=lambda j: j.sequence)

    # ------------------------------------------------------------------
    # The persistent grids
    # ------------------------------------------------------------------
    def grid_for(self, spec: ScenarioSpec) -> ExperimentGrid:
        """The long-lived grid matching the scenario's analyzer config."""
        locality = spec.locality.build()
        fingerprint = locality_fingerprint(locality)
        with self._lock:
            grid = self._grids.get(fingerprint)
            if grid is None:
                grid = ExperimentGrid(
                    locality=locality,
                    n_jobs=self.n_jobs,
                    cache=True,
                    cache_dir=self.cache_dir,
                    exact=self.exact,
                )
                self._grids[fingerprint] = grid
            return grid

    @staticmethod
    def _store_snapshot(grid: ExperimentGrid) -> Dict[str, object]:
        warm = grid.warm_store
        return {
            "stages": grid.stage_store.telemetry(),
            "warm": {
                "hits": warm.hits if warm else 0,
                "misses": warm.misses if warm else 0,
                "stores": warm.stores if warm else 0,
            },
            "grid": {
                "requested": grid.stats.requested,
                "computed": grid.stats.computed,
                "deduplicated": grid.stats.deduplicated,
            },
            "plan": dict(grid.stats.plan),
        }

    @staticmethod
    def _telemetry_delta(
        before: Dict[str, object], after: Dict[str, object]
    ) -> Dict[str, object]:
        """Per-job store activity: ``after - before`` on every counter."""
        stages = {
            stage: {
                name: counters[name] - before["stages"].get(stage, {}).get(name, 0)
                for name in ("hits", "misses", "stores")
            }
            for stage, counters in after["stages"].items()
        }
        warm = {
            name: after["warm"][name] - before["warm"][name]
            for name in ("hits", "misses", "stores")
        }
        grid = {
            name: after["grid"][name] - before["grid"][name]
            for name in after["grid"]
        }
        plan = {
            key: (
                value  # high-water mark, not additive
                if key.endswith("_max")
                else value - before["plan"].get(key, 0)
            )
            for key, value in after["plan"].items()
        }
        # Planned = unique tasks the planner identified up front;
        # executed = the subset that actually ran (store misses).
        plan["planned"] = (
            plan.get("analyze_tasks", 0)
            + plan.get("schedule_unique", 0)
            + plan.get("simulate_unique", 0)
        )
        plan["executed"] = (
            plan.get("analyze_tasks", 0)
            + plan.get("schedule_tasks", 0)
            + plan.get("simulate_tasks", 0)
        )
        return {
            "stages": stages,
            "store_hits": sum(c["hits"] for c in stages.values()),
            "sim_warm_hits": warm["hits"],
            "sim_warm_misses": warm["misses"],
            "sim_warm_stores": warm["stores"],
            "grid": grid,
            "plan": plan,
        }

    # ------------------------------------------------------------------
    # Execution (worker thread)
    # ------------------------------------------------------------------
    def _run(self, job: Job) -> None:
        with job.condition:
            job.started = time.time()
        job._transition("running")
        try:
            grid = self.grid_for(job.spec)
            before = self._store_snapshot(grid)
            # Safe single-writer mutation: jobs execute one at a time,
            # so the grid's progress hook is this job's for the run.
            grid.progress = lambda done, total, spec, source: job._emit(
                _progress_event(done, total, spec, source)
            )
            try:
                outcome = run_scenario(
                    job.spec,
                    grid=grid,
                    steady=job.overrides.get("steady"),
                    sim=job.overrides.get("sim"),
                )
            finally:
                grid.progress = None
            telemetry = self._telemetry_delta(
                before, self._store_snapshot(grid)
            )
            with job.condition:
                job.result = _result_payload(outcome)
                job.export_records = outcome_records(outcome)
                job.telemetry = telemetry
                job.finished = time.time()
            job._transition("done", telemetry=telemetry)
        except Exception as exc:
            with job.condition:
                job.error = f"{type(exc).__name__}: {exc}"
                job.finished = time.time()
            job._transition("failed", error=job.error)
        self.backend.save(job.record())

    # ------------------------------------------------------------------
    # Service-wide stats
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """What ``GET /stats`` serves: jobs, grids, store telemetry."""
        with self._lock:
            jobs = list(self._jobs.values())
            grids = dict(self._grids)
        states = {state: 0 for state in JOB_STATES}
        for job in jobs:
            states[job.state] = states.get(job.state, 0) + 1
        return {
            "started": self.started,
            "uptime": time.time() - self.started,
            "scenarios": len(scenario_names()),
            "jobs": {"total": len(jobs), **states},
            "grids": {
                fingerprint: {
                    "requested": grid.stats.requested,
                    "computed": grid.stats.computed,
                    "deduplicated": grid.stats.deduplicated,
                    "stage_seconds": dict(grid.stats.stage_seconds),
                    "plan": dict(grid.stats.plan),
                    "stages": grid.stage_store.telemetry(),
                    "warm": {
                        "hits": grid.warm_store.hits,
                        "misses": grid.warm_store.misses,
                        "stores": grid.warm_store.stores,
                    }
                    if grid.warm_store is not None
                    else {},
                }
                for fingerprint, grid in grids.items()
            },
        }

    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting work and (optionally) wait for the queue."""
        self._executor.shutdown(wait=wait)
