"""Job lifecycle: the persistent grid, the worker thread, the events.

:class:`JobManager` is the service's heart and the whole point of
``repro serve``: **one warm process owns the experiment stack across
jobs**.  Grids — one per locality-analyzer configuration, since every
stage-store key embeds the analyzer fingerprint — live for the
manager's lifetime, so the analyzer's trace store, the warm-state store
and the per-stage result store accumulate across every job.  The second
submission of a scenario (or the first submission of a neighbouring
one) adopts schedule/simulate products and address traces instead of
recomputing them the way a fresh CLI process would, and each job's
telemetry (``store_hits`` / ``sim_warm_hits`` deltas) reports exactly
what the stores served it.

Execution model: jobs run on a **single worker thread**
(``ThreadPoolExecutor(max_workers=1)``).  A job is made in two halves:
:meth:`JobManager.create` saves and registers it ``queued`` and
:meth:`JobManager.start` hands it to the worker, so the server can
answer ``POST /jobs`` before the job competes with it for the GIL;
:meth:`JobManager.submit` does both.  Submission is thread-safe and
concurrent; execution is serialized — the paper's cells are CPU-bound,
so two jobs interleaving on one process would only trade latency for
confusion, and the single writer keeps per-job telemetry deltas exact.
Parallelism *within* a job is the grid's own ``n_jobs`` process fan-out.

Progress flows through the existing
:data:`~repro.harness.grid.ProgressCallback` hook: each running job
installs its per-cell callback on the grid, events append to the job's
list under its condition variable (:attr:`Job.condition`), and each
append notifies it, which is how the server's NDJSON handler, waiting
on that condition, learns to drain them by cursor
(:meth:`Job.events_since`).
"""

from __future__ import annotations

import json
import os
import threading
import time
import uuid
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..cme.locality import locality_fingerprint
from ..harness.grid import CellSpec, ExperimentGrid
from ..harness.scenarios import (
    ScenarioSpec,
    _expect_object,
    _reject_unknown_keys,
    _typed,
    get_scenario,
    run_scenario,
    scenario_names,
)
from ..steady import validate_steady_mode
from .backend import DiskBackend
from .export import result_payload

__all__ = ["JOB_STATES", "Job", "JobManager"]

#: A job's lifecycle, in order.  ``done`` and ``failed`` are terminal.
JOB_STATES = ("queued", "running", "done", "failed")


class Job:
    """One submitted scenario run and its observable state.

    Everything a client can see lives here: the (resolved) spec, the
    run overrides, the state machine, the monotonically growing event
    list, and — once terminal — per-job store telemetry and, when done,
    the result payload encoded once as JSON bytes (:attr:`result_json`;
    :attr:`result` decodes a copy for in-process callers).  A job keeps
    no export rows: they are derived from those bytes.  Mutation
    happens only on the manager's worker thread; reads may come from
    any thread, so state transitions and event appends happen under
    :attr:`condition`.

    The condition is also how a reader learns of new events without
    polling: every event append calls its ``notify_all()``, so a reader
    waits on it (``wait_for`` a longer event list or a terminal state)
    and then reads with :meth:`events_since`.
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
        #: The result payload as JSON, in the payload's own key order.
        self.result_json: Optional[bytes] = None
        self.telemetry: Optional[Dict[str, object]] = None
        self.condition = threading.Condition()
        self.events: List[Dict[str, object]] = []
        self._emit({"type": "state", "state": "queued"})

    @classmethod
    def from_record(cls, record: Dict[str, object]) -> "Job":
        """The job a saved :meth:`record` describes, after a restart.

        A terminal record comes back as it was saved, with one terminal
        state event, so an event stream ends at once.  A record still
        ``queued`` or ``running`` was left by a process that died before
        the job finished: it comes back ``failed``, naming the restart.
        """
        job = cls(
            str(record["id"]),
            int(record["sequence"]),
            ScenarioSpec.from_dict(record["spec"]),
            dict(record["overrides"]),
        )
        job.created = record["created"]
        job.started = record["started"]
        job.finished = record["finished"]
        job.error = record["error"]
        job.result_json = record["result"]
        job.telemetry = record["telemetry"]
        job.state = record["state"]
        if not job.is_terminal:
            job.state = "failed"
            job.error = (
                f"the service restarted while the job was {record['state']}"
            )
            job.finished = time.time()
        extra = (
            {"telemetry": job.telemetry}
            if job.state == "done"
            else {"error": job.error}
        )
        job.events = []
        job._emit({"type": "state", "state": job.state, **extra})
        return job

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
        with self.condition:
            return self.condition.wait_for(lambda: self.is_terminal, timeout)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    @property
    def result(self) -> Optional[Dict[str, object]]:
        """The result payload, decoded afresh on each read."""
        if self.result_json is None:
            return None
        return json.loads(self.result_json)

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
        """The full JSON record a :class:`DiskBackend` persists."""
        record = self.describe()
        record["spec"] = self.spec.to_dict()
        record["result"] = self.result_json
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


#: The keys ``POST /jobs`` accepts.
_SUBMIT_KEYS = frozenset({"scenario", "spec", "steady"})


class JobManager:
    """Owns the persistent grids and runs submitted jobs against them.

    A job's terminal save encodes its result payload once (after
    ``finished`` is stamped, before the terminal event); the job keeps
    those bytes and nothing decoded, so what a finished job holds for
    the life of the process is its encoded result, its events and its
    telemetry.  With a ``backend``, every job's record is also written
    to disk (when it is created and when it ends), and a new manager
    over the same directory serves the jobs saved there; without one,
    the manager keeps nothing beyond its jobs.
    """

    def __init__(
        self,
        cache_dir: Optional[os.PathLike] = None,
        backend: Optional[DiskBackend] = None,
        n_jobs: int = 1,
    ):
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.backend = backend
        self.n_jobs = n_jobs
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
        # Serve the jobs an earlier process saved.  A record that no
        # longer parses is skipped (job records are never unlinked).
        for record in backend.records() if backend is not None else ():
            try:
                job = Job.from_record(record)
            except (KeyError, TypeError, ValueError):
                continue
            if job.state != record["state"]:
                self.backend.save(job.record())
            self._jobs[job.id] = job
            self._sequence = max(self._sequence, job.sequence)

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
        context = "job submission"
        payload = _expect_object(payload, context)
        _reject_unknown_keys(payload, _SUBMIT_KEYS, context)
        inline = payload.get("spec")
        if (payload.get("scenario") is None) == (inline is None):
            raise ValueError(
                "job submission needs exactly one of 'scenario' "
                "(a registry name) or 'spec' (an inline scenario spec)"
            )
        name = _typed(payload, "scenario", str, "a string", context)
        if name is not None:
            try:
                spec = get_scenario(name)
            except KeyError as exc:
                raise ValueError(str(exc).strip('"')) from None
        else:
            spec = ScenarioSpec.from_dict(inline)
        overrides: Dict[str, object] = {}
        steady = _typed(payload, "steady", str, "a string", context)
        if steady is not None:
            try:
                overrides["steady"] = validate_steady_mode(steady)
            except KeyError as exc:
                raise ValueError(
                    f"key 'steady' in job submission: {exc}"
                ) from None
        return spec, overrides

    def submit(
        self, spec: ScenarioSpec, overrides: Optional[Dict[str, object]] = None
    ) -> Job:
        """Create and start one job (the one-call in-process API)."""
        job = self.create(spec, overrides)
        self.start(job)
        return job

    def create(
        self, spec: ScenarioSpec, overrides: Optional[Dict[str, object]] = None
    ) -> Job:
        """Save and register one ``queued`` job; :meth:`start` runs it."""
        overrides = dict(overrides or {})
        with self._lock:
            self._sequence += 1
            job = Job(
                job_id=uuid.uuid4().hex[:12],
                sequence=self._sequence,
                spec=spec,
                overrides=overrides,
            )
        # Register only a job whose record was saved: a failed save
        # must not leave a queued job that never runs.
        if self.backend is not None:
            self.backend.save(job.record())
        with self._lock:
            self._jobs[job.id] = job
        return job

    def start(self, job: Job) -> None:
        """Hand a job :meth:`create` made to the worker thread."""
        self._executor.submit(self._run, job)

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
                    cache_dir=self.cache_dir,
                )
                self._grids[fingerprint] = grid
            return grid

    @staticmethod
    def _store_snapshot(grid: ExperimentGrid) -> Dict[str, object]:
        return {
            "stages": grid.stage_store.telemetry(),
            "warm": grid.warm_store.counts(),
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
        # A ``_max`` key is the grid's lifetime high-water mark, which
        # no difference recovers for one job; /stats reports it.
        plan = {
            key: value - before["plan"].get(key, 0)
            for key, value in after["plan"].items()
            if not key.endswith("_max")
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
                )
            finally:
                grid.progress = None
            telemetry = self._telemetry_delta(
                before, self._store_snapshot(grid)
            )
            with job.condition:
                job.telemetry = telemetry
                job.finished = time.time()
            state, extra = "done", {"telemetry": telemetry}
        except Exception as exc:
            with job.condition:
                job.error = f"{type(exc).__name__}: {exc}"
                job.finished = time.time()
            state, extra = "failed", {"error": job.error}
        # Announce the terminal state only once its record is saved, so
        # a client never sees an outcome the backend does not hold.
        try:
            if state == "done":
                job.result_json = json.dumps(result_payload(outcome)).encode()
            if self.backend is not None:
                self.backend.save({**job.record(), "state": state})
        except Exception as exc:
            with job.condition:
                job.result_json = None
                job.error = (
                    f"saving the job record failed: "
                    f"{type(exc).__name__}: {exc}"
                )
            state, extra = "failed", {"error": job.error}
        job._transition(state, **extra)

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
                    "warm": grid.warm_store.counts(),
                }
                for fingerprint, grid in grids.items()
            },
        }

    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting work and (optionally) wait for the queue."""
        self._executor.shutdown(wait=wait)
