"""The traced run: layer wrappers and the per-layer metrics they yield.

Wrappers are patched where names are looked up: functions imported by
name in the module that imported them (``repro.harness.grid`` task
helpers, ``wait`` and its process pool; ``repro.scheduler.base``'s
``sms_order`` and ``compute_mii``), methods on their class, and
``run_batch`` as the classmethod it is.  Targets the program lacks are
skipped, and a layer the run cannot observe reads 0.  At ``n_jobs=2``
only parent-side calls are wrapped, so forked workers run unwrapped
code.  ``service-warm`` uses client spans, ``GET /jobs/<id>``
timestamps and ``/stats`` deltas per job.  ``service.poll_wait_s`` runs
from the server's ``finished`` stamp to the end of the client's event
stream: a job starts while ``submit`` is still answering, so ``events``
minus the server-side run would undercount it.
"""

from __future__ import annotations

import gc
import importlib
import json
import pickle
import statistics
import time
from typing import Dict, List, Optional, Tuple

from repro.service import ServiceClient

import workloads
from spans import Patches, Tracer, wrap_attribute, write_chrome_trace

GRID = "repro.harness.grid"
MRT = ("fu_free", "reserve_fu", "reserve_bus", "rollback")
PARENT = (
    ("grid.run", GRID, "ExperimentGrid.run", {"transparent": True}),
    ("plan.analyze", GRID, "run_analyze_task", {}),
    ("pool.wait", GRID, "wait", {}),
    ("plan.plan", "repro.engine.plan", "ExecutionPlanner.plan", {}),
    ("plan.plan_simulate", "repro.engine.plan", "ExecutionPlanner.plan_simulate", {}),
    ("plan.assemble", "repro.engine.plan", "ExecutionPlanner.assemble", {"chrome": False}),
    ("stagestore.lookup", "repro.engine.stagestore", "StageStore.lookup", {"chrome": False}),
    ("stagestore.store", "repro.engine.stagestore", "StageStore.store", {"chrome": False}),
)
COMPUTE = (
    ("plan.schedule", GRID, "run_schedule_task", {}),
    ("plan.simulate", GRID, "run_simulate_batch", {}),
    ("cme.probe_clusters", "repro.cme.incremental", "IncrementalCME.probe_clusters", {"chrome": False}),
    ("cme.miss_ratio", "repro.cme.incremental", "IncrementalCME.miss_ratio", {"chrome": False}),
    ("scheduler.schedule", "repro.scheduler.base", "CommunicationAwareScheduler.schedule", {}),
    ("scheduler.sms_order", "repro.scheduler.base", "sms_order", {"chrome": False}),
    ("scheduler.compute_mii", "repro.scheduler.base", "compute_mii", {"chrome": False}),
    *((f"scheduler.mrt.{m}", "repro.scheduler.mrt", f"ModuloReservationTable.{m}", {"chrome": False}) for m in MRT),
    ("simulator.run", "repro.simulator.executor", "LockstepSimulator.run", {}),
    ("simulator.run_batch", "repro.simulator.vectorized", "VectorizedSimulator.run_batch", {}),
    ("warmstate.lookup", "repro.simulator.warmstate", "WarmStateStore.lookup", {"chrome": False}),
    ("memory.access_batch", "repro.memory.hierarchy", "DistributedMemorySystem.access_batch", {"chrome": False}),
    ("memory.access", "repro.memory.hierarchy", "DistributedMemorySystem.access", {"chrome": False}),
    ("memory.state_signature", "repro.memory.hierarchy", "DistributedMemorySystem.state_signature", {"chrome": False}),
    ("memory.translate", "repro.memory.hierarchy", "DistributedMemorySystem.translate", {"chrome": False}),
)
CLIENT = ("submit", "events", "result", "export")


def resolve(module: str, path: str):
    """``(owner, attribute)`` named by a module and dotted path, or None."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    return (owner, attr) if hasattr(owner, attr) else None


def targets(parent_only: bool = False) -> List[tuple]:
    found = []
    for name, module, path, options in PARENT + (() if parent_only else COMPUTE):
        spot = resolve(module, path)
        if spot is not None:
            found.append((name, *spot, options))
    base = resolve("repro.steady", "SteadyStateDetector")
    if base is not None and not parent_only:
        for cls in getattr(*base).__subclasses__():
            if cls.__module__.startswith("repro.") and "boundary" in vars(cls):
                found.append(("steady.boundary", cls, "boundary", {"chrome": False}))
    return found


def install(tracer: Tracer, parent_only: bool = False) -> Patches:
    """Wrap the layers' entry points; the returned patches undo it."""
    hooks = {
        "plan.simulate": lambda r: tracer.count("simulate.cycles", sum(x.total_cycles for x in r)),
        "memory.access_batch": lambda n: tracer.count("memory.batched", n),
        "steady.boundary": lambda r: tracer.count("steady.replays", r is not None),
    }
    patches = Patches()
    try:
        for name, owner, attr, options in targets(parent_only):
            wrap_attribute(patches, tracer, owner, attr, name, on_result=hooks.get(name), **options)
        pool = resolve(GRID, "ProcessPoolExecutor")
        if pool is not None:
            patches.replace(*pool, _traced_pool(tracer, getattr(*pool)))
    except BaseException:
        patches.restore()
        raise
    return patches


def _traced_pool(tracer: Tracer, base: type) -> type:
    """The grid's pool, timed from start to shutdown; ``pool.ship_bytes``
    counts the pickled initializer state every worker receives."""

    class TracedPool(base):
        def __init__(self, *args, **kwargs):
            tracer.count("pool.ship_bytes", len(pickle.dumps(kwargs.get("initargs", ()))))
            super().__init__(*args, **kwargs)
            self._perfbench_started = time.perf_counter()

        def shutdown(self, *args, **kwargs):
            super().shutdown(*args, **kwargs)
            tracer.count("pool.lifetime_s", time.perf_counter() - self._perfbench_started)

    return TracedPool


def empty(ctx) -> Dict[str, float]:
    """Every per-layer metric the run reports, at 0 until observed."""
    return {name: 0.0 for name in ctx.metric_names}


def ratio(part: float, rest: float) -> float:
    return part / (part + rest) if part + rest else 0.0


def traced_pass(ctx, label, n_jobs, cache_dir, expected, parent_only):
    """One pass with wrappers installed and removed again; its results
    must equal the untraced ones.  ``(tracer, grid, wall)`` or None."""
    tracer = Tracer(ctx.origin)
    gc.collect()
    outcome, error = None, None
    patches = install(tracer, parent_only)
    try:
        with tracer.span(f"pass.{label}"):
            outcome = workloads.fig6_pass(n_jobs, cache_dir)
    except Exception as exc:  # counted below, once the wrappers are gone
        error = f"{type(exc).__name__}: {exc}"
    finally:
        patches.restore()
    problems = [f"still wrapped: {n}" for n in patches.leftovers()]
    problems += [error] if outcome is None else workloads.check_pass(outcome, ctx.golden, expected)[0]
    if not ctx.tally.record(f"{label} (traced)", problems):
        return None
    return tracer, outcome.grid, tracer.roots[-1][1]


def trace_fig6(ctx, n_jobs: int):
    cache_dir, digest = workloads.fill(ctx, n_jobs)
    parent_only = n_jobs > 1
    untraced = workloads.timed_pass(ctx, "cold", n_jobs, None, digest)
    cold = traced_pass(ctx, "cold", n_jobs, None, digest, parent_only)
    warm = None if parent_only else traced_pass(ctx, "warm", 1, cache_dir, digest, False)
    if untraced is None or cold is None or (not parent_only and warm is None):
        raise RuntimeError("a traced pass failed: " + "; ".join(ctx.tally.problems))
    t, grid, wall = cold
    stats = grid.stats
    m = empty(ctx)
    plan = getattr(stats, "plan", {})
    for key in ("analyze", "schedule", "simulate", "assemble"):
        m[f"plan.{key}_s"] = t.seconds(f"plan.{key}")
    m["plan.plan_s"] = t.seconds("plan.plan") + t.seconds("plan.plan_simulate")
    for key in ("schedule_tasks", "simulate_tasks", "batch_width_max"):
        m[f"plan.{key}"] = plan.get(key, 0)
    m["grid.residual_s"] = wall - t.roots[-1][2]
    if warm is not None:
        wt, wgrid, _ = warm
        served = getattr(wgrid.stats, "memory_hits", 0) + getattr(wgrid.stats, "disk_hits", 0)
        m["grid.warm_run_s"] = wt.seconds("grid.run")
        m["grid.warm_cell_hit_ratio"] = ratio(served, wgrid.stats.computed)
    if n_jobs > 1:
        seconds = getattr(stats, "stage_seconds", {})
        m["pool.schedule_task_s"] = seconds.get("schedule", 0.0)
        m["pool.simulate_task_s"] = seconds.get("simulate", 0.0)
        life = t.counters.get("pool.lifetime_s", 0.0)
        if life:
            m["pool.busy_frac"] = (m["pool.schedule_task_s"] + m["pool.simulate_task_s"]) / (n_jobs * life)
    m["pool.wait_s"] = t.seconds("pool.wait")
    m["pool.ship_bytes"] = t.counters.get("pool.ship_bytes", 0)
    m["stagestore.lookups"] = t.calls("stagestore.lookup")
    m["stagestore.lookup_s"] = t.seconds("stagestore.lookup")
    m["stagestore.store_s"] = t.seconds("stagestore.store")
    if getattr(grid, "stage_store", None) is not None:
        tele = grid.stage_store.telemetry()
        for stage in ("schedule", "simulate"):
            c = tele.get(stage, {})
            m[f"stagestore.{stage}.hit_ratio"] = ratio(c.get("hits", 0), c.get("misses", 0))
    m["warmstate.lookups"] = t.calls("warmstate.lookup")
    ws = getattr(grid, "warm_store", None)
    if ws is not None:
        m["warmstate.hit_ratio"] = ratio(ws.hits, ws.misses)
        m["warmstate.stores"] = ws.stores
        m["warmstate.bytes"] = len(pickle.dumps(ws))
    for key in ("probe_clusters", "miss_ratio"):
        m[f"cme.{key}.calls"] = t.calls(f"cme.{key}")
        m[f"cme.{key}_s"] = t.seconds(f"cme.{key}")
    if hasattr(grid.locality, "telemetry"):
        cme = grid.locality.telemetry()
        m["cme.memo_hit_ratio"] = ratio(cme.get("memo_hits", 0), cme.get("probes", 0))
    mrt = [f"scheduler.mrt.{x}" for x in MRT]
    m["scheduler.schedules"] = t.calls("scheduler.schedule")
    m["scheduler.schedule_self_s"] = t.self_seconds("scheduler.schedule")
    m["scheduler.sms_order_s"] = t.seconds("scheduler.sms_order")
    m["scheduler.compute_mii_s"] = t.seconds("scheduler.compute_mii")
    m["scheduler.mrt.calls"] = sum(t.calls(n) for n in mrt)
    m["scheduler.mrt_s"] = sum(t.self_seconds(n) for n in mrt)
    m["simulator.runs"] = t.calls("simulator.run")
    m["simulator.run_self_s"] = t.self_seconds("simulator.run")
    m["simulator.run_batch_self_s"] = t.self_seconds("simulator.run_batch")
    if t.seconds("plan.simulate"):
        m["simulator.sim_cycles_per_s"] = t.counters.get("simulate.cycles", 0) / t.seconds("plan.simulate")
    batches = t.calls("memory.access_batch")
    m["memory.access_batch.calls"] = batches
    m["memory.access_batch_s"] = t.seconds("memory.access_batch")
    if batches:
        m["memory.accesses_per_batch"] = t.counters.get("memory.batched", 0) / batches
    m["memory.access.calls"] = t.calls("memory.access")
    m["memory.state_signature.calls"] = t.calls("memory.state_signature")
    m["memory.state_signature_s"] = t.seconds("memory.state_signature")
    m["memory.translate_s"] = t.seconds("memory.translate")
    bounds = t.calls("steady.boundary")
    m["steady.boundary.calls"] = bounds
    m["steady.boundary_s"] = t.seconds("steady.boundary")
    if bounds:
        m["steady.replay_ratio"] = t.counters.get("steady.replays", 0) / bounds
    m["trace.overhead_frac"] = wall / untraced[0] - 1
    path = ctx.outdir / f"{ctx.workload}-seed{ctx.seed}.trace.json"
    write_chrome_trace(path, [("cold pass", t)] + ([("warm pass", warm[0])] if warm else []))
    return m, {"chrome_trace": str(path), "untraced_cold_s": untraced[0]}


def _totals(stats: dict) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for grid in stats.get("grids", {}).values():
        for stage, s in grid.get("stage_seconds", {}).items():
            out[f"s.{stage}"] = out.get(f"s.{stage}", 0) + s
        for key, v in grid.get("plan", {}).items():
            out[f"p.{key}"] = max(out.get(f"p.{key}", 0), v) if key.endswith("_max") else out.get(f"p.{key}", 0) + v
        for stage, c in grid.get("stages", {}).items():
            for key in ("hits", "misses"):
                out[f"{stage}.{key}"] = out.get(f"{stage}.{key}", 0) + c.get(key, 0)
        for key, v in grid.get("warm", {}).items():
            out[f"warm.{key}"] = out.get(f"warm.{key}", 0) + v
    return out


def trace_service(ctx):
    server = workloads.ServerProcess(ctx)
    try:
        client = ServiceClient(server.url, timeout=workloads.TIMEOUT_S)
        checker = workloads.Checker(ctx)
        workloads.prime(ctx, client, checker)
        rounds = max(2, workloads.rounds_for(ctx.seconds) // 2)
        stream = list(workloads.job_stream(ctx.seed, 2 * rounds))
        half = rounds * len(workloads.MIX)
        untraced = [d.seconds for d in (workloads.job(ctx, client, checker, *s) for s in stream[:half]) if d]
        before = _totals(client.stats())
        tracer = Tracer(ctx.origin)
        jobs = []
        patches = Patches()
        for call in CLIENT:
            wrap_attribute(patches, tracer, ServiceClient, call, f"service.{call}")
        with patches:
            for scenario, think in stream[half:]:
                marks = {c: tracer.seconds(f"service.{c}") for c in CLIENT}
                done = workloads.job(ctx, client, checker, scenario, think)
                if done is None:
                    continue
                info = client.job(done.job_id)
                row = {c: tracer.seconds(f"service.{c}") - marks[c] for c in CLIENT}
                row.update(seconds=done.seconds, run=info["finished"] - info["started"],
                           poll_wait=done.events_end - info["finished"],
                           result_bytes=len(json.dumps(done.outcome, sort_keys=True).encode()),
                           export_bytes=done.export_bytes,
                           store_hits=(done.outcome.get("telemetry") or {}).get("store_hits", 0))
                jobs.append(row)
        ctx.tally.record("wrapper removal", [f"still wrapped: {n}" for n in patches.leftovers()])
        after = _totals(client.stats())
    finally:
        server.close()
    if not jobs or not untraced:
        raise RuntimeError("no traced jobs: " + "; ".join(ctx.tally.problems))
    n = len(jobs)
    d = lambda key: after.get(key, 0) - before.get(key, 0)  # noqa: E731
    m = empty(ctx)
    for stage in ("analyze", "schedule", "simulate"):
        m[f"plan.{stage}_s"] = d(f"s.{stage}") / n
    m["plan.schedule_tasks"] = d("p.schedule_tasks") / n
    m["plan.simulate_tasks"] = d("p.simulate_tasks") / n
    m["stagestore.lookups"] = sum(d(f"{s}.hits") + d(f"{s}.misses") for s in ("analyze", "schedule", "simulate")) / n
    for stage in ("schedule", "simulate"):
        m[f"stagestore.{stage}.hit_ratio"] = ratio(d(f"{stage}.hits"), d(f"{stage}.misses"))
    m["warmstate.lookups"] = (d("warm.hits") + d("warm.misses")) / n
    m["warmstate.hit_ratio"] = ratio(d("warm.hits"), d("warm.misses"))
    m["warmstate.stores"] = d("warm.stores") / n
    for call in CLIENT:
        m[f"service.{call}_s"] = statistics.median(j[call] for j in jobs)
    m["service.job_run_s"] = statistics.median(j["run"] for j in jobs)
    m["service.poll_wait_s"] = statistics.median(j["poll_wait"] for j in jobs)
    m["service.result_bytes"] = statistics.fmean(j["result_bytes"] for j in jobs)
    m["service.store_hits"] = statistics.fmean(j["store_hits"] for j in jobs)
    m["service.export_bytes"] = statistics.fmean(j["export_bytes"] for j in jobs)
    m["trace.overhead_frac"] = statistics.median(j["seconds"] for j in jobs) / statistics.median(untraced) - 1
    path = ctx.outdir / f"{ctx.workload}-seed{ctx.seed}.trace.json"
    write_chrome_trace(path, [("service client", tracer)])
    return m, {"traced_jobs": n, "chrome_trace": str(path)}
