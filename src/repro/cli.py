"""Command-line interface.

Exposes the main experiments without writing Python::

    python -m repro.cli table1
    python -m repro.cli suite
    python -m repro.cli schedule tomcatv --machine 2-cluster --scheduler rmca
    python -m repro.cli simulate swim --machine 4-cluster --threshold 0.25
    python -m repro.cli fig5 --clusters 2 --latencies 1 4 --jobs 4 --out fig5.json
    python -m repro.cli fig6 --clusters 4 --csv fig6.csv
    python -m repro.cli scenarios
    python -m repro.cli run fig6-smoke --jobs 2
    python -m repro.cli serve --port 8642 --cache-dir /tmp/grid-cache
    python -m repro.cli submit fig6-smoke --url http://127.0.0.1:8642
    python -m repro.cli export fig6-smoke --format npz

Every command prints its table/chart to stdout; the figure commands can
additionally persist the raw records (``--csv`` / ``--out`` JSON).
``figure5``/``figure6`` (aliases ``fig5``/``fig6``) and ``run`` execute
their cells through the experiment grid: ``--jobs N`` fans them out over
N worker processes, repeated invocations reuse the stage products stored
under ``--cache-dir`` (or ``$REPRO_GRID_CACHE``), and per-cell progress
is reported on stderr (suppress with ``--no-progress``).  ``scenarios``
lists the registry (``--json`` for the machine-readable listing the
service also serves); ``run <scenario>`` executes one entry end-to-end
(``--exact`` disables the simulator's steady-state memoization, ``--spec``
prints the JSON spec instead of running).

The service trio: ``serve`` runs the long-lived experiment service (one
warm process owning the grid and its stores across jobs), ``submit``
sends a scenario to a running service and streams its progress, and
``export`` runs a scenario locally and writes its records as an npz/csv
artifact.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from .cme import SAMPLED_ENGINES
from .engine import make_scheduler
from .harness.charts import render_figure
from .harness.grid import CellSpec, ExperimentGrid, ProgressCallback
from .harness.io import figure_to_csv, figure_to_json
from .harness.report import format_table
from .harness.scenarios import (
    all_scenarios,
    get_scenario,
    run_scenario,
    scenario_listing,
)
from .harness.sweep import figure5, figure6
from .machine import ALL_PRESETS, preset
from .service import (
    BACKEND_KINDS,
    EXPORT_FORMATS,
    JobManager,
    ServiceClient,
    ServiceError,
    export_outcome,
    make_backend,
    run_server,
)
from .simulator import DEFAULT_SIM_ENGINE, SIM_ENGINES
from .steady import STEADY_MODES
from .workloads import SPEC_KERNELS, kernel_by_name, suite_stats

__all__ = ["main", "build_parser"]


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_cme_options(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument("--max-points", type=int, default=512)
    cmd.add_argument(
        "--cme", choices=sorted(SAMPLED_ENGINES), default="incremental",
        help="sampled-CME engine (results are bit-identical; "
             "'sampling' is the from-scratch reference)",
    )


def _add_grid_options(cmd: argparse.ArgumentParser) -> None:
    """The experiment-grid flags every grid-running command shares."""
    cmd.add_argument(
        "--jobs", type=_positive_int, default=1, metavar="N",
        help="worker processes for the experiment grid (default: 1)",
    )
    cmd.add_argument(
        "--no-cache", action="store_true",
        help="keep the stage and warm-state stores in memory only "
             "(ignore and write no disk layers)",
    )
    cmd.add_argument(
        "--no-warm-store", action="store_true",
        help="disable content-addressed warm-state reuse between "
             "cells (results are bit-identical either way)",
    )
    cmd.add_argument(
        "--cache-dir", metavar="DIR",
        help="directory for the stores' disk layers "
             "(default: $REPRO_GRID_CACHE)",
    )
    cmd.add_argument(
        "--no-progress", action="store_true",
        help="suppress per-cell progress reporting on stderr",
    )


def _build_locality(args: argparse.Namespace):
    return SAMPLED_ENGINES[args.cme](args.max_points)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Modulo Scheduling for a Fully-Distributed "
            "Clustered VLIW Architecture' (MICRO-33, 2000)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table1", help="print the Table 1 machine configurations")
    sub.add_parser("suite", help="print the workload suite statistics")

    for name, help_text in (
        ("schedule", "modulo-schedule a kernel and print the kernel table"),
        ("simulate", "schedule and simulate a kernel"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("kernel", choices=sorted(SPEC_KERNELS))
        cmd.add_argument(
            "--machine", default="2-cluster", choices=sorted(ALL_PRESETS)
        )
        cmd.add_argument(
            "--scheduler", default="rmca", choices=("baseline", "rmca")
        )
        cmd.add_argument("--threshold", type=float, default=1.0)
        _add_cme_options(cmd)

    for name, alias in (("figure5", "fig5"), ("figure6", "fig6")):
        cmd = sub.add_parser(
            name, aliases=[alias], help=f"regenerate {name} of the paper"
        )
        cmd.add_argument("--clusters", type=int, default=2, choices=(2, 4))
        cmd.add_argument(
            "--thresholds", type=float, nargs="+",
            default=[1.0, 0.75, 0.25, 0.0],
        )
        cmd.add_argument("--kernels", nargs="+", choices=sorted(SPEC_KERNELS))
        _add_cme_options(cmd)
        cmd.add_argument("--csv", help="write per-kernel records as CSV")
        cmd.add_argument("--out", help="write the figure as JSON")
        _add_grid_options(cmd)
        cmd.add_argument(
            "--steady", choices=STEADY_MODES, default="auto",
            help="steady-state detector selection (results are "
                 "bit-identical across modes; default: auto)",
        )
        cmd.add_argument(
            "--sim", choices=sorted(SIM_ENGINES), default=DEFAULT_SIM_ENGINE,
            help="simulate engine (results are bit-identical; 'scalar' "
                 "is the per-instance reference walk)",
        )
        if name == "figure5":
            cmd.add_argument(
                "--latencies", type=int, nargs="+", default=[1, 2, 4]
            )
        else:
            cmd.add_argument(
                "--bus-counts", type=int, nargs="+", default=[1, 2]
            )
            cmd.add_argument(
                "--bus-latencies", type=int, nargs="+", default=[1, 4]
            )

    scen_cmd = sub.add_parser("scenarios", help="list the scenario registry")
    scen_cmd.add_argument(
        "--json", action="store_true",
        help="emit the machine-readable listing (the same serialization "
             "the experiment service's GET /scenarios endpoint returns)",
    )

    run_cmd = sub.add_parser(
        "run", help="execute a registered scenario on the experiment grid"
    )
    run_cmd.add_argument("scenario", help="scenario name (see `scenarios`)")
    _add_grid_options(run_cmd)
    run_cmd.add_argument(
        "--exact", action="store_true",
        help="disable the simulator's steady-state detection "
             "(results are bit-identical either way)",
    )
    run_cmd.add_argument(
        "--steady", choices=STEADY_MODES,
        help="override the scenario's steady-state detector selection "
             "(off/entry/iteration/auto; results are bit-identical)",
    )
    run_cmd.add_argument(
        "--sim", choices=sorted(SIM_ENGINES),
        help="override the scenario's simulate engine (results are "
             "bit-identical; 'scalar' is the reference walk)",
    )
    run_cmd.add_argument(
        "--spec", action="store_true",
        help="print the scenario's JSON spec instead of running it",
    )
    run_cmd.add_argument("--csv", help="figure scenarios: records as CSV")
    run_cmd.add_argument("--out", help="figure scenarios: figure as JSON")

    serve_cmd = sub.add_parser(
        "serve",
        help="run the long-lived experiment service (one warm process "
             "owning the grid and its stores across jobs)",
    )
    serve_cmd.add_argument("--host", default="127.0.0.1")
    serve_cmd.add_argument("--port", type=int, default=8642)
    serve_cmd.add_argument(
        "--jobs", type=_positive_int, default=1, metavar="N",
        help="worker processes per job's experiment grid (default: 1)",
    )
    serve_cmd.add_argument(
        "--cache-dir", metavar="DIR",
        help="directory for the stores' disk layers (traces, warm state, "
             "per-stage results); default: $REPRO_GRID_CACHE",
    )
    serve_cmd.add_argument(
        "--backend", choices=BACKEND_KINDS, default="memory",
        help="job-record persistence (default: memory; disk keeps records "
             "across restarts, see --backend-dir)",
    )
    serve_cmd.add_argument(
        "--backend-dir", metavar="DIR",
        help="job-record directory (required with --backend disk)",
    )
    serve_cmd.add_argument(
        "--exact", action="store_true",
        help="run every cell with steady-state detection disabled "
             "(results are bit-identical either way)",
    )

    submit_cmd = sub.add_parser(
        "submit",
        help="submit a scenario to a running service and stream progress",
    )
    submit_cmd.add_argument(
        "scenario", help="scenario name (resolved by the server's registry)"
    )
    submit_cmd.add_argument(
        "--url", default="http://127.0.0.1:8642",
        help="service base URL (default: http://127.0.0.1:8642)",
    )
    submit_cmd.add_argument(
        "--steady", choices=STEADY_MODES,
        help="override the scenario's steady-state detector selection",
    )
    submit_cmd.add_argument(
        "--sim", choices=sorted(SIM_ENGINES),
        help="override the scenario's simulate engine",
    )
    submit_cmd.add_argument(
        "--timeout", type=float, default=600.0, metavar="SECONDS",
        help="per-request timeout (the event stream waits this long "
             "between events; default: 600)",
    )
    submit_cmd.add_argument(
        "--no-progress", action="store_true",
        help="suppress per-cell progress reporting on stderr",
    )

    export_cmd = sub.add_parser(
        "export",
        help="run a scenario locally and export its records as npz/csv",
    )
    export_cmd.add_argument("scenario", help="scenario name (see `scenarios`)")
    export_cmd.add_argument(
        "--format", choices=EXPORT_FORMATS, default="npz",
        help="artifact format (default: npz)",
    )
    export_cmd.add_argument(
        "--out", metavar="PATH",
        help="output path (default: <scenario>.<format>)",
    )
    _add_grid_options(export_cmd)
    export_cmd.add_argument(
        "--steady", choices=STEADY_MODES,
        help="override the scenario's steady-state detector selection",
    )
    export_cmd.add_argument(
        "--sim", choices=sorted(SIM_ENGINES),
        help="override the scenario's simulate engine",
    )
    return parser


def _cmd_table1() -> int:
    rows = []
    for name in ("unified", "2-cluster", "4-cluster", "heterogeneous"):
        machine = preset(name)
        desc = machine.describe()
        rows.append(
            (
                name,
                desc["clusters"],
                desc["issue_width"],
                desc["total_registers"],
                desc["total_cache"],
            )
        )
    print(
        format_table(
            ["config", "clusters", "issue width", "registers", "L1 bytes"],
            rows,
        )
    )
    return 0


def _cmd_suite() -> int:
    rows = [
        (name, s["dims"], s["operations"], s["memory_operations"],
         s["niter"], s["ntimes"])
        for name, s in suite_stats().items()
    ]
    print(
        format_table(
            ["kernel", "dims", "ops", "mem ops", "NITER", "NTIMES"], rows
        )
    )
    return 0


def _cmd_schedule(args: argparse.Namespace, run_simulation: bool) -> int:
    kernel = kernel_by_name(args.kernel)
    machine = preset(args.machine)
    locality = _build_locality(args)
    grid = None
    if run_simulation:
        # One cell through the grid (stores in memory only), so the
        # per-stage seconds below cover exactly this cell's work.
        grid = ExperimentGrid(locality=locality, cache=False)
        result = grid.run_one(
            CellSpec.of(kernel, machine, args.scheduler, args.threshold)
        )
        schedule = result.schedule
    else:
        engine = make_scheduler(args.scheduler, args.threshold, locality)
        schedule = engine.schedule(kernel, machine)
    schedule.validate()
    print(schedule.format_reservation_table())
    print(
        f"II={schedule.ii} (MII={schedule.mii})  SC={schedule.stage_count}  "
        f"comms/iter={schedule.n_communications}  "
        f"prefetched={schedule.prefetched_loads() or '-'}"
    )
    if grid is not None:
        simulation = result.simulation
        print(
            f"cycles: total={simulation.total_cycles} "
            f"(compute={simulation.compute_cycles}, "
            f"stall={simulation.stall_cycles})"
        )
        print(f"memory: {simulation.memory.as_dict()}")
        stages = "  ".join(
            f"{stage}={seconds * 1000:.1f}ms"
            for stage, seconds in grid.stats.stage_seconds.items()
        )
        print(f"stages: {stages}")
    return 0


def _progress_printer(stream) -> "ProgressCallback":
    """Per-cell progress line, overwritten in place on a terminal."""
    def report(done: int, total: int, spec: CellSpec, source: str) -> None:
        end = "\r" if stream.isatty() and done < total else "\n"
        print(
            f"[{done}/{total}] {spec} ({source})",
            end=end, file=stream, flush=True,
        )
    return report


def _build_grid(args: argparse.Namespace, locality) -> ExperimentGrid:
    """The grid shared by the figure and scenario commands: one place
    maps the :func:`_add_grid_options` flags (and, where offered,
    --exact) onto the engine."""
    return ExperimentGrid(
        locality=locality,
        n_jobs=args.jobs,
        cache=not args.no_cache,
        cache_dir=args.cache_dir,
        progress=None if args.no_progress else _progress_printer(sys.stderr),
        exact=getattr(args, "exact", False),
        warm=not args.no_warm_store,
    )


def _emit_figure(figure, args: argparse.Namespace) -> None:
    """Render a figure to stdout plus the optional --csv/--out files."""
    print(render_figure(figure))
    if args.csv:
        print(f"records written to {figure_to_csv(figure, args.csv)}")
    if args.out:
        print(f"figure written to {figure_to_json(figure, args.out)}")


def _cmd_figure(args: argparse.Namespace, which: str) -> int:
    # Explicit is-None test: argparse leaves the attribute None when the
    # flag is absent, and a falsy-but-present value must not be treated
    # as "use the default suite".
    kernels = (
        None
        if args.kernels is None
        else [kernel_by_name(name) for name in args.kernels]
    )
    grid = _build_grid(args, _build_locality(args))
    if which == "figure5":
        figure = figure5(
            n_clusters=args.clusters,
            latencies=tuple(args.latencies),
            thresholds=tuple(args.thresholds),
            kernels=kernels,
            grid=grid,
            steady=args.steady,
            sim=args.sim,
        )
    else:
        figure = figure6(
            n_clusters=args.clusters,
            bus_counts=tuple(args.bus_counts),
            bus_latencies=tuple(args.bus_latencies),
            thresholds=tuple(args.thresholds),
            kernels=kernels,
            grid=grid,
            steady=args.steady,
            sim=args.sim,
        )
    if not args.no_progress:
        _grid_stats_line(grid, sys.stderr)
    _emit_figure(figure, args)
    return 0


def _grid_stats_line(grid: ExperimentGrid, stream) -> None:
    stats = grid.stats
    stages = "  ".join(
        f"{stage}={seconds:.2f}s"
        for stage, seconds in stats.stage_seconds.items()
    )
    warm = ""
    if grid.warm_store is not None:
        store = grid.warm_store
        warm = (
            f"\nwarm state: {store.hits} hits, {store.misses} misses, "
            f"{store.stores} stored"
        )
    telemetry = grid.stage_store.telemetry()
    stage = "\nstage store: " + ", ".join(
        f"{name} {counts['hits']}/{counts['hits'] + counts['misses']} reused"
        for name, counts in telemetry.items()
    ) + f", {sum(c['stores'] for c in telemetry.values())} stored"
    plan = ""
    if stats.plan.get("runs"):
        p = stats.plan
        plan = (
            f"\nplan: {p.get('cells', 0)} cells -> "
            f"{p.get('analyze_tasks', 0)} analyze + "
            f"{p.get('schedule_tasks', 0)}/{p.get('schedule_unique', 0)} "
            f"schedule + "
            f"{p.get('simulate_tasks', 0)}/{p.get('simulate_unique', 0)} "
            f"simulate tasks, {p.get('batches', 0)} batches "
            f"(max width {p.get('batch_width_max', 0)})"
        )
    print(
        f"cells: {stats.requested} requested, "
        f"{stats.deduplicated} deduplicated"
        + (f"\nstage seconds: {stages}" if stages else "")
        + warm
        + stage
        + plan,
        file=stream,
    )


def _cmd_scenarios(args: argparse.Namespace) -> int:
    if args.json:
        print(json.dumps(scenario_listing(), indent=1, sort_keys=True))
        return 0
    rows = []
    for scenario in all_scenarios():
        cells = scenario.n_cells()
        rows.append(
            (
                scenario.name,
                "figure" if scenario.is_figure else "grid",
                "-" if cells is None else cells,
                scenario.description,
            )
        )
    print(format_table(["scenario", "kind", "cells", "description"], rows))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    scenario = get_scenario(args.scenario)
    if args.spec:
        print(scenario.to_json())
        return 0
    grid = _build_grid(args, scenario.locality.build())
    outcome = run_scenario(
        scenario, grid=grid, steady=args.steady, sim=args.sim
    )
    if not args.no_progress:
        _grid_stats_line(grid, sys.stderr)
    if outcome.figure is not None:
        _emit_figure(outcome.figure, args)
        return 0
    rows = [
        (
            group,
            kernel,
            result.scheduler,
            f"{threshold:.2f}",
            result.schedule.ii,
            result.total_cycles,
            result.compute_cycles,
            result.stall_cycles,
        )
        for group, threshold, kernel, result in outcome.iter_rows()
    ]
    print(
        format_table(
            ["group", "kernel", "scheduler", "thr", "II",
             "total", "compute", "stall"],
            rows,
        )
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    if args.backend == "disk" and args.backend_dir is None:
        print("--backend disk requires --backend-dir", file=sys.stderr)
        return 2
    manager = JobManager(
        cache_dir=args.cache_dir,
        backend=make_backend(args.backend, args.backend_dir),
        n_jobs=args.jobs,
        exact=args.exact,
    )
    run_server(host=args.host, port=args.port, manager=manager)
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    client = ServiceClient(args.url, timeout=args.timeout)
    try:
        job = client.submit(
            scenario=args.scenario, steady=args.steady, sim=args.sim
        )
        job_id = job["id"]
        print(f"job {job_id} submitted to {client.url}", file=sys.stderr)
        for event in client.events(job_id):
            if args.no_progress:
                continue
            if event["type"] == "cell":
                print(
                    f"[{event['done']}/{event['total']}] {event['kernel']}"
                    f"@{event['machine']} {event['scheduler']} "
                    f"thr={event['threshold']:.2f} ({event['source']})",
                    file=sys.stderr,
                )
            elif event["type"] == "state":
                print(f"job {job_id}: {event['state']}", file=sys.stderr)
        outcome = client.result(job_id)
    except ServiceError as exc:
        print(f"service error: {exc}", file=sys.stderr)
        return 1
    if outcome["state"] != "done":
        print(f"job failed: {outcome['error']}", file=sys.stderr)
        return 1
    telemetry = outcome["telemetry"]
    result = outcome["result"]
    count = (
        len(result["figure"]["records"])
        if result["kind"] == "figure"
        else len(result["rows"])
    )
    print(
        f"job {job_id} done: {count} records, "
        f"{telemetry['store_hits']} stage-store hits, "
        f"{telemetry['sim_warm_hits']} warm-state hits"
    )
    print(json.dumps(result, indent=1, sort_keys=True))
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    scenario = get_scenario(args.scenario)
    grid = _build_grid(args, scenario.locality.build())
    outcome = run_scenario(
        scenario, grid=grid, steady=args.steady, sim=args.sim
    )
    if not args.no_progress:
        _grid_stats_line(grid, sys.stderr)
    out = args.out if args.out else f"{scenario.name}.{args.format}"
    written = export_outcome(outcome, out, args.format)
    print(f"records written to {written}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "table1":
        return _cmd_table1()
    if args.command == "suite":
        return _cmd_suite()
    if args.command == "schedule":
        return _cmd_schedule(args, run_simulation=False)
    if args.command == "simulate":
        return _cmd_schedule(args, run_simulation=True)
    if args.command == "scenarios":
        return _cmd_scenarios(args)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "submit":
        return _cmd_submit(args)
    if args.command == "export":
        return _cmd_export(args)
    aliases = {"fig5": "figure5", "fig6": "figure6"}
    command = aliases.get(args.command, args.command)
    if command in ("figure5", "figure6"):
        return _cmd_figure(args, command)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
