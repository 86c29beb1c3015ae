"""Per-kernel simulate seconds under ``steady="off"`` and ``"auto"``:
this checkout against a baseline source tree, in one process.

The scenario runs once, cold, on this checkout to collect its simulate
tasks (schedule, iteration count, entry count).  Each round then times
every kernel's tasks under both modes with each tree's
``VectorizedSimulator``, kernel by kernel, alternating which tree goes
first, so drift in machine speed hits both trees alike.  Every run's
``SimulationResult`` must be the same in both trees and both modes: the
script exits non-zero naming the first kernel whose results differ.
Prints a markdown table of medians over the rounds, then a table of
the detector work of one untimed ``auto`` pass per kernel and tree:
calls to ``boundary`` (both detectors), to ``state_probe`` and to the
pruned tier's ``probe_signature``, counted by wrapping the loaded
tree's methods.  ``--json`` also writes every round's timings and the
work counts.

usage (from the repository root)::

    python benchmarks/steady_off_auto.py BASELINE_SRC \\
        [--scenario fig6-2cluster] [--rounds 7] [--json OUT]

``BASELINE_SRC`` is the ``src`` directory of another checkout, e.g. the
parent commit unpacked with ``git archive``.  Both trees simulate the
same schedule objects, built by this checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pathlib
import statistics
import sys
import time
from typing import NamedTuple

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
MODES = ("off", "auto")
WORK = ("boundary", "state_probe", "pruned probe_signature")


class Tree(NamedTuple):
    """One loaded source tree: its simulator and the classes whose
    methods :func:`count_work` wraps."""

    simulator: type
    memory: type
    detectors: tuple


def load(src: pathlib.Path) -> Tree:
    """Import ``repro`` afresh from ``src`` (an earlier tree's modules
    stay alive through the objects that reference them)."""
    for name in [m for m in sys.modules if m == "repro" or m.startswith("repro.")]:
        del sys.modules[name]
    sys.path.insert(0, str(src))
    try:
        from repro.memory.hierarchy import DistributedMemorySystem
        from repro.simulator import VectorizedSimulator
        from repro.steady import SteadyStateDetector
    finally:
        sys.path.remove(str(src))
    detectors = tuple(
        cls for cls in SteadyStateDetector.__subclasses__()
        if "boundary" in vars(cls)
    )
    return Tree(VectorizedSimulator, DistributedMemorySystem, detectors)


def collect_tasks(scenario: str) -> list:
    """Run ``scenario`` cold on the loaded tree; returns its simulate
    tasks as ``(kernel, schedule, n_iterations, n_times)``."""
    from repro.harness import grid
    from repro.harness.scenarios import run_scenario

    tasks = []
    run_batch = grid.run_simulate_batch

    def recording(plan_tasks, schedules, warm_store):
        for task, schedule in zip(plan_tasks, schedules):
            payload = task.payload
            tasks.append(
                (
                    str(payload["kernel"]),
                    schedule,
                    payload["n_iterations"],
                    payload["n_times"],
                )
            )
        return run_batch(plan_tasks, schedules, warm_store)

    grid.run_simulate_batch = recording
    try:
        run_scenario(scenario)
    finally:
        grid.run_simulate_batch = run_batch
    return tasks


def time_tasks(simulator, tasks: list, mode: str) -> tuple:
    """Seconds ``simulator`` spends in ``run()`` over ``tasks``, and
    each task's result as a dict."""
    total = 0.0
    results = []
    for _kernel, schedule, n_iterations, n_times in tasks:
        sim = simulator(
            schedule, n_iterations=n_iterations, n_times=n_times, steady=mode
        )
        start = time.perf_counter()
        result = sim.run()
        total += time.perf_counter() - start
        results.append(result.as_dict())
    return total, results


def count_work(tree: Tree, tasks: list) -> dict:
    """Detector work of one ``auto`` pass over ``tasks``: calls to
    ``boundary``, ``state_probe`` and ``probe_signature`` with a
    ``live_prune`` predicate (the pruned tier)."""
    counts = dict.fromkeys(WORK, 0)
    wrapped = [(cls, "boundary", "boundary", False) for cls in tree.detectors]
    wrapped += [
        (tree.memory, "state_probe", "state_probe", False),
        (tree.memory, "probe_signature", "pruned probe_signature", True),
    ]
    originals = []

    def counting(method, work, pruned_only):
        def call(*args, **kwargs):
            if not pruned_only or kwargs.get("live_prune") is not None:
                counts[work] += 1
            return method(*args, **kwargs)

        return call

    try:
        for cls, name, work, pruned_only in wrapped:
            method = vars(cls)[name]
            originals.append((cls, name, method))
            setattr(cls, name, counting(method, work, pruned_only))
        time_tasks(tree.simulator, tasks, "auto")
    finally:
        for cls, name, method in originals:
            setattr(cls, name, method)
    return counts


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline_src", type=pathlib.Path)
    parser.add_argument("--scenario", default="fig6-2cluster")
    parser.add_argument("--rounds", type=int, default=7)
    parser.add_argument("--json", type=pathlib.Path)
    args = parser.parse_args(argv)
    # Older trees read this variable as a default cache directory: drop
    # it, so every tree collects its tasks memory-only.
    os.environ.pop("REPRO_GRID_CACHE", None)

    trees = {"this": load(SRC)}
    tasks = collect_tasks(args.scenario)
    trees["baseline"] = load(args.baseline_src.resolve())
    by_kernel = {}
    for task in tasks:
        by_kernel.setdefault(task[0], []).append(task)

    # kernel -> mode -> tree -> [seconds per round]
    times = {
        kernel: {mode: {tree: [] for tree in trees} for mode in MODES}
        for kernel in by_kernel
    }
    order = list(trees)
    gc.disable()
    try:
        for _round in range(args.rounds):
            for kernel, kernel_tasks in by_kernel.items():
                expected = None
                for tree in order:
                    for mode in MODES:
                        seconds, results = time_tasks(
                            trees[tree].simulator, kernel_tasks, mode
                        )
                        times[kernel][mode][tree].append(seconds)
                        if expected is None:
                            expected = results
                        elif results != expected:
                            raise SystemExit(
                                f"{kernel}: results differ ({tree} tree, "
                                f"steady={mode})"
                            )
                gc.collect()
            order.reverse()
    finally:
        gc.enable()

    def median(kernel, mode, tree):
        return statistics.median(times[kernel][mode][tree])

    print(
        "| kernel | off, baseline | off | auto, baseline | auto "
        "| auto / off | auto / baseline auto |"
    )
    print("| --- | --- | --- | --- | --- | --- | --- |")
    totals = dict.fromkeys(
        ((mode, tree) for mode in MODES for tree in ("baseline", "this")), 0.0
    )
    for kernel in by_kernel:
        cells = {key: median(kernel, *key) for key in totals}
        for key, value in cells.items():
            totals[key] += value
        _row(kernel, cells)
    _row("total", totals)

    # kernel -> tree -> work -> calls
    work = {
        kernel: {
            tree: count_work(trees[tree], kernel_tasks) for tree in order
        }
        for kernel, kernel_tasks in by_kernel.items()
    }
    print()
    print(
        "| kernel | "
        + " | ".join(f"{w}, baseline | {w}" for w in WORK)
        + " |"
    )
    print("|" + " --- |" * (1 + 2 * len(WORK)))
    for kernel in list(work) + ["total"]:
        calls = [
            sum(
                work[k][tree][w]
                for k in (work if kernel == "total" else (kernel,))
            )
            for w in WORK
            for tree in ("baseline", "this")
        ]
        print(f"| {kernel} | " + " | ".join(map(str, calls)) + " |")
    if args.json is not None:
        args.json.write_text(
            json.dumps(
                {
                    "scenario": args.scenario,
                    "rounds": args.rounds,
                    "tasks": len(tasks),
                    "first_tree_per_round": [
                        "this" if r % 2 == 0 else "baseline"
                        for r in range(args.rounds)
                    ],
                    "seconds": times,
                    "work": work,
                },
                indent=1,
            )
        )


def _row(label: str, cells: dict) -> None:
    off = cells[("off", "this")]
    auto = cells[("auto", "this")]
    print(
        "| %s | %.3f s | %.3f s | %.3f s | %.3f s | %.2f | %.2f |"
        % (
            label,
            cells[("off", "baseline")],
            off,
            cells[("auto", "baseline")],
            auto,
            auto / off,
            auto / cells[("auto", "baseline")],
        )
    )


if __name__ == "__main__":
    main()
