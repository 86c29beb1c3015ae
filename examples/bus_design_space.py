#!/usr/bin/env python
"""Bus design-space exploration (a miniature of Figures 5 and 6).

Sweeps the memory-bus count and latency on the 4-cluster machine for a
subset of the SPECfp95-style suite and prints the normalized cycles per
scheduler and threshold, mirroring the structure of the paper's Section 5
evaluation.  The full sweeps live in ``benchmarks/``; this example keeps
the run under a minute.

Usage::

    python examples/bus_design_space.py [--jobs N]

The sweep is one :func:`~repro.harness.figure6` call: the Unified
reference and every bar's cells run in one :class:`ExperimentGrid` wave,
so it can fan out over worker processes and never recomputes a shared
schedule or simulation.
"""

import argparse

from repro import SamplingCME
from repro.harness import ExperimentGrid, figure6, format_table
from repro.workloads import spec_suite


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args()

    kernels = spec_suite(["tomcatv", "hydro2d", "turb3d"])
    grid = ExperimentGrid(
        locality=SamplingCME(max_points=512), n_jobs=args.jobs
    )
    figure = figure6(
        n_clusters=4,
        bus_counts=(1, 2),
        bus_latencies=(1, 4),
        thresholds=(1.0, 0.0),
        kernels=kernels,
        grid=grid,
    )

    print("kernels:", ", ".join(k.name for k in kernels))
    print(figure.title, "- normalized to Unified @ threshold 1.00")
    print()
    rows = [
        (
            bar.group.rsplit(" ", 1)[0],
            bar.scheduler,
            bar.threshold,
            bar.norm_compute,
            bar.norm_stall,
            bar.norm_total,
        )
        for bar in figure.bars
        if bar.group != "unified"
    ]
    print(
        format_table(
            ["bus config", "scheduler", "threshold", "compute", "stall", "total"],
            rows,
        )
    )
    print()
    print(
        "RMCA needs fewer inter-cluster memory transfers, so its advantage"
        " grows as buses get scarcer or slower — the Figure 6 story."
    )
    stats = grid.stats
    print(
        f"grid: {stats.requested} cells requested, "
        f"{stats.plan.get('schedule_tasks', 0)} schedules and "
        f"{stats.plan.get('simulate_tasks', 0)} simulations computed"
    )


if __name__ == "__main__":
    main()
