#!/usr/bin/env python
"""Bus design-space exploration (a miniature of Figures 5 and 6).

Sweeps the memory-bus count and latency on the 4-cluster machine for a
subset of the SPECfp95-style suite and prints the normalized cycles per
scheduler and threshold, mirroring the structure of the paper's Section 5
evaluation.  The full sweeps live in ``benchmarks/``; this example keeps
the run under a minute.

Usage::

    python examples/bus_design_space.py [--jobs N]

All cells run through one :class:`ExperimentGrid`, so the sweep can fan
out over worker processes and never recomputes a shared schedule or
simulation.
"""

import argparse

from repro import BusConfig, SamplingCME, four_cluster
from repro.harness import (
    ExperimentGrid,
    format_table,
    suite_bar,
    unified_reference,
)
from repro.workloads import spec_suite


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args()

    kernels = spec_suite(["tomcatv", "hydro2d", "turb3d"])
    grid = ExperimentGrid(
        locality=SamplingCME(max_points=512), n_jobs=args.jobs
    )
    reference = unified_reference(kernels, grid=grid)

    print("kernels:", ", ".join(k.name for k in kernels))
    print("reference (unified @ threshold 1.00):", reference)
    print()

    rows = []
    register_bus = BusConfig(count=2, latency=1)
    for nmb in (1, 2):
        for lmb in (1, 4):
            machine = four_cluster(
                register_bus=register_bus,
                memory_bus=BusConfig(count=nmb, latency=lmb),
            )
            for scheduler in ("baseline", "rmca"):
                for threshold in (1.0, 0.0):
                    bar, _records = suite_bar(
                        f"NMB={nmb},LMB={lmb}",
                        kernels,
                        machine,
                        scheduler,
                        threshold,
                        None,
                        reference,
                        grid=grid,
                    )
                    rows.append(
                        (
                            bar.group,
                            scheduler,
                            threshold,
                            bar.norm_compute,
                            bar.norm_stall,
                            bar.norm_total,
                        )
                    )

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
