"""Where the steady-state detectors fire on every cell of a few scenarios.

Results are bit-identical whether or not a detector fires, so a probe
bug that stops detection changes no figure and shows only as lost
speed.  For each scenario in :data:`SCENARIOS`,
``tests/data/steady_<scenario>.txt`` records, per cell, the entry
detector's ``detected_at``, ``period`` and ``replayed_entries`` and each
iteration record's ``entry``, ``detected_at``, ``period``,
``replayed_iterations`` and ``pruned_live_lines``;
``tests/test_steady_detection_table.py`` holds a run to it.

The scenarios cover every way a detector runs:

* ``fig6-smoke`` — the 2-cluster and unified machines under ``auto``;
* ``fig6-steady-ablation`` — every detector mode forced, the only cells
  where the iteration detector runs on multi-entry loops (every entry
  but the last with ``final_entry=False``);
* ``streaming`` — the iteration detector on the 4-cluster and
  heterogeneous machines.

Like the golden figures, the tables change only on purpose: when a
change is meant to move detection, regenerate them with ::

    PYTHONPATH=src python tests/steady_detection.py

and commit the new tables with the change that moved them.
"""

from __future__ import annotations

import pathlib
from typing import List

from repro.engine import RunResult, schedule_kernel
from repro.harness.grid import ExperimentGrid
from repro.harness.scenarios import get_scenario, run_scenario
from repro.simulator import VectorizedSimulator
from repro.workloads import kernel_by_name

SCENARIOS = ("fig6-smoke", "fig6-steady-ablation", "streaming")

HEADER = (
    "# kernel machine scheduler threshold steady"
    " | entry detected_at/period/replayed_entries"
    " | iterations entry:detected_at:period:replayed_iterations"
    ":pruned_live_lines ..."
)


def table_path(scenario: str) -> pathlib.Path:
    """The committed table of one scenario."""
    name = scenario.replace("-", "_")
    return pathlib.Path(__file__).parent / "data" / f"steady_{name}.txt"


class _ReportGrid(ExperimentGrid):
    """Runs each distinct cell from scratch on a directly built
    simulator, keeping one table row per cell."""

    def __init__(self, locality):
        super().__init__(locality=locality)
        self.rows: List[str] = []
        self._seen = set()

    def run(self, specs):
        results = []
        for spec in specs:
            kernel = self._kernels.get(spec.kernel) or kernel_by_name(
                spec.kernel
            )
            machine = spec.build_machine()
            schedule = schedule_kernel(
                kernel, machine, spec.scheduler, spec.threshold,
                self.locality,
            )
            sim = VectorizedSimulator(
                schedule, spec.n_iterations, spec.n_times, steady=spec.steady
            )
            results.append(
                RunResult(
                    kernel=kernel.name,
                    machine=machine.name,
                    scheduler=spec.scheduler,
                    threshold=spec.threshold,
                    schedule=schedule,
                    simulation=sim.run(),
                )
            )
            if spec not in self._seen:
                self._seen.add(spec)
                self.rows.append(_row(spec, machine.name, sim.steady_report))
        return results


def _row(spec, machine: str, report) -> str:
    entry = report.entry
    entry_part = (
        "-"
        if entry is None
        else f"{entry.detected_at}/{entry.period}/{entry.replayed_entries}"
    )
    iteration_part = " ".join(
        f"{record.entry}:{record.detected_at}:{record.period}"
        f":{record.replayed_iterations}:{record.pruned_live_lines}"
        for record in report.iterations
    ) or "-"
    return (
        f"{spec.kernel} {machine} {spec.scheduler} {spec.threshold:g}"
        f" {report.mode} | {entry_part} | {iteration_part}"
    )


def collect(scenario: str) -> List[str]:
    """One row per distinct cell of ``scenario``, in submission order."""
    grid = _ReportGrid(get_scenario(scenario).locality.build())
    run_scenario(scenario, grid=grid)
    return grid.rows


def recorded(scenario: str) -> List[str]:
    """The committed table's rows for ``scenario``."""
    return [
        line
        for line in table_path(scenario).read_text().splitlines()
        if line and not line.startswith("#")
    ]


if __name__ == "__main__":
    for scenario in SCENARIOS:
        rows = collect(scenario)
        path = table_path(scenario)
        path.parent.mkdir(exist_ok=True)
        path.write_text("\n".join([HEADER, *rows]) + "\n")
        print(f"wrote {len(rows)} rows to {path}")
