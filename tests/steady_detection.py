"""Where the steady-state detectors fire on every ``fig6-smoke`` cell.

Results are bit-identical whether or not a detector fires, so a probe
bug that stops detection changes no figure and shows only as lost
speed.  ``tests/data/steady_fig6_smoke.txt`` records, per cell, the
entry detector's ``detected_at``, ``period`` and ``replayed_entries``
and each iteration record's ``entry``, ``detected_at``, ``period``,
``replayed_iterations`` and ``pruned_live_lines``;
``tests/test_steady_detection_table.py`` holds a run to it.

Like the golden figures, the table changes only on purpose: when a
change is meant to move detection, regenerate it with ::

    PYTHONPATH=src python tests/steady_detection.py

and commit the new table with the change that moved it.
"""

from __future__ import annotations

import pathlib
from typing import List

from repro.engine import RunResult, schedule_kernel
from repro.harness.grid import ExperimentGrid
from repro.harness.scenarios import run_scenario
from repro.simulator import VectorizedSimulator
from repro.workloads import kernel_by_name

TABLE = pathlib.Path(__file__).parent / "data" / "steady_fig6_smoke.txt"

HEADER = (
    "# kernel machine scheduler threshold steady"
    " | entry detected_at/period/replayed_entries"
    " | iterations entry:detected_at:period:replayed_iterations"
    ":pruned_live_lines ..."
)


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


def collect() -> List[str]:
    """One row per distinct ``fig6-smoke`` cell, in submission order."""
    from repro.harness.scenarios import get_scenario

    grid = _ReportGrid(get_scenario("fig6-smoke").locality.build())
    run_scenario("fig6-smoke", grid=grid)
    return grid.rows


def recorded() -> List[str]:
    """The committed table's rows."""
    return [
        line
        for line in TABLE.read_text().splitlines()
        if line and not line.startswith("#")
    ]


if __name__ == "__main__":
    rows = collect()
    TABLE.parent.mkdir(exist_ok=True)
    TABLE.write_text("\n".join([HEADER, *rows]) + "\n")
    print(f"wrote {len(rows)} rows to {TABLE}")
