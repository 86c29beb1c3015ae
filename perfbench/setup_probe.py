"""Set-up probe: one fresh interpreter's way to a ready experiment grid.

``python3 perfbench/setup_probe.py SCENARIO N_JOBS`` imports repro,
resolves the scenario, builds the grid the scenario runs on and prints
``ready``; the benchmark times a launch until that line.
"""

import sys


def main(argv) -> int:
    scenario_name, n_jobs = argv[1], int(argv[2])
    import repro  # noqa: F401  (the import is part of what is timed)
    from repro.harness.grid import ExperimentGrid
    from repro.harness.scenarios import get_scenario

    scenario = get_scenario(scenario_name)
    ExperimentGrid(locality=scenario.locality.build(), n_jobs=n_jobs)
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
