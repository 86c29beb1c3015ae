"""One schedule per scheduling problem.

The schedulers read the memory bus only through
``MachineConfig.miss_latency`` (latency, never count), so the stage
plan keys, computes and stores one schedule per kernel × scheduler ×
threshold × analyzer × *scheduling view* — the machine with its
memory-bus count dropped — and attaches it to every cell machine that
shares the view.  These tests hold that to the per-cell oracle: a
schedule made on the view equals the one made on the cell's own machine
for every cell the repository runs, the plan makes one task per view,
and the fingerprint a simulate key embeds still names the cell's own
machine, bus count included.
"""

import dataclasses

import pytest

from repro.cme import IncrementalCME
from repro.engine.stages import make_scheduler
from repro.harness.grid import ExperimentGrid, machine_from_key
from repro.harness.scenarios import all_scenarios, get_scenario, run_scenario
from repro.machine import two_cluster
from repro.machine.config import BusConfig
from repro.scheduler import Schedule
from repro.workloads import spec_suite

#: Grid scenarios run their own cells; of the figures, the two NMB × LMB
#: sweeps hold every machine pair that differs only in the bus count.
SCENARIOS = [s.name for s in all_scenarios() if not s.is_figure] + [
    "fig6-2cluster",
    "fig6-4cluster",
]


class _Captured(Exception):
    pass


class _CaptureGrid(ExperimentGrid):
    """Records the cells a figure submits, then stops it."""

    def run(self, specs):
        self.specs = list(specs)
        raise _Captured


def _cells(name):
    """The scenario's cells, its kernels by name and its analyzer."""
    scenario = get_scenario(name)
    locality = scenario.locality.build()
    if not scenario.is_figure:
        kernels = scenario.build_kernels()
        return scenario.expand(kernels), {k.name: k for k in kernels}, locality
    grid = _CaptureGrid(locality=locality, cache=False)
    with pytest.raises(_Captured):
        run_scenario(scenario, grid=grid)
    return grid.specs, grid._kernels, locality


def _decisions(schedule):
    """Every field of a schedule but its machine."""
    return {
        f.name: getattr(schedule, f.name)
        for f in dataclasses.fields(Schedule)
        if f.name != "machine"
    }


@pytest.mark.parametrize("name", SCENARIOS)
def test_view_schedule_equals_cell_schedule(name):
    specs, kernels, locality = _cells(name)
    problems = {
        (spec.kernel, spec.machine, spec.scheduler, spec.threshold)
        for spec in specs
    }
    bounded = 0
    for kernel_name, key, scheduler, threshold in sorted(problems):
        machine = machine_from_key(key)
        view = machine.scheduling_view
        latency = machine.memory_bus.latency
        assert view == dataclasses.replace(
            machine, memory_bus=BusConfig(count=None, latency=latency)
        )
        if machine.memory_bus.count is None:
            assert view is machine
            continue
        bounded += 1
        engine = make_scheduler(scheduler, threshold, locality)
        kernel = kernels[kernel_name]
        on_view = engine.schedule(kernel, view)
        on_cell = engine.schedule(kernel, machine)
        assert _decisions(on_view) == _decisions(on_cell), (
            kernel_name, machine.name, scheduler, threshold,
        )
    if name.startswith("fig6-"):
        assert bounded > 0


def _plan(name):
    outcome = run_scenario(name, cache=False)
    return outcome, outcome.grid.stats.plan


@pytest.mark.parametrize(
    "name, cells, schedule_tasks, simulate_tasks",
    [
        ("fig6-2cluster", 296, 160, 167),
        ("bus-design-space-smoke", 48, 24, 40),
    ],
)
def test_one_schedule_task_per_view(
    name, cells, schedule_tasks, simulate_tasks
):
    _outcome, plan = _plan(name)
    assert plan["cells"] == cells
    assert plan["schedule_tasks"] == plan["schedule_unique"] == schedule_tasks
    assert plan["simulate_tasks"] == plan["simulate_unique"] == simulate_tasks


def test_bus_count_siblings_share_decisions_not_simulations():
    outcome, _plan_counters = _plan("bus-design-space-smoke")
    by_cell = {}
    for result in outcome.results:
        schedule = result.schedule
        bus = schedule.machine.memory_bus
        cell = (result.kernel, result.scheduler, result.threshold, bus.latency)
        by_cell.setdefault(cell, {})[bus.count] = schedule
    assert by_cell
    for cell, schedules in by_cell.items():
        one, two = schedules[1], schedules[2]
        assert one.placements is two.placements, cell  # one attached body
        assert one.digest() == two.digest(), cell
        assert one.fingerprint() != two.fingerprint(), cell


class TestFingerprint:
    @pytest.fixture(scope="class")
    def scheduled(self):
        analyzer = IncrementalCME(max_points=512)
        kernel = spec_suite(["tomcatv"])[0]
        machines = [
            two_cluster(memory_bus=BusConfig(count=count, latency=4))
            for count in (1, 2)
        ]
        engine = make_scheduler("rmca", 0.25, analyzer)
        return (
            kernel,
            machines,
            engine.schedule(kernel, machines[0].scheduling_view),
            [engine.schedule(kernel, machine) for machine in machines],
        )

    def test_bus_count_changes_the_fingerprint(self, scheduled):
        _kernel, _machines, _view, (one, two) = scheduled
        assert one.digest() == two.digest()
        assert one.fingerprint() != two.fingerprint()

    def test_attached_fingerprint_equals_a_fresh_schedule(self, scheduled):
        kernel, machines, view, fresh = scheduled
        body = view.body()
        for machine, schedule in zip(machines, fresh):
            for attached in (
                body.attach(kernel, machine),
                view.attach(kernel, machine),
            ):
                assert attached.machine is machine
                assert _decisions(attached) == _decisions(schedule)
                assert attached.fingerprint() == schedule.fingerprint()
