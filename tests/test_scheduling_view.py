"""One schedule per scheduling problem.

The schedulers read the memory bus only through
``MachineConfig.miss_latency`` (latency, never count), so the stage
plan keys, computes and stores one schedule per kernel × scheduler ×
threshold × analyzer × *scheduling view* — the machine with its
memory-bus count dropped — and attaches it to every cell machine that
shares the view.  These tests hold the plan to one task per view and
the fingerprint to the cell's own machine, bus count included; the view
schedule's equality to the cell's is ``tests/test_differential.py``'s.
"""

import dataclasses

import pytest

from repro.cme import IncrementalCME
from repro.engine.stages import make_scheduler
from repro.harness.scenarios import run_scenario
from repro.machine import two_cluster
from repro.machine.config import BusConfig
from repro.scheduler import Schedule
from repro.workloads import spec_suite


def _decisions(schedule):
    """Every field of a schedule but its machine."""
    return {
        f.name: getattr(schedule, f.name)
        for f in dataclasses.fields(Schedule)
        if f.name != "machine"
    }


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
