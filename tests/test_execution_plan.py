"""Plan-based grid execution: dedup accounting, assembly, batching.

On a cold run each unique analyze/schedule/simulate key executes exactly
once (planned task count == unique store keys), assembly relabels shared
products into each cell's result, and the planner is deterministic.
The plan's results against the store-less reference, for every cell, are
the ``plan`` column of ``tests/test_differential.py``.
"""

import pytest

from repro.cme import IncrementalCME, SamplingCME
from repro.engine import ExecutionPlanner, StageStore
from repro.engine.plan import kernel_units, run_schedule_task
from repro.engine.stages import make_scheduler
from repro.harness.grid import CellSpec, ExperimentGrid, machine_from_key
from repro.harness.scenarios import get_scenario, run_scenario
from repro.machine import four_cluster, two_cluster
from repro.simulator import LockstepSimulator, VectorizedSimulator
from repro.workloads import spec_suite

MAX_POINTS = 512


def _canonical(results):
    return [result.canonical() for result in results]


# ----------------------------------------------------------------------
# Cold-run task accounting (the dedup acceptance criterion)
# ----------------------------------------------------------------------
class TestColdRunTaskAccounting:
    def test_fig6_unique_keys_execute_exactly_once(self):
        outcome = run_scenario("fig6-smoke", cache=False)
        plan = outcome.grid.stats.plan
        telemetry = outcome.grid.stage_store.telemetry()
        # Cold store: every unique key misses once, becomes exactly one
        # task, and stores exactly one entry.
        assert plan["schedule_tasks"] == plan["schedule_unique"]
        assert (
            plan["schedule_tasks"]
            == telemetry["schedule"]["stores"]
            == telemetry["schedule"]["entries"]
        )
        assert plan["simulate_tasks"] == plan["simulate_unique"]
        assert (
            plan["simulate_tasks"]
            == telemetry["simulate"]["stores"]
            == telemetry["simulate"]["entries"]
        )
        assert plan["analyze_tasks"] == telemetry["analyze"]["entries"]
        # Every cell probed the schedule family exactly once (owners at
        # plan time, duplicates at assembly).
        schedule = telemetry["schedule"]
        assert schedule["hits"] + schedule["misses"] == plan["cells"]
        assert schedule["hits"] == plan["cells"] - plan["schedule_unique"]
        # The threshold sweep collapses simulate work below cell count.
        assert plan["simulate_unique"] < plan["cells"]
        assert plan["batch_width_max"] > 1

    def test_analyze_tasks_planned_for_trace_backed_analyzer(self):
        grid = ExperimentGrid(
            locality=IncrementalCME(max_points=MAX_POINTS), cache=False
        )
        outcome = run_scenario("streaming", grid=grid)
        plan = grid.stats.plan
        telemetry = grid.stage_store.telemetry()
        assert plan["analyze_tasks"] > 0
        assert plan["analyze_tasks"] == telemetry["analyze"]["entries"]
        # One analyze task per unique loop, not per cell.
        assert plan["analyze_tasks"] < len(outcome.results)

    def test_sampling_analyzer_plans_no_analyze_tasks(self):
        grid = ExperimentGrid(
            locality=SamplingCME(max_points=MAX_POINTS), cache=False
        )
        run_scenario("streaming", grid=grid)
        assert grid.stats.plan["analyze_tasks"] == 0

    def test_warm_store_plans_zero_tasks(self, tmp_path):
        cold = run_scenario("streaming", cache_dir=tmp_path)
        warm = run_scenario("streaming", cache_dir=tmp_path)
        plan = warm.grid.stats.plan
        # Every unique key hits at plan time: nothing left to execute.
        assert plan["schedule_tasks"] == 0
        assert plan["simulate_tasks"] == 0
        assert plan["batches"] == 0
        assert plan["schedule_unique"] > 0
        assert _canonical(warm.results) == _canonical(cold.results)


class TestAssemblyRelabel:
    def test_matching_labels_reuse_the_plan_product(self, monkeypatch):
        """A store-served owner cell whose product already carries its
        labels gets the plan's own ``SimulationResult``; any other cell
        gets a relabeled copy, and the results are unchanged."""
        scenario = get_scenario("fig6-smoke")
        grid = ExperimentGrid(locality=scenario.locality.build())
        seen = []
        real_assemble = ExecutionPlanner.assemble

        def _assemble(planner, node, plan):
            product = plan.simulations.get(node.simulate_key)
            result = real_assemble(planner, node, plan)
            seen.append((node, product, result))
            return result

        monkeypatch.setattr(ExecutionPlanner, "assemble", _assemble)
        cold = run_scenario(scenario, grid=grid)
        cold_results = _canonical(result for _n, _p, result in seen)
        seen.clear()
        tasks = grid.stats.plan["simulate_tasks"]
        warm = run_scenario(scenario, grid=grid)
        assert grid.stats.plan["simulate_tasks"] == tasks  # store-served
        assert _canonical(result for _n, _p, result in seen) == cold_results
        assert warm.figure.records == cold.figure.records
        reused = relabeled = 0
        for node, product, result in seen:
            spec = node.spec
            labels = (spec.kernel, spec.machine_name, spec.scheduler,
                      spec.threshold)
            simulation = result.simulation
            assert (simulation.kernel, simulation.machine,
                    simulation.scheduler, simulation.threshold) == labels
            if (product.kernel, product.machine, product.scheduler,
                    product.threshold) != labels:
                assert simulation is not product
                relabeled += 1
            elif node.simulate_owner:
                assert simulation is product
                reused += 1
        assert reused and relabeled


# ----------------------------------------------------------------------
# Planner unit contracts
# ----------------------------------------------------------------------
class TestPlannerUnit:
    def _specs(self):
        machine = two_cluster()
        suite = spec_suite(["tomcatv", "hydro2d"])
        specs = [
            CellSpec.of(kernel, machine, scheduler, threshold)
            for kernel in suite
            for scheduler in ("baseline", "rmca")
            for threshold in (1.0, 0.0)
        ]
        return specs, {kernel.name: kernel for kernel in suite}

    def _build_plan(self, locality):
        specs, kernels = self._specs()
        planner = ExecutionPlanner(locality, StageStore())
        plan = planner.plan(specs, kernels)
        for task in plan.schedule_tasks:
            schedule = run_schedule_task(
                task,
                kernels[str(task.payload["kernel"])],
                machine_from_key(str(task.payload["machine"])),
                locality,
            )
            plan.schedules[task.key] = schedule
        planner.plan_simulate(plan)
        return plan

    def test_planner_is_deterministic(self):
        first = self._build_plan(SamplingCME(max_points=MAX_POINTS))
        second = self._build_plan(SamplingCME(max_points=MAX_POINTS))
        for stage in ("analyze_tasks", "schedule_tasks", "simulate_tasks"):
            assert getattr(first, stage) == getattr(second, stage), stage
        assert first.assembly == second.assembly
        assert first.counters == second.counters

    def test_schedule_tasks_unique_and_owned(self):
        plan = self._build_plan(SamplingCME(max_points=MAX_POINTS))
        keys = [task.key for task in plan.schedule_tasks]
        assert len(keys) == len(set(keys))
        owners = [n for n in plan.assembly if n.schedule_owner]
        assert len(owners) == plan.counters["schedule_unique"]
        # Every assembly node resolves to a materialized product key.
        for node in plan.assembly:
            assert node.schedule_key in plan.schedules
            assert node.simulate_key is not None

    def test_batches_group_by_kernel_and_geometry(self):
        # One simulate unit per kernel; every cell here shares one
        # geometry, so the units are the old kernel × geometry batches.
        plan = self._build_plan(SamplingCME(max_points=MAX_POINTS))
        units = kernel_units(plan.simulate_tasks)
        members = [task.key for unit in units for task in unit]
        assert sorted(members) == sorted(t.key for t in plan.simulate_tasks)
        assert len(members) == len(set(members))
        for unit in units:
            assert unit and {t.stage for t in unit} == {"simulate"}
            assert len({t.payload["kernel"] for t in unit}) == 1
        assert plan.counters["batches"] == len(units) == 2
        assert plan.counters["batch_width_max"] == max(map(len, units))


# ----------------------------------------------------------------------
# VectorizedSimulator.run_batch: members in order, as if run solo
# ----------------------------------------------------------------------
class TestRunBatch:
    @pytest.fixture(scope="class")
    def schedules(self):
        analyzer = IncrementalCME(max_points=MAX_POINTS)
        kernel = spec_suite(["tomcatv"])[0]
        return [
            make_scheduler(scheduler, threshold, analyzer).schedule(
                kernel, machine
            )
            for scheduler, threshold, machine in (
                ("baseline", 1.0, two_cluster()),
                ("rmca", 0.0, two_cluster()),
                ("baseline", 0.0, four_cluster()),
            )
        ]

    def test_mixed_batch_equals_solo_runs_in_order(self, schedules):
        want = [
            VectorizedSimulator(schedules[0]).run(),
            LockstepSimulator(schedules[1]).run(),
            VectorizedSimulator(schedules[2]).run(),
        ]
        sims = (
            engine(schedule)
            for engine, schedule in zip(
                (VectorizedSimulator, LockstepSimulator, VectorizedSimulator),
                schedules,
            )
        )
        got = VectorizedSimulator.run_batch(sims)
        assert [r.as_dict() for r in got] == [r.as_dict() for r in want]
