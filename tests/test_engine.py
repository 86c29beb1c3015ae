"""Tests for the cell-execution engine's pure stages (repro.engine)."""

import pytest

from repro.engine import (
    RunResult,
    analyze_loop,
    make_scheduler,
    schedule_kernel,
)
from repro.harness.grid import CellSpec, ExperimentGrid
from repro.machine import four_cluster, two_cluster, unified
from repro.simulator import VectorizedSimulator
from repro.workloads import kernel_by_name

from reference_cells import reference_cell


class TestStageFunctions:
    def test_analyze_returns_the_analyzer_trace(self, saxpy):
        grid = ExperimentGrid()  # default analyzer: traced
        trace = analyze_loop(saxpy.loop, grid.locality)
        assert trace is not None
        assert trace is analyze_loop(saxpy.loop, grid.locality)

    def test_analyze_without_trace_store_has_no_product(
        self, saxpy, analytic_cme
    ):
        assert analyze_loop(saxpy.loop, analytic_cme) is None

    def test_schedule_matches_the_scheduler(self, stencil, sampling_cme):
        via_stage = schedule_kernel(
            stencil, two_cluster(), "rmca", 0.25, sampling_cme
        )
        direct = make_scheduler("rmca", 0.25, sampling_cme).schedule(
            stencil, two_cluster()
        )
        assert via_stage.fingerprint() == direct.fingerprint()
        assert via_stage.ii >= via_stage.mii

    def test_schedule_defaults_the_analyzer(self, saxpy, sampling_cme):
        assert (
            schedule_kernel(saxpy, unified(), "baseline", 1.0).fingerprint()
            == schedule_kernel(
                saxpy, unified(), "baseline", 1.0, sampling_cme
            ).fingerprint()
        )

    def test_unknown_scheduler_rejected(self, saxpy, sampling_cme):
        with pytest.raises(KeyError, match="unknown scheduler"):
            schedule_kernel(saxpy, unified(), "greedy", 1.0, sampling_cme)


class TestGridCells:
    def test_stage_seconds_cover_every_stage(self, saxpy):
        grid = ExperimentGrid()
        grid.register([saxpy])
        grid.run_one(CellSpec.of(saxpy, unified(), "baseline", 1.0))
        assert set(grid.stats.stage_seconds) == {
            "analyze", "schedule", "simulate"
        }
        assert all(s >= 0 for s in grid.stats.stage_seconds.values())

    def test_grid_cell_matches_reference(self, stencil, sampling_cme):
        grid = ExperimentGrid(locality=sampling_cme)
        grid.register([stencil])
        result = grid.run_one(CellSpec.of(stencil, two_cluster(), "rmca", 0.25))
        assert isinstance(result, RunResult)
        assert result.canonical() == reference_cell(
            stencil, two_cluster(), "rmca", 0.25, sampling_cme
        ).canonical()

    def test_kernel_resolved_by_suite_name(self, sampling_cme):
        grid = ExperimentGrid(locality=sampling_cme)
        result = grid.run_one(CellSpec.of("applu", unified(), "baseline", 1.0))
        assert result.kernel == "applu"

    def test_unknown_kernel_name_rejected(self, saxpy, sampling_cme):
        grid = ExperimentGrid(locality=sampling_cme)
        with pytest.raises(KeyError, match="cannot resolve kernel"):
            grid.run_one(CellSpec.of(saxpy, unified(), "baseline", 1.0))

    def test_iteration_overrides_flow_through(self, saxpy, sampling_cme):
        grid = ExperimentGrid(locality=sampling_cme)
        grid.register([saxpy])
        result = grid.run_one(
            CellSpec.of(saxpy, unified(), "baseline", 1.0, n_iterations=8,
                        n_times=2)
        )
        assert result.simulation.n_iterations == 8
        assert result.simulation.n_times == 2


class TestSteadyOffMode:
    @pytest.fixture
    def tomcatv_schedule(self, sampling_cme):
        return schedule_kernel(
            kernel_by_name("tomcatv"), four_cluster(), "baseline", 1.0,
            sampling_cme,
        )

    def test_off_mode_disables_memoization(self, tomcatv_schedule):
        simulator = VectorizedSimulator(tomcatv_schedule, steady="off")
        simulator.run()
        assert simulator.steady_mode == "off"
        assert simulator.steady_report.entry is None

    def test_memoized_reports_replay_and_matches_exact(self, tomcatv_schedule):
        simulator = VectorizedSimulator(tomcatv_schedule)
        memo = simulator.run()
        exact = VectorizedSimulator(tomcatv_schedule, steady="off").run()
        steady = simulator.steady_report.entry
        assert steady.replayed_entries > 0
        assert steady.period >= 1
        assert (
            steady.simulated_entries + steady.replayed_entries == memo.n_times
        )
        assert memo.as_dict() == exact.as_dict()


class TestCompatibilityExports:
    def test_compare_reexports_engine_objects(self):
        from repro.analysis import compare

        assert compare.RunResult is RunResult
        assert compare.make_scheduler is make_scheduler
