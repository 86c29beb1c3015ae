"""Tests for the figure sweep harness (reduced-size runs)."""

import pytest

from repro.cme import SamplingCME
from repro.harness.grid import ExperimentGrid
from repro.harness.scenarios import (
    GroupSpec,
    LocalitySpec,
    MachineSpec,
    ScenarioSpec,
    run_scenario,
)
from repro.harness.sweep import Bar, FigureData, figure5, figure6
from repro.workloads import spec_suite


@pytest.fixture(scope="module")
def small_suite():
    # The two cheapest kernels keep the sweep tests fast.
    return spec_suite(["su2cor", "applu"])


@pytest.fixture(scope="module")
def locality():
    return SamplingCME(max_points=256)


@pytest.fixture(scope="module")
def small_figure(small_suite, locality):
    return figure6(
        n_clusters=2, bus_counts=(1,), bus_latencies=(1,),
        thresholds=(1.0, 0.0), kernels=small_suite, locality=locality,
    )


class TestFigureDataBar:
    @staticmethod
    def _figure(threshold):
        figure = FigureData(title="t")
        figure.bars.append(
            Bar(
                group="g", scheduler="baseline", threshold=threshold,
                norm_compute=0.3, norm_stall=0.2,
            )
        )
        return figure

    def test_float_threshold_tolerates_representation_error(self):
        # 0.1 + 0.2 != 0.3 exactly; lookup must still find the bar.
        figure = self._figure(0.1 + 0.2)
        assert figure.bar("g", "baseline", 0.3).norm_compute == 0.3

    def test_missing_bar_raises_keyerror(self):
        figure = self._figure(0.5)
        with pytest.raises(KeyError, match="no bar"):
            figure.bar("g", "baseline", 0.25)


class TestUnifiedReference:
    """The figures' normalization denominator: Unified at threshold 1.00."""

    def test_reference_per_kernel(self):
        outcome = run_scenario("unified-reference")
        assert [r.kernel for r in outcome.results] == [
            k.name for k in outcome.kernels
        ]
        assert all(r.total_cycles > 0 for r in outcome.results)

    def test_reference_memory_bus_matters(self):
        def group(label, memory_bus):
            return GroupSpec(
                label, MachineSpec("unified", memory_bus=memory_bus),
                "baseline",
            )

        spec = ScenarioSpec(
            name="reference-buses",
            description="the reference on an unbounded and a slow bus",
            groups=(group("fast", (None, 1)), group("slow", (1, 4))),
            kernels=("su2cor", "applu"),
            locality=LocalitySpec(kind="sampling", max_points=256),
        )
        outcome = run_scenario(spec)
        for kernel in spec.kernels:
            fast = outcome.result_for("fast", 1.0, kernel).total_cycles
            slow = outcome.result_for("slow", 1.0, kernel).total_cycles
            assert slow >= fast


class TestFigureBars:
    def test_bar_averages_its_records(self, small_figure, small_suite):
        n = len(small_suite)
        assert len(small_figure.records) == n * len(small_figure.bars)
        for i, bar in enumerate(small_figure.bars):
            records = small_figure.records[i * n:(i + 1) * n]
            assert {r["group"] for r in records} == {bar.group}
            mean_total = sum(r["norm_total"] for r in records) / n
            assert bar.norm_total == pytest.approx(mean_total)

    def test_records_have_norm_fields(self, small_figure):
        for record in small_figure.records:
            assert record["norm_total"] == pytest.approx(
                record["norm_compute"] + record["norm_stall"]
            )


class TestFigure5:
    def test_structure(self, small_suite, locality):
        figure = figure5(
            n_clusters=2,
            latencies=(1,),
            thresholds=(1.0, 0.0),
            kernels=small_suite,
            locality=locality,
        )
        groups = figure.groups
        assert "unified" in groups
        assert "LRB=1,LMB=1 baseline" in groups
        assert "LRB=1,LMB=1 rmca" in groups
        # 1 unified group + 1 bus combo x 2 schedulers, 2 thresholds each.
        assert len(figure.bars) == 6

    def test_invalid_cluster_count(self):
        with pytest.raises(ValueError):
            figure5(n_clusters=3)

    def test_rmca_not_worse_than_baseline(self, small_suite, locality):
        figure = figure5(
            n_clusters=2,
            latencies=(1,),
            thresholds=(0.0,),
            kernels=small_suite,
            locality=locality,
        )
        base = figure.bar("LRB=1,LMB=1 baseline", "baseline", 0.0)
        rmca = figure.bar("LRB=1,LMB=1 rmca", "rmca", 0.0)
        assert rmca.norm_total <= base.norm_total * 1.05


class TestSharedGrid:
    def test_figures_share_cells_through_one_grid(self, small_suite):
        grid = ExperimentGrid(locality=SamplingCME(max_points=256))
        figure5(
            n_clusters=2, latencies=(1,), thresholds=(1.0,),
            kernels=small_suite, grid=grid,
        )
        scheduled = grid.stats.plan["schedule_tasks"]
        reused = grid.stage_store.counts("schedule")["hits"]
        figure6(
            n_clusters=2, bus_counts=(1,), bus_latencies=(1,),
            thresholds=(1.0,), kernels=small_suite, grid=grid,
        )
        # figure6 reuses figure5's Unified reference cells, and its own
        # unified group differs from them only in the memory-bus count,
        # which schedules never read: it schedules only the NMB=1,LMB=1
        # cells.
        fig6_new = grid.stats.plan["schedule_tasks"] - scheduled
        assert fig6_new == 2 * len(small_suite)
        reused = grid.stage_store.counts("schedule")["hits"] - reused
        assert reused >= len(small_suite)

    def test_conflicting_locality_and_grid_rejected(self, small_suite):
        grid = ExperimentGrid(locality=SamplingCME(max_points=256))
        with pytest.raises(ValueError, match="conflicting locality"):
            figure5(
                n_clusters=2, latencies=(1,), thresholds=(1.0,),
                kernels=small_suite,
                locality=SamplingCME(max_points=64), grid=grid,
            )

    def test_matching_locality_and_grid_accepted(self, small_suite):
        grid = ExperimentGrid(locality=SamplingCME(max_points=256))
        figure = figure5(
            n_clusters=2, latencies=(1,), thresholds=(1.0,),
            kernels=small_suite, locality=SamplingCME(max_points=256),
            grid=grid,
        )
        assert {r["kernel"] for r in figure.records} == {
            k.name for k in small_suite
        }

    def test_figure_runs_on_the_given_grid(self, small_suite):
        grid = ExperimentGrid(locality=SamplingCME(max_points=256))
        figure = figure6(
            n_clusters=2, bus_counts=(1,), bus_latencies=(1,),
            thresholds=(1.0,), kernels=small_suite, grid=grid,
        )
        # The reference cells and every bar's cells ran on ``grid``.
        assert len(figure.records) == 3 * len(small_suite)
        assert grid.stats.requested == 4 * len(small_suite)


class TestFigure6:
    def test_structure(self, small_suite, locality):
        figure = figure6(
            n_clusters=2,
            bus_counts=(1,),
            bus_latencies=(1,),
            thresholds=(1.0,),
            kernels=small_suite,
            locality=locality,
        )
        assert "NMB=1,LMB=1 baseline" in figure.groups
        assert "NMB=1,LMB=1 rmca" in figure.groups
        assert len(figure.bars) == 3  # unified + 2 schedulers, 1 thr each

    def test_invalid_cluster_count(self):
        with pytest.raises(ValueError):
            figure6(n_clusters=8)
