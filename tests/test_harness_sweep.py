"""Tests for the figure sweep harness (reduced-size runs)."""

import pytest

from repro.cme import SamplingCME
from repro.harness.grid import ExperimentGrid
from repro.harness.sweep import (
    Bar,
    FigureData,
    figure5,
    figure6,
    suite_bar,
    unified_reference,
)
from repro.machine import BusConfig, two_cluster
from repro.workloads import spec_suite


@pytest.fixture(scope="module")
def small_suite():
    # The two cheapest kernels keep the sweep tests fast.
    return spec_suite(["su2cor", "applu"])


@pytest.fixture(scope="module")
def locality():
    return SamplingCME(max_points=256)


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
    def test_reference_per_kernel(self, small_suite, locality):
        reference = unified_reference(small_suite, locality)
        assert set(reference) == {"su2cor", "applu"}
        assert all(v > 0 for v in reference.values())

    def test_reference_memory_bus_matters(self, small_suite, locality):
        fast = unified_reference(small_suite, locality)
        slow = unified_reference(
            small_suite, locality, memory_bus=BusConfig(count=1, latency=4)
        )
        assert all(slow[k] >= fast[k] for k in fast)


class TestSuiteBar:
    def test_bar_averages(self, small_suite, locality):
        reference = unified_reference(small_suite, locality)
        bar, records = suite_bar(
            "g", small_suite, two_cluster(), "baseline", 1.0,
            locality, reference,
        )
        assert bar.group == "g"
        assert len(records) == len(small_suite)
        mean_total = sum(r["norm_total"] for r in records) / len(records)
        assert bar.norm_total == pytest.approx(mean_total)

    def test_records_have_norm_fields(self, small_suite, locality):
        reference = unified_reference(small_suite, locality)
        _bar, records = suite_bar(
            "g", small_suite, two_cluster(), "rmca", 0.0, locality, reference,
        )
        for record in records:
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
        reference = unified_reference(
            small_suite, SamplingCME(max_points=256), grid=grid
        )
        assert set(reference) == {k.name for k in small_suite}

    def test_suite_bar_and_reference_accept_grid(self, small_suite):
        grid = ExperimentGrid(locality=SamplingCME(max_points=256))
        reference = unified_reference(small_suite, grid=grid)
        bar, records = suite_bar(
            "g", small_suite, two_cluster(), "baseline", 1.0,
            None, reference, grid=grid,
        )
        assert bar.group == "g"
        assert len(records) == len(small_suite)
        assert grid.stats.computed == 2 * len(small_suite)


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
