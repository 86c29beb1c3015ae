"""Cross-module integration tests: the paper's headline claims, end to end.

Cells run through :class:`~repro.harness.grid.ExperimentGrid` /
:class:`~repro.harness.grid.CellSpec`, the one cell-execution entry.
"""

import pytest

from repro.cme import SamplingCME
from repro.harness.grid import CellSpec, ExperimentGrid
from repro.machine import BusConfig, four_cluster, two_cluster, unified
from repro.scheduler import BaselineScheduler, RMCAScheduler, SchedulerConfig
from repro.workloads import kernel_by_name, spec_suite


@pytest.fixture(scope="module")
def locality():
    return SamplingCME(max_points=512)


@pytest.fixture(scope="module")
def grid(locality):
    # In-memory stage store only: cells shared between tests (the same
    # kernel × machine × threshold shows up in several claims) compute
    # once for the module.
    return ExperimentGrid(locality=locality)


def run_cell(grid, kernel, machine, scheduler, threshold):
    return grid.run_one(CellSpec.of(kernel, machine, scheduler, threshold))


class TestThresholdTradeoff:
    """Lower threshold -> compute grows, stall shrinks (Section 5.2)."""

    @pytest.mark.parametrize("name", ["tomcatv", "hydro2d", "mgrid"])
    def test_stall_decreases_with_threshold(self, name, grid):
        kernel = kernel_by_name(name)
        machine = unified(memory_bus=BusConfig(count=None, latency=1))
        stalls = []
        computes = []
        for threshold in (1.0, 0.25, 0.0):
            result = run_cell(grid, kernel, machine, "baseline", threshold)
            stalls.append(result.stall_cycles)
            computes.append(result.compute_cycles)
        assert stalls[0] >= stalls[1] >= stalls[2]
        assert computes[-1] >= computes[0]

    def test_threshold_zero_stall_near_zero_clustered(self, grid):
        """With unbounded buses and threshold 0.00, the multiVLIWprocessor
        stall time is almost zero (the Figure 5 observation)."""
        machine = two_cluster(
            register_bus=BusConfig(count=None, latency=1),
            memory_bus=BusConfig(count=None, latency=1),
        )
        for name in ("tomcatv", "swim", "hydro2d", "mgrid", "applu", "apsi"):
            kernel = kernel_by_name(name)
            result = run_cell(grid, kernel, machine, "rmca", 0.0)
            assert result.stall_cycles <= 0.05 * result.total_cycles, name


class TestRmcaVsBaseline:
    def test_rmca_wins_on_average_realistic_buses(self, grid):
        """Figure 6's headline: RMCA < Baseline with limited buses."""
        machine = four_cluster()  # 1 memory bus @ 1 cycle
        ratio_sum = 0.0
        kernels = spec_suite(["tomcatv", "su2cor", "hydro2d", "turb3d"])
        for kernel in kernels:
            base = run_cell(grid, kernel, machine, "baseline", 0.0)
            rmca = run_cell(grid, kernel, machine, "rmca", 0.0)
            ratio_sum += rmca.total_cycles / base.total_cycles
        assert ratio_sum / len(kernels) < 1.0

    def test_gap_larger_with_four_clusters(self, grid):
        """The paper reports ~5% (2 clusters) vs ~20% (4 clusters)."""
        kernels = spec_suite(["tomcatv", "su2cor", "hydro2d", "turb3d"])
        gaps = {}
        for machine in (two_cluster(), four_cluster()):
            base_total = rmca_total = 0
            for kernel in kernels:
                base_total += run_cell(
                    grid, kernel, machine, "baseline", 0.0
                ).total_cycles
                rmca_total += run_cell(
                    grid, kernel, machine, "rmca", 0.0
                ).total_cycles
            gaps[machine.name] = 1.0 - rmca_total / base_total
        assert gaps["4-cluster"] > 0
        # On the full suite the 4-cluster gap exceeds the 2-cluster one
        # (~16% vs ~15%; the paper reports 20% vs 5%); on this 4-kernel
        # subset the ordering can wobble by a few points.
        assert gaps["4-cluster"] >= gaps["2-cluster"] - 0.05


class TestClusteredVsUnified:
    def test_clustered_close_to_unified_at_threshold_zero(self, grid):
        """Figure 5: at threshold 0.00 the clustered machines approach the
        unified one (unbounded buses hide the communication cost)."""
        reference_machine = unified(memory_bus=BusConfig(count=None, latency=1))
        clustered = two_cluster(
            register_bus=BusConfig(count=None, latency=1),
            memory_bus=BusConfig(count=None, latency=1),
        )
        for name in ("tomcatv", "hydro2d"):
            kernel = kernel_by_name(name)
            uni = run_cell(grid, kernel, reference_machine, "baseline", 0.0)
            clu = run_cell(grid, kernel, clustered, "rmca", 0.0)
            assert clu.total_cycles <= 1.25 * uni.total_cycles, name


class TestBusLatencySensitivity:
    def test_slower_register_buses_cost_cycles(self, grid):
        kernel = kernel_by_name("tomcatv")
        totals = []
        for lrb in (1, 4):
            machine = two_cluster(
                register_bus=BusConfig(count=None, latency=lrb),
                memory_bus=BusConfig(count=None, latency=1),
            )
            totals.append(
                run_cell(grid, kernel, machine, "rmca", 0.0).total_cycles
            )
        assert totals[1] >= totals[0]

    def test_slower_memory_buses_cost_stall(self, grid):
        kernel = kernel_by_name("turb3d")  # miss-heavy
        totals = []
        for lmb in (1, 4):
            machine = two_cluster(memory_bus=BusConfig(count=1, latency=lmb))
            totals.append(
                run_cell(grid, kernel, machine, "baseline", 1.0).stall_cycles
            )
        assert totals[1] > totals[0]


class TestSchedulerInvariantsOnSuite:
    @pytest.mark.parametrize("name", ["swim", "mgrid", "apsi"])
    def test_rmca_schedules_validate_on_four_clusters(self, name, locality):
        kernel = kernel_by_name(name)
        schedule = RMCAScheduler(locality, SchedulerConfig(threshold=0.25)).schedule(
            kernel, four_cluster()
        )
        schedule.validate()

    @pytest.mark.parametrize("name", ["swim", "mgrid", "apsi"])
    def test_ii_never_below_mii(self, name, locality):
        kernel = kernel_by_name(name)
        for machine in (unified(), two_cluster(), four_cluster()):
            schedule = BaselineScheduler().schedule(kernel, machine)
            assert schedule.ii >= schedule.mii
