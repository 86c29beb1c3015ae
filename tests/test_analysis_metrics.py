"""Tests for schedule quality metrics."""

from repro.analysis.metrics import schedule_metrics, workload_balance
from repro.machine import BusConfig, two_cluster
from repro.scheduler import BaselineScheduler


class TestWorkloadBalance:
    def test_unified_always_balanced(self, saxpy, unified_machine):
        schedule = BaselineScheduler().schedule(saxpy, unified_machine)
        assert workload_balance(schedule) == 1.0

    def test_balance_in_unit_interval(self, stencil, two_cluster_machine):
        schedule = BaselineScheduler().schedule(stencil, two_cluster_machine)
        assert 0.0 <= workload_balance(schedule) <= 1.0

    def test_empty_cluster_gives_zero(self, saxpy):
        machine = two_cluster()
        schedule = BaselineScheduler().schedule(saxpy, machine)
        counts = [0, 0]
        for placement in schedule.placements.values():
            counts[placement.cluster] += 1
        if 0 in counts:
            assert workload_balance(schedule) == 0.0
        else:
            assert workload_balance(schedule) > 0.0


class TestScheduleMetrics:
    def test_ipc(self, saxpy, unified_machine):
        schedule = BaselineScheduler().schedule(saxpy, unified_machine)
        metrics = schedule_metrics(schedule)
        assert metrics.ipc == len(schedule.placements) / schedule.ii

    def test_ii_inflation_at_least_one(self, stencil, two_cluster_machine):
        schedule = BaselineScheduler().schedule(stencil, two_cluster_machine)
        metrics = schedule_metrics(schedule)
        assert metrics.ii_inflation >= 1.0

    def test_comms_per_iteration(self, stencil, two_cluster_machine):
        schedule = BaselineScheduler().schedule(stencil, two_cluster_machine)
        metrics = schedule_metrics(schedule)
        assert metrics.comms_per_iteration == len(schedule.communications)

    def test_bus_fraction_bounded_for_bounded_pool(self, stencil):
        machine = two_cluster(register_bus=BusConfig(count=2, latency=1))
        schedule = BaselineScheduler().schedule(stencil, machine)
        metrics = schedule_metrics(schedule)
        assert 0.0 <= metrics.bus_busy_fraction <= 1.0

    def test_pressure_reported(self, stencil, two_cluster_machine):
        schedule = BaselineScheduler().schedule(stencil, two_cluster_machine)
        metrics = schedule_metrics(schedule)
        assert metrics.max_pressure >= 1

    def test_stage_count_matches_schedule(self, saxpy, unified_machine):
        schedule = BaselineScheduler().schedule(saxpy, unified_machine)
        assert schedule_metrics(schedule).stage_count == schedule.stage_count
