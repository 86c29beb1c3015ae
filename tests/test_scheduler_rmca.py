"""Tests for the RMCA scheduler's memory-aware cluster selection."""

import pytest

from repro.cme import AnalyticCME
from repro.ir import LoopBuilder
from repro.machine import two_cluster
from repro.scheduler import BaselineScheduler, RMCAScheduler, SchedulerConfig
from repro.workloads import motivating_kernel, motivating_machine


class TestConstruction:
    def test_requires_locality(self):
        with pytest.raises(ValueError, match="requires a locality analyzer"):
            RMCAScheduler(None)

    def test_name(self, sampling_cme):
        assert RMCAScheduler(sampling_cme).name == "rmca"


class TestClusterSelection:
    def test_groups_conflicting_streams_apart(self, sampling_cme):
        """The motivating example: RMCA separates the B and C streams."""
        kernel = motivating_kernel()
        machine = motivating_machine()
        schedule = RMCAScheduler(sampling_cme).schedule(kernel, machine)
        schedule.validate()
        assert schedule.cluster_of("ld1") == schedule.cluster_of("ld3")
        assert schedule.cluster_of("ld2") == schedule.cluster_of("ld4")
        assert schedule.cluster_of("ld1") != schedule.cluster_of("ld2")

    def test_baseline_does_not_separate(self, sampling_cme):
        """The register heuristic has no reason to split the streams."""
        kernel = motivating_kernel()
        machine = motivating_machine()
        schedule = BaselineScheduler(locality=sampling_cme).schedule(
            kernel, machine
        )
        schedule.validate()
        clusters = {schedule.cluster_of(op) for op in ("ld1", "ld2", "ld3", "ld4")}
        # All four loads land together (the greedy register-optimal
        # outcome), which keeps the ping-pong alive.
        assert len(clusters) == 1

    def test_keeps_group_reuse_together(self, sampling_cme):
        """Uniformly generated references co-locate under RMCA."""
        b = LoopBuilder("group")
        i = b.dim("i", 0, 128)
        a = b.array("A", (256,))
        other = b.array("B", (256,))
        lead = b.load(a, [b.aff(i=1)], name="lead")
        follow = b.load(a, [b.aff(1, i=1)], name="follow")
        noise = b.load(other, [b.aff(i=1)], name="noise")
        t = b.fadd(lead, follow, name="sum")
        u = b.fmul(t, noise, name="scale")
        b.store(other, [b.aff(i=1)], u, name="st")
        kernel = b.build()
        schedule = RMCAScheduler(sampling_cme).schedule(kernel, two_cluster())
        schedule.validate()
        assert schedule.cluster_of("lead") == schedule.cluster_of("follow")

    def test_non_memory_ops_use_register_heuristic(self, sampling_cme):
        """RMCA and Baseline place a pure-arithmetic kernel identically."""
        b = LoopBuilder("arith")
        i = b.dim("i", 0, 64)
        a = b.array("A", (64,))
        v = b.load(a, [b.aff(i=1)], name="ld")
        for k in range(4):
            v = b.fadd(v, v, name=f"add{k}")
        b.store(a, [b.aff(i=1)], v, name="st")
        kernel = b.build()
        machine = two_cluster()
        rmca = RMCAScheduler(sampling_cme).schedule(kernel, machine)
        base = BaselineScheduler(locality=sampling_cme).schedule(kernel, machine)
        arith_ops = [f"add{k}" for k in range(4)]
        assert [rmca.cluster_of(o) for o in arith_ops] == [
            base.cluster_of(o) for o in arith_ops
        ]

    def test_works_with_analytic_backend(self):
        kernel = motivating_kernel()
        machine = motivating_machine()
        schedule = RMCAScheduler(AnalyticCME()).schedule(kernel, machine)
        schedule.validate()
        assert schedule.cluster_of("ld1") == schedule.cluster_of("ld3")


class TestEndToEndAdvantage:
    def test_rmca_beats_baseline_on_motivating_kernel(self, sampling_cme):
        from repro.simulator import simulate

        kernel = motivating_kernel()
        machine = motivating_machine()
        rmca = simulate(RMCAScheduler(sampling_cme).schedule(kernel, machine))
        base = simulate(
            BaselineScheduler(locality=sampling_cme).schedule(kernel, machine)
        )
        assert rmca.total_cycles < base.total_cycles

    def test_threshold_passed_through(self, sampling_cme):
        kernel = motivating_kernel()
        machine = motivating_machine()
        config = SchedulerConfig(threshold=0.25)
        schedule = RMCAScheduler(sampling_cme, config).schedule(kernel, machine)
        assert schedule.threshold == 0.25
