"""Tests for the lockstep execution simulator."""

import pytest

from repro.ir import LoopBuilder
from repro.machine import BusConfig, two_cluster, unified
from repro.scheduler import BaselineScheduler, SchedulerConfig
from repro.simulator import LockstepSimulator, simulate


def _tiny_hit_kernel():
    """All accesses hit after the first line fill (tiny footprint)."""
    b = LoopBuilder("hits")
    i = b.dim("i", 0, 64)
    a = b.array("A", (4,))
    v = b.load(a, [b.aff(0)], name="ld")
    t = b.fmul(v, v, name="mul")
    b.store(a, [b.aff(1)], t, name="st")
    return b.build()


def _missing_kernel():
    """Stride-8 stream: every load misses."""
    b = LoopBuilder("misses")
    i = b.dim("i", 0, 64)
    a = b.array("A", (512,))
    v = b.load(a, [b.aff(i=8)], name="ld")
    t = b.fmul(v, v, name="mul")
    b.store(a, [b.aff(i=8)], t, name="st")
    return b.build()


class TestComputeAccounting:
    def test_compute_matches_formula(self, saxpy, unified_machine):
        schedule = BaselineScheduler().schedule(saxpy, unified_machine)
        result = simulate(schedule)
        niter = saxpy.loop.n_iterations
        assert result.compute_cycles == (
            (niter + schedule.stage_count - 1) * schedule.ii
        )

    def test_iteration_overrides(self, saxpy, unified_machine):
        schedule = BaselineScheduler().schedule(saxpy, unified_machine)
        result = simulate(schedule, n_iterations=10, n_times=3)
        assert result.n_iterations == 10
        assert result.n_times == 3
        assert result.compute_cycles == 3 * (10 + schedule.stage_count - 1) * schedule.ii

    def test_total_is_compute_plus_stall(self, saxpy, two_cluster_machine):
        schedule = BaselineScheduler().schedule(saxpy, two_cluster_machine)
        result = simulate(schedule)
        assert result.total_cycles == result.compute_cycles + result.stall_cycles


class TestStallBehaviour:
    def test_hitting_kernel_has_minimal_stall(self):
        kernel = _tiny_hit_kernel()
        schedule = BaselineScheduler().schedule(kernel, unified())
        result = simulate(schedule)
        # Only the cold miss on the first iteration can stall.
        assert result.stall_cycles <= 15
        assert result.memory.local_hits >= 60

    def test_missing_kernel_stalls(self):
        kernel = _missing_kernel()
        schedule = BaselineScheduler().schedule(kernel, unified())
        result = simulate(schedule)
        assert result.stall_cycles > 10 * 64 * 0.5  # most misses stall
        assert result.memory.main_memory >= 60

    def test_prefetching_removes_stall(self, sampling_cme):
        kernel = _missing_kernel()
        machine = unified(memory_bus=BusConfig(count=None, latency=1))
        plain = BaselineScheduler(
            SchedulerConfig(threshold=1.0), locality=sampling_cme
        ).schedule(kernel, machine)
        prefetched = BaselineScheduler(
            SchedulerConfig(threshold=0.0), locality=sampling_cme
        ).schedule(kernel, machine)
        assert simulate(prefetched).stall_cycles < simulate(plain).stall_cycles

    def test_stall_nonnegative(self, stencil, two_cluster_machine):
        schedule = BaselineScheduler().schedule(stencil, two_cluster_machine)
        assert simulate(schedule).stall_cycles >= 0


class TestMemoryIntegration:
    def test_accesses_counted(self):
        kernel = _missing_kernel()
        schedule = BaselineScheduler().schedule(kernel, unified())
        result = simulate(schedule)
        # one load + one store per iteration
        assert result.memory.accesses == 2 * 64

    def test_cache_state_persists_across_entries(self):
        """NTIMES > 1: later entries reuse lines from earlier ones."""
        b = LoopBuilder("outer")
        j = b.dim("j", 0, 4)
        i = b.dim("i", 0, 16)
        a = b.array("A", (16,))
        v = b.load(a, [b.aff(i=1)], name="ld")
        t = b.fmul(v, v, name="mul")
        b.store(a, [b.aff(i=1)], t, name="st")
        kernel = b.build()
        schedule = BaselineScheduler().schedule(kernel, unified())
        result = simulate(schedule)
        # 16 doubles = 4 lines: only the first entry can miss on loads.
        assert result.memory.main_memory <= 8

    def test_remote_hits_on_clustered_machine(self):
        """A value stored by one cluster and loaded by the other moves
        through the remote cache, not main memory."""
        b = LoopBuilder("sharing")
        i = b.dim("i", 0, 32)
        a = b.array("A", (64,))
        bb = b.array("B", (64,))
        v1 = b.load(a, [b.aff(i=1)], name="ld_a")
        v2 = b.load(bb, [b.aff(i=1)], name="ld_b")
        t = b.fmul(v1, v2, name="mul")
        b.store(a, [b.aff(i=1)], t, name="st")
        kernel = b.build()
        schedule = BaselineScheduler().schedule(kernel, two_cluster())
        result = simulate(schedule)
        same_cluster = schedule.cluster_of("ld_a") == schedule.cluster_of("st")
        if not same_cluster:
            assert result.memory.remote_hits > 0


class TestCrossClusterOperands:
    def test_register_comm_latency_applied(self):
        """Cross-cluster consumers see producer ready + bus latency."""
        b = LoopBuilder("cross")
        i = b.dim("i", 0, 16)
        a = b.array("A", (1024,))
        out = b.array("OUT", (1024,))
        values = [b.load(a, [b.aff(k, i=1)], name=f"ld{k}") for k in range(5)]
        total = values[0]
        for v in values[1:]:
            total = b.fadd(total, v)
        b.store(out, [b.aff(i=1)], total, name="st")
        kernel = b.build()
        machine = two_cluster(register_bus=BusConfig(count=2, latency=4))
        schedule = BaselineScheduler().schedule(kernel, machine)
        result = simulate(schedule)
        assert result.register_comms == len(schedule.communications) * 16


class TestSimulatorConstruction:
    def test_defaults_from_loop(self, saxpy, unified_machine):
        schedule = BaselineScheduler().schedule(saxpy, unified_machine)
        sim = LockstepSimulator(schedule)
        assert sim.n_iterations == saxpy.loop.n_iterations
        assert sim.n_times == saxpy.loop.n_times

    def test_result_as_dict(self, saxpy, unified_machine):
        schedule = BaselineScheduler().schedule(saxpy, unified_machine)
        record = simulate(schedule).as_dict()
        for key in ("kernel", "machine", "scheduler", "ii", "total_cycles",
                    "mem_accesses"):
            assert key in record

    def test_cycles_per_iteration(self, saxpy, unified_machine):
        schedule = BaselineScheduler().schedule(saxpy, unified_machine)
        result = simulate(schedule)
        expected = result.total_cycles / saxpy.loop.n_iterations
        assert result.cycles_per_iteration == pytest.approx(expected)

    def test_stall_fraction(self, saxpy, unified_machine):
        schedule = BaselineScheduler().schedule(saxpy, unified_machine)
        result = simulate(schedule)
        assert 0.0 <= result.stall_fraction < 1.0
