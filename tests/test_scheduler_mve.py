"""Tests for modulo variable expansion and register assignment."""

import pytest

from repro.ir import LoopBuilder
from repro.machine import two_cluster, unified
from repro.scheduler import BaselineScheduler, SchedulerConfig
from repro.scheduler.mve import (
    AllocationError,
    allocate_registers,
)
from repro.workloads import kernel_by_name


class TestUnrollFactor:
    def test_short_lifetimes_factor_small(self, saxpy, unified_machine):
        schedule = BaselineScheduler().schedule(saxpy, unified_machine)
        assignment = allocate_registers(schedule)
        # saxpy at II=1 with 2-cycle ops: lifetimes of a couple cycles.
        assert 1 <= assignment.unroll_factor <= 4

    def test_prefetched_load_raises_factor(self, sampling_cme):
        b = LoopBuilder("stream")
        i = b.dim("i", 0, 256)
        a = b.array("A", (2048,))
        v = b.load(a, [b.aff(i=8)], name="ld")
        t = b.fmul(v, v, name="mul")
        b.store(a, [b.aff(i=8)], t, name="st")
        kernel = b.build()
        machine = unified()
        plain = allocate_registers(
            BaselineScheduler(
                SchedulerConfig(threshold=1.0), locality=sampling_cme
            ).schedule(kernel, machine)
        )
        prefetched = allocate_registers(
            BaselineScheduler(
                SchedulerConfig(threshold=0.5), locality=sampling_cme
            ).schedule(kernel, machine)
        )
        # A 13-cycle lifetime at II=1 needs ~13 copies.
        assert prefetched.unroll_factor > plain.unroll_factor

    def test_degree_vs_factor(self, stencil, two_cluster_machine):
        schedule = BaselineScheduler().schedule(stencil, two_cluster_machine)
        assignment = allocate_registers(schedule)
        for name, placement in schedule.placements.items():
            op = stencil.loop.operation(name)
            if op.dest is None:
                continue
            degree = assignment.degree_of(name, placement.cluster)
            assert 1 <= degree <= assignment.unroll_factor


class TestAssignment:
    def test_every_value_gets_registers(self, stencil, two_cluster_machine):
        schedule = BaselineScheduler().schedule(stencil, two_cluster_machine)
        assignment = allocate_registers(schedule)
        for name, placement in schedule.placements.items():
            op = stencil.loop.operation(name)
            if op.dest is None:
                continue
            for copy in range(assignment.unroll_factor):
                reg = assignment.register_of(name, placement.cluster, copy)
                assert reg >= 0

    def test_usage_within_register_files(self, stencil, two_cluster_machine):
        schedule = BaselineScheduler().schedule(stencil, two_cluster_machine)
        assignment = allocate_registers(schedule)
        for cluster, used in assignment.used_per_cluster.items():
            assert used <= two_cluster_machine.cluster(cluster).n_registers

    def test_communicated_value_backed_in_both_clusters(self):
        b = LoopBuilder("cross")
        i = b.dim("i", 0, 32)
        a = b.array("A", (64,))
        out = b.array("OUT", (64,))
        values = [b.load(a, [b.aff(k, i=1)], name=f"ld{k}") for k in range(5)]
        total = values[0]
        for v in values[1:]:
            total = b.fadd(total, v)
        b.store(out, [b.aff(i=1)], total, name="st")
        kernel = b.build()
        schedule = BaselineScheduler().schedule(kernel, two_cluster())
        if not schedule.communications:
            pytest.skip("no communication in this schedule")
        assignment = allocate_registers(schedule)
        comm = schedule.communications[0]
        clusters = {
            cl for (op, cl, _c) in assignment.registers if op == comm.producer
        }
        assert {comm.src_cluster, comm.dst_cluster} <= clusters

    def test_copy_indices_wrap(self, saxpy, unified_machine):
        schedule = BaselineScheduler().schedule(saxpy, unified_machine)
        assignment = allocate_registers(schedule)
        factor = assignment.unroll_factor
        assert assignment.register_of("mul", 0, 0) == assignment.register_of(
            "mul", 0, factor
        )

    def test_validation_passes_for_engine_output(self):
        for name in ("su2cor", "applu", "fir"):
            if name == "fir":
                from repro.workloads import DSP_KERNELS

                kernel = DSP_KERNELS["fir"]()
            else:
                kernel = kernel_by_name(name)
            schedule = BaselineScheduler().schedule(kernel, two_cluster())
            assignment = allocate_registers(schedule)
            assert assignment.unroll_factor >= 1


class TestAllocationFailure:
    def test_tiny_register_file_fails(self, sampling_cme):
        """Aggressive prefetching on a tiny file exceeds capacity."""
        from dataclasses import replace

        b = LoopBuilder("pressure")
        i = b.dim("i", 0, 256)
        a = b.array("A", (2048,))
        out = b.array("OUT", (2048,))
        loads = [b.load(a, [b.aff(k, i=8)], name=f"ld{k}") for k in range(4)]
        total = loads[0]
        for v in loads[1:]:
            total = b.fadd(total, v)
        b.store(out, [b.aff(i=8)], total, name="st")
        kernel = b.build()
        machine = unified()
        schedule = BaselineScheduler(
            SchedulerConfig(threshold=0.0, check_register_pressure=False),
            locality=sampling_cme,
        ).schedule(kernel, machine)
        tiny = replace(
            machine,
            clusters=(replace(machine.clusters[0], n_registers=4),),
        )
        schedule.machine = tiny
        with pytest.raises(AllocationError, match="needs"):
            allocate_registers(schedule)
