"""Tests for the VLIW instruction encoding (Figure 2)."""

import pytest

from repro.ir.operations import FUType
from repro.isa import EncodingError, encode_kernel
from repro.machine import BusConfig, two_cluster
from repro.scheduler import BaselineScheduler
from repro.workloads import kernel_by_name


class TestEncodeStructure:
    def test_one_instruction_per_modulo_slot(self, saxpy, two_cluster_machine):
        schedule = BaselineScheduler().schedule(saxpy, two_cluster_machine)
        program = encode_kernel(schedule)
        assert program.ii == schedule.ii
        assert [i.slot for i in program.instructions] == list(range(schedule.ii))

    def test_one_cluster_instruction_per_cluster(self, saxpy, two_cluster_machine):
        schedule = BaselineScheduler().schedule(saxpy, two_cluster_machine)
        program = encode_kernel(schedule)
        for instruction in program.instructions:
            assert len(instruction.clusters) == 2
            assert [c.cluster for c in instruction.clusters] == [0, 1]

    def test_fu_field_count_matches_cluster(self, saxpy, two_cluster_machine):
        schedule = BaselineScheduler().schedule(saxpy, two_cluster_machine)
        program = encode_kernel(schedule)
        cluster = two_cluster_machine.cluster(0)
        for instruction in program.instructions:
            for cluster_instr in instruction.clusters:
                assert len(cluster_instr.fu_fields) == cluster.issue_width

    def test_every_operation_encoded_once(self, stencil, two_cluster_machine):
        schedule = BaselineScheduler().schedule(stencil, two_cluster_machine)
        program = encode_kernel(schedule)
        encoded = [
            f.op
            for i in program.instructions
            for c in i.clusters
            for f in c.fu_fields
            if f.op is not None
        ]
        assert sorted(encoded) == sorted(schedule.placements)

    def test_operation_field_lookup(self, saxpy, two_cluster_machine):
        schedule = BaselineScheduler().schedule(saxpy, two_cluster_machine)
        program = encode_kernel(schedule)
        slot, cluster, fu_field = program.operation_field("mul")
        placement = schedule.placements["mul"]
        assert slot == placement.time % schedule.ii
        assert cluster == placement.cluster
        assert fu_field.fu_type is FUType.FP
        with pytest.raises(KeyError):
            program.operation_field("nonexistent")

    def test_ops_on_correct_fu_type(self, stencil, two_cluster_machine):
        schedule = BaselineScheduler().schedule(stencil, two_cluster_machine)
        program = encode_kernel(schedule)
        loop = stencil.loop
        for instruction in program.instructions:
            for cluster_instr in instruction.clusters:
                for fu_field in cluster_instr.fu_fields:
                    if fu_field.op is not None:
                        assert loop.operation(fu_field.op).fu_type is fu_field.fu_type


class TestBusFields:
    def test_communications_appear_in_bus_fields(self, motivating):
        kernel, machine = motivating
        schedule = BaselineScheduler().schedule(kernel, machine)
        program = encode_kernel(schedule)
        n_out = sum(
            1
            for i in program.instructions
            for c in i.clusters
            for r in c.out_bus
            if r is not None
        )
        n_in = sum(
            1
            for i in program.instructions
            for c in i.clusters
            for r in c.in_bus
            if r is not None
        )
        # One OUT and one IN field per static communication.
        assert n_out == len(schedule.communications)
        assert n_in == len(schedule.communications)

    def test_out_field_in_source_cluster(self, motivating):
        kernel, machine = motivating
        schedule = BaselineScheduler().schedule(kernel, machine)
        program = encode_kernel(schedule)
        for comm in schedule.communications:
            slot = comm.start % schedule.ii
            cluster_instr = program.instructions[slot].clusters[comm.src_cluster]
            assert cluster_instr.out_bus[comm.bus] is not None

    def test_in_field_in_destination_cluster(self, motivating):
        kernel, machine = motivating
        schedule = BaselineScheduler().schedule(kernel, machine)
        program = encode_kernel(schedule)
        for comm in schedule.communications:
            slot = comm.arrival % schedule.ii
            cluster_instr = program.instructions[slot].clusters[comm.dst_cluster]
            assert cluster_instr.in_bus[comm.bus] is not None

    def test_no_bus_fields_on_unified(self, saxpy, unified_machine):
        schedule = BaselineScheduler().schedule(saxpy, unified_machine)
        program = encode_kernel(schedule)
        for instruction in program.instructions:
            for cluster_instr in instruction.clusters:
                assert all(r is None for r in cluster_instr.in_bus)
                assert all(r is None for r in cluster_instr.out_bus)

    def test_unbounded_buses_rejected(self, saxpy):
        machine = two_cluster(register_bus=BusConfig(count=None, latency=1))
        schedule = BaselineScheduler().schedule(saxpy, machine)
        with pytest.raises(EncodingError, match="unbounded"):
            encode_kernel(schedule)


class TestRendering:
    def test_render_mentions_every_op(self, saxpy, two_cluster_machine):
        schedule = BaselineScheduler().schedule(saxpy, two_cluster_machine)
        text = encode_kernel(schedule).render()
        for name in schedule.placements:
            assert name in text

    def test_render_contains_nops(self, saxpy, two_cluster_machine):
        schedule = BaselineScheduler().schedule(saxpy, two_cluster_machine)
        text = encode_kernel(schedule).render()
        assert "nop" in text

    def test_render_header(self, saxpy, two_cluster_machine):
        schedule = BaselineScheduler().schedule(saxpy, two_cluster_machine)
        text = encode_kernel(schedule).render()
        assert f"II={schedule.ii}" in text


class TestSuiteEncoding:
    @pytest.mark.parametrize(
        "name", ["tomcatv", "su2cor", "applu", "turb3d"]
    )
    def test_suite_kernels_encode_and_validate(self, name, two_cluster_machine):
        kernel = kernel_by_name(name)
        schedule = BaselineScheduler().schedule(kernel, two_cluster_machine)
        program = encode_kernel(schedule)
        program.validate()
