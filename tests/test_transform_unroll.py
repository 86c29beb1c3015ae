"""Tests for the loop-unrolling transform."""

import pytest

from repro.ir import LoopBuilder
from repro.machine import two_cluster, unified
from repro.scheduler import BaselineScheduler
from repro.scheduler.mii import rec_mii
from repro.simulator import simulate
from repro.transform import UnrollError, unroll
from repro.workloads import kernel_by_name


def _stream_kernel(n=256):
    b = LoopBuilder("stream")
    i = b.dim("i", 0, n)
    a = b.array("A", (n,))
    out = b.array("OUT", (n,))
    v = b.load(a, [b.aff(i=1)], name="ld")
    t = b.fmul(v, v, name="mul")
    b.store(out, [b.aff(i=1)], t, name="st")
    return b.build()


def _accum_kernel(n=240):
    b = LoopBuilder("accum")
    i = b.dim("i", 0, n)
    a = b.array("A", (n,))
    v = b.load(a, [b.aff(i=1)], name="ld")
    acc = b.fadd(b.prev_value("acc", 1), v, dest="acc", name="accum")
    b.store(a, [b.aff(i=1)], acc, name="st")
    return b.build()


class TestStructure:
    def test_factor_one_is_identity(self):
        kernel = _stream_kernel()
        assert unroll(kernel, 1) is kernel

    def test_op_count_scales(self):
        kernel = _stream_kernel()
        unrolled = unroll(kernel, 4)
        assert len(unrolled.loop.operations) == 4 * len(kernel.loop.operations)

    def test_trip_count_divides(self):
        kernel = _stream_kernel(256)
        unrolled = unroll(kernel, 4)
        assert unrolled.loop.n_iterations == 64
        assert unrolled.loop.inner.step == 4

    def test_indivisible_trip_rejected(self):
        kernel = _stream_kernel(255)
        with pytest.raises(UnrollError, match="not\\s+divisible"):
            unroll(kernel, 4)

    def test_bad_factor_rejected(self):
        with pytest.raises(UnrollError):
            unroll(_stream_kernel(), 0)

    def test_subscripts_shifted(self):
        kernel = _stream_kernel()
        unrolled = unroll(kernel, 4)
        loop = unrolled.loop
        point = {"i": 0}
        addresses = sorted(
            loop.ref_of(loop.operation(f"ld@u{k}")).address(point)
            for k in range(4)
        )
        assert addresses == [0, 8, 16, 24]

    def test_name_suffixed(self):
        assert unroll(_stream_kernel(), 2).loop.name == "stream_x2"

    def test_registers_renamed_per_copy(self):
        unrolled = unroll(_stream_kernel(), 2)
        dests = {op.dest for op in unrolled.loop.operations if op.dest}
        assert "v_ld@u0" in dests or any("@u0" in d for d in dests)
        assert all(
            op.dest is None or "@u" in op.dest
            for op in unrolled.loop.operations
        )


class TestSemantics:
    def test_touched_addresses_preserved(self):
        """Original and unrolled kernels touch exactly the same bytes."""
        kernel = _stream_kernel(64)
        unrolled = unroll(kernel, 4)

        def touched(k):
            addresses = set()
            for point in k.loop.iteration_points():
                for ref in k.loop.refs:
                    addresses.add((ref.array.name, ref.address(point), ref.is_store))
            return addresses

        assert touched(kernel) == touched(unrolled)

    def test_recurrence_preserved_and_scaled(self):
        kernel = _accum_kernel()
        unrolled = unroll(kernel, 3)
        assert unrolled.ddg.has_recurrences()
        machine = unified()
        # The accumulate chain serializes: RecMII scales with the factor.
        assert rec_mii(unrolled.ddg, machine) == 3 * rec_mii(kernel.ddg, machine)

    def test_intra_unroll_recurrence_edges(self):
        """Copy k consumes copy k-1's accumulator within one new iteration."""
        unrolled = unroll(_accum_kernel(), 3)
        accum1 = unrolled.loop.operation("accum@u1")
        assert "acc@u0" in accum1.srcs
        accum0 = unrolled.loop.operation("accum@u0")
        assert "acc@u2" in accum0.srcs  # carried from the previous iteration
        carried = [
            e for e in unrolled.ddg.register_edges()
            if e.src == "accum@u2" and e.dst == "accum@u0"
        ]
        assert carried and carried[0].distance == 1

    def test_mem_edges_replicated(self):
        b = LoopBuilder("memdep")
        i = b.dim("i", 0, 32)
        a = b.array("A", (64,))
        v = b.load(a, [b.aff(i=1)], name="ld")
        b.store(a, [b.aff(1, i=1)], v, name="st")
        b.mem_dep("st", "ld", distance=1)
        kernel = b.build()
        unrolled = unroll(kernel, 2)
        mem_edges = [e for e in unrolled.ddg.edges() if e.kind == "mem"]
        assert len(mem_edges) == 2
        pairs = {(e.src, e.dst, e.distance) for e in mem_edges}
        assert ("st@u0", "ld@u1", 0) in pairs
        assert ("st@u1", "ld@u0", 1) in pairs


class TestPaperMotivation:
    def test_one_copy_misses_rest_hit(self, sampling_cme):
        """Section 4.3: after unrolling a unit-stride stream by the line
        factor, one instance always misses and the others always hit."""
        kernel = _stream_kernel()
        unrolled = unroll(kernel, 4)  # 8B elements, 32B lines
        cache = unified().cluster(0).cache
        ops = unrolled.loop.memory_operations
        ratios = {
            op.name: sampling_cme.miss_ratio(unrolled.loop, op, ops, cache)
            for op in ops
            if op.is_load
        }
        assert ratios["ld@u0"] > 0.9
        for k in (1, 2, 3):
            assert ratios[f"ld@u{k}"] < 0.1

    def test_unrolled_schedules_validate_and_simulate(self):
        kernel = _stream_kernel()
        unrolled = unroll(kernel, 4)
        machine = two_cluster()
        schedule = BaselineScheduler().schedule(unrolled, machine)
        schedule.validate()
        result = simulate(schedule)
        assert result.total_cycles > 0

    def test_per_element_cycles_comparable(self):
        """Unrolling must not change the amount of work per element."""
        kernel = _stream_kernel()
        unrolled = unroll(kernel, 4)
        machine = unified()
        base = simulate(BaselineScheduler().schedule(kernel, machine))
        opt = simulate(BaselineScheduler().schedule(unrolled, machine))
        per_element_base = base.total_cycles / 256
        per_element_opt = opt.total_cycles / 256
        assert per_element_opt <= per_element_base * 1.2

    @pytest.mark.parametrize("name", ["su2cor", "applu"])
    def test_suite_kernels_unroll(self, name):
        kernel = kernel_by_name(name)
        factor = 2 if kernel.loop.n_iterations % 2 == 0 else 3
        unrolled = unroll(kernel, factor)
        schedule = BaselineScheduler().schedule(unrolled, unified())
        schedule.validate()
