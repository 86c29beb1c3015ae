"""Tests for automatic memory dependence analysis."""

from repro.ir import LoopBuilder
from repro.ir.ddg import build_ddg
from repro.ir.depanalysis import (
    analyze_memory_dependences,
    exact_distance,
    may_alias,
)
from repro.machine import unified
from repro.scheduler import BaselineScheduler


def _kernel(build):
    b = LoopBuilder("k")
    i = b.dim("i", 0, 32)
    build(b, i)
    return b.build()


class TestExactDistance:
    def test_same_reference_distance_zero(self):
        kernel = _kernel(
            lambda b, i: (
                b.store(b.array("A", (64,)), [b.aff(i=1)], b.live_in("c")),
            )
        )
        ref = kernel.loop.refs[0]
        assert exact_distance(ref, ref, kernel.loop) == 0

    def test_constant_offset_distance(self):
        def build(b, i):
            a = b.array("A", (64,))
            v = b.load(a, [b.aff(1, i=1)], name="ld")   # A[i+1]
            b.store(a, [b.aff(i=1)], v, name="st")      # A[i]
        kernel = _kernel(build)
        load_ref, store_ref = kernel.loop.refs
        # store(i+1) touches what load touched at ... load A[i+1] at i,
        # store A[j] at j: equal when j = i+1: distance +1.
        assert exact_distance(load_ref, store_ref, kernel.loop) == 1
        assert exact_distance(store_ref, load_ref, kernel.loop) == -1

    def test_non_unit_coefficient_divisibility(self):
        def build(b, i):
            a = b.array("A", (128,))
            v = b.load(a, [b.aff(1, i=2)], name="ld")   # A[2i+1]
            b.store(a, [b.aff(i=2)], v, name="st")      # A[2i]
        kernel = _kernel(build)
        load_ref, store_ref = kernel.loop.refs
        # 2j = 2i+1 has no integer solution.
        assert exact_distance(load_ref, store_ref, kernel.loop) is None

    def test_non_uniform_returns_none(self):
        def build(b, i):
            a = b.array("A", (128,))
            v = b.load(a, [b.aff(i=1)], name="ld")
            b.store(a, [b.aff(i=2)], v, name="st")
        kernel = _kernel(build)
        load_ref, store_ref = kernel.loop.refs
        assert exact_distance(load_ref, store_ref, kernel.loop) is None


class TestMayAlias:
    def test_disjoint_arrays_never_alias(self):
        def build(b, i):
            x = b.array("X", (32,))
            y = b.array("Y", (32,))
            v = b.load(x, [b.aff(i=1)], name="ld")
            b.store(y, [b.aff(i=1)], v, name="st")
        kernel = _kernel(build)
        a, c = kernel.loop.refs
        assert not may_alias(a, c, kernel.loop)

    def test_same_array_same_stream_aliases(self):
        def build(b, i):
            a = b.array("A", (64,))
            v = b.load(a, [b.aff(i=1)], name="ld")
            b.store(a, [b.aff(i=1)], v, name="st")
        kernel = _kernel(build)
        assert may_alias(kernel.loop.refs[0], kernel.loop.refs[1], kernel.loop)

    def test_odd_even_streams_disjoint(self):
        def build(b, i):
            a = b.array("A", (128,))
            v = b.load(a, [b.aff(i=2)], name="ld")       # even elements
            b.store(a, [b.aff(1, i=2)], v, name="st")    # odd elements
        kernel = _kernel(build)
        assert not may_alias(
            kernel.loop.refs[0], kernel.loop.refs[1], kernel.loop
        )

    def test_gcd_test_on_non_uniform_pair(self):
        def build(b, i):
            a = b.array("A", (256,))
            v = b.load(a, [b.aff(0, i=2)], name="ld")    # 2i
            b.store(a, [b.aff(1, i=4)], v, name="st")    # 4i+1
        kernel = _kernel(build)
        # gcd(2,4)=2 does not divide 1: independent.
        assert not may_alias(
            kernel.loop.refs[0], kernel.loop.refs[1], kernel.loop
        )


class TestAnalyzeMemoryDependences:
    def test_load_store_same_address_anti(self):
        def build(b, i):
            a = b.array("A", (64,))
            v = b.load(a, [b.aff(i=1)], name="ld")
            b.store(a, [b.aff(i=1)], v, name="st")
        kernel = _kernel(build)
        edges = analyze_memory_dependences(kernel.loop)
        kinds = {(e.src, e.dst, e.kind, e.distance) for e in edges}
        assert ("ld", "st", "anti", 0) in kinds

    def test_store_then_load_next_iteration(self):
        """Recurrence through memory: V[i] written, V[i-1] read."""
        def build(b, i):
            a = b.array("V", (64,))
            prev = b.load(a, [b.aff(-1, i=1)], name="ld_prev")
            v = b.fadd(prev, prev, name="add")
            b.store(a, [b.aff(i=1)], v, name="st")
        b = LoopBuilder("k")
        i = b.dim("i", 1, 32)
        build(b, i)
        kernel = b.build()
        edges = analyze_memory_dependences(kernel.loop)
        kinds = {(e.src, e.dst, e.kind, e.distance) for e in edges}
        # st at iteration i feeds ld_prev at i+1.
        assert ("st", "ld_prev", "mem", 1) in kinds

    def test_load_load_imposes_nothing(self):
        def build(b, i):
            a = b.array("A", (64,))
            x = b.load(a, [b.aff(i=1)], name="ld1")
            y = b.load(a, [b.aff(1, i=1)], name="ld2")
            b.store(b.array("OUT", (64,)), [b.aff(i=1)], b.fadd(x, y))
        kernel = _kernel(build)
        edges = analyze_memory_dependences(kernel.loop)
        assert not any(
            {e.src, e.dst} == {"ld1", "ld2"} for e in edges
        )

    def test_invariant_store_self_conflict(self):
        def build(b, i):
            a = b.array("A", (8,))
            b.store(a, [b.aff(3)], b.live_in("c"), name="st")
        kernel = _kernel(build)
        edges = analyze_memory_dependences(kernel.loop)
        assert any(
            e.src == "st" and e.dst == "st" and e.distance == 1
            for e in edges
        )

    def test_disjoint_streams_no_edges(self):
        def build(b, i):
            a = b.array("A", (128,))
            v = b.load(a, [b.aff(i=2)], name="ld")
            b.store(a, [b.aff(1, i=2)], v, name="st")
        kernel = _kernel(build)
        assert analyze_memory_dependences(kernel.loop) == []

    def test_distant_dependences_dropped(self):
        def build(b, i):
            a = b.array("A", (256,))
            v = b.load(a, [b.aff(-100, i=1)], name="ld")
            b.store(a, [b.aff(i=1)], v, name="st")
        b = LoopBuilder("k")
        i = b.dim("i", 100, 132)
        build(b, i)
        kernel = b.build()
        edges = analyze_memory_dependences(kernel.loop, max_distance=64)
        assert edges == []

    def test_edges_feed_scheduler(self):
        """The derived edges integrate with build_ddg and scheduling."""
        def build(b, i):
            a = b.array("V", (64,))
            prev = b.load(a, [b.aff(-1, i=1)], name="ld_prev")
            v = b.fmul(prev, prev, name="mul")
            b.store(a, [b.aff(i=1)], v, name="st")
        b = LoopBuilder("memrec")
        i = b.dim("i", 1, 32)
        build(b, i)
        kernel = b.build()
        edges = analyze_memory_dependences(kernel.loop)
        ddg = build_ddg(kernel.loop, edges)
        assert ddg.has_recurrences()
        from repro.ir.builder import Kernel

        enriched = Kernel(loop=kernel.loop, ddg=ddg)
        schedule = BaselineScheduler().schedule(enriched, unified())
        schedule.validate()
        # The memory recurrence (st -> ld_prev at distance 1) bounds II:
        # ld(2) + mul(2) + st->(mem edge 1) over distance 1 >= 5.
        assert schedule.ii >= 5
