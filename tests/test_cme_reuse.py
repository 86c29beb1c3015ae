"""Unit tests for the reuse analysis (CME front-end)."""

from repro.cme.reuse import (
    analyze_reuse,
    group_pairs,
    innermost_stride,
    self_spatial,
    self_temporal,
)
from repro.ir import LoopBuilder


def _loop_with_refs(build):
    """Helper: run ``build(b, i)`` on a fresh 1-D builder, return the loop."""
    b = LoopBuilder("k")
    i = b.dim("i", 0, 32)
    build(b, i)
    return b.build().loop


class TestInnermostStride:
    def test_unit_stride(self):
        loop = _loop_with_refs(
            lambda b, i: b.load(b.array("A", (64,)), [b.aff(i=1)])
        )
        assert innermost_stride(loop.refs[0], loop) == 8

    def test_non_unit_stride(self):
        loop = _loop_with_refs(
            lambda b, i: b.load(b.array("A", (128,)), [b.aff(i=2)])
        )
        assert innermost_stride(loop.refs[0], loop) == 16

    def test_invariant_reference(self):
        def build(b, i):
            j = b.dim("j", 0, 4)
            b.load(b.array("A", (64, 64)), [b.aff(i=1), b.aff(3)])
        b = LoopBuilder("k")
        i = b.dim("i", 0, 8)
        build(b, i)
        loop = b.build().loop
        assert innermost_stride(loop.refs[0], loop) == 0

    def test_row_major_outer_var_stride(self):
        b = LoopBuilder("k")
        j = b.dim("j", 0, 8)
        i = b.dim("i", 0, 8)
        a = b.array("A", (8, 8))
        b.load(a, [b.aff(i=1), b.aff(j=1)])  # transposed access
        loop = b.build().loop
        # Moving i by 1 moves the ROW: stride = row size = 8*8 bytes.
        assert innermost_stride(loop.refs[0], loop) == 64

    def test_step_scales_stride(self):
        b = LoopBuilder("k")
        i = b.dim("i", 0, 32, step=2)
        a = b.array("A", (64,))
        b.load(a, [b.aff(i=1)])
        loop = b.build().loop
        assert innermost_stride(loop.refs[0], loop) == 16


class TestSelfReuse:
    def test_temporal(self):
        b = LoopBuilder("k")
        j = b.dim("j", 0, 4)
        i = b.dim("i", 0, 8)
        a = b.array("A", (16, 16))
        b.load(a, [b.aff(j=1), b.aff(0)])
        loop = b.build().loop
        assert self_temporal(loop.refs[0], loop)
        assert not self_spatial(loop.refs[0], loop, 32)

    def test_spatial(self):
        loop = _loop_with_refs(
            lambda b, i: b.load(b.array("A", (64,)), [b.aff(i=1)])
        )
        assert self_spatial(loop.refs[0], loop, 32)
        assert not self_temporal(loop.refs[0], loop)

    def test_no_reuse_for_large_stride(self):
        loop = _loop_with_refs(
            lambda b, i: b.load(b.array("A", (256,)), [b.aff(i=8)])
        )
        assert not self_spatial(loop.refs[0], loop, 32)
        assert not self_temporal(loop.refs[0], loop)


class TestGroupPairs:
    def test_uniform_pair_found(self):
        def build(b, i):
            a = b.array("A", (64,))
            b.load(a, [b.aff(i=1)])
            b.load(a, [b.aff(1, i=1)])
        loop = _loop_with_refs(build)
        pairs = group_pairs(loop.refs, loop, 32)
        assert pairs == [(0, 1, 8)]

    def test_leader_is_lower_address(self):
        def build(b, i):
            a = b.array("A", (64,))
            b.load(a, [b.aff(2, i=1)])
            b.load(a, [b.aff(i=1)])
        loop = _loop_with_refs(build)
        assert group_pairs(loop.refs, loop, 32) == [(1, 0, 16)]

    def test_different_arrays_never_group(self):
        def build(b, i):
            b.load(b.array("A", (64,)), [b.aff(i=1)])
            b.load(b.array("B", (64,)), [b.aff(i=1)])
        loop = _loop_with_refs(build)
        assert group_pairs(loop.refs, loop, 32) == []

    def test_different_coefficients_never_group(self):
        def build(b, i):
            a = b.array("A", (128,))
            b.load(a, [b.aff(i=1)])
            b.load(a, [b.aff(i=2)])
        loop = _loop_with_refs(build)
        assert group_pairs(loop.refs, loop, 32) == []


class TestAnalyzeReuse:
    def test_motivating_example_structure(self):
        """LD1/LD3 group on B, LD2/LD4 group on C (Section 3)."""
        b = LoopBuilder("k")
        i = b.dim("i", 0, 128, step=2)
        arr_b = b.array("B", (128,), base=0)
        arr_c = b.array("C", (128,), base=2048)
        b.load(arr_b, [b.aff(i=1)])
        b.load(arr_c, [b.aff(i=1)])
        b.load(arr_b, [b.aff(1, i=1)])
        b.load(arr_c, [b.aff(1, i=1)])
        loop = b.build().loop
        infos = analyze_reuse(loop.refs, loop, line_size=64)
        assert infos[2].group_leaders == (0,)  # ld3 reuses ld1
        assert infos[3].group_leaders == (1,)  # ld4 reuses ld2
        assert infos[0].group_leaders == ()
        assert all(info.spatial for info in infos)

    def test_expected_self_miss_ratio(self):
        loop = _loop_with_refs(
            lambda b, i: b.load(b.array("A", (64,)), [b.aff(i=1)])
        )
        infos = analyze_reuse(loop.refs, loop, 32)
        assert infos[0].expected_self_miss_ratio == 1.0

    def test_temporal_ratio_zero(self):
        b = LoopBuilder("k")
        j = b.dim("j", 0, 4)
        i = b.dim("i", 0, 8)
        a = b.array("A", (16, 16))
        b.load(a, [b.aff(j=1), b.aff(0)])
        loop = b.build().loop
        infos = analyze_reuse(loop.refs, loop, 32)
        assert infos[0].expected_self_miss_ratio == 0.0
