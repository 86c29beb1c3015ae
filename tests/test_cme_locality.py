"""Tests for the LocalityAnalyzer protocol and backend agreement."""

from repro.cme import (
    AnalyticCME,
    IncrementalCME,
    LocalityAnalyzer,
    SamplingCME,
    default_analyzer,
)
from repro.ir import LoopBuilder
from repro.machine.config import CacheConfig


class TestProtocol:
    def test_both_backends_satisfy_protocol(self):
        assert isinstance(SamplingCME(), LocalityAnalyzer)
        assert isinstance(AnalyticCME(), LocalityAnalyzer)

    def test_default_analyzer_is_the_incremental_sampled_engine(self):
        analyzer = default_analyzer()
        assert isinstance(analyzer, IncrementalCME)
        assert isinstance(analyzer, LocalityAnalyzer)
        # Same fingerprint as the from-scratch reference: the engines
        # are bit-identical and their cache entries interchangeable.
        assert analyzer.name == "sampling"

    def test_default_analyzer_max_points(self):
        assert default_analyzer(max_points=99).max_points == 99


class TestBackendAgreement:
    """The two backends should agree on the clear-cut cases the RMCA
    scheduler's decisions hinge on."""

    def _cases(self):
        b = LoopBuilder("k")
        i = b.dim("i", 0, 64)
        x = b.array("X", (64,), base=0)
        y = b.array("Y", (64,), base=1024)  # same image as X: ping-pong
        b.load(x, [b.aff(i=1)], name="ld_x")
        b.load(y, [b.aff(i=1)], name="ld_y")
        return b.build(), CacheConfig(size=1024, line_size=32)

    def test_pingpong_both_full_miss(self):
        kernel, cache = self._cases()
        ops = kernel.loop.memory_operations
        for backend in (SamplingCME(max_points=128), AnalyticCME()):
            for op in ops:
                assert backend.miss_ratio(kernel.loop, op, ops, cache) == 1.0

    def test_isolated_stream_both_spatial(self):
        kernel, cache = self._cases()
        ld_x = kernel.loop.operation("ld_x")
        for backend in (SamplingCME(max_points=128), AnalyticCME()):
            ratio = backend.miss_ratio(kernel.loop, ld_x, [ld_x], cache)
            assert 0.1 < ratio < 0.4

    def test_split_beats_colocation_for_both(self):
        """The motivating-example decision: misses(split) < misses(together)."""
        kernel, cache = self._cases()
        ops = list(kernel.loop.memory_operations)
        for backend in (SamplingCME(max_points=128), AnalyticCME()):
            together = backend.miss_count(kernel.loop, ops, cache)
            split = backend.miss_count(
                kernel.loop, ops[:1], cache
            ) + backend.miss_count(kernel.loop, ops[1:], cache)
            assert split < together
