"""Steady-state memoization: equivalence with exact replay, detection
behaviour, and the iteration-count validation contract.

The load-bearing property is *bit-identity*: a memoized run must produce
exactly the same :meth:`SimulationResult.as_dict` — cycles, stalls and
every memory statistic — as ``steady="off"`` full replay, for any kernel,
machine and ``n_times``.  Detection itself is best-effort (thrashing or
irregular kernels simply never memoize), but equivalence is not.
"""

import pytest

from repro.cme import SamplingCME
from repro.ir import LoopBuilder
from repro.machine import (
    BusConfig,
    four_cluster,
    heterogeneous,
    two_cluster,
    unified,
)
from repro.scheduler import BaselineScheduler, SchedulerConfig
from repro.simulator import LockstepSimulator, SteadyState, simulate
from repro.steady import EntrySteadyDetector
from repro.workloads import kernel_by_name, random_kernel
from repro.workloads.generator import GeneratorConfig


def _assert_equivalent(schedule, n_iterations=None, n_times=None):
    """Exact and memoized runs must agree bit for bit; returns the
    memoized simulator for steady-state introspection."""
    exact_sim = LockstepSimulator(
        schedule, n_iterations=n_iterations, n_times=n_times, steady="off"
    )
    exact = exact_sim.run()
    memo_sim = LockstepSimulator(
        schedule, n_iterations=n_iterations, n_times=n_times
    )
    memo = memo_sim.run()
    assert memo.as_dict() == exact.as_dict()
    assert exact_sim.steady_report.entry is None  # exact never memoizes
    # Aggregates outside SimulationResult are patched by replay too.
    assert memo_sim.memory.counters() == exact_sim.memory.counters()
    return memo_sim


def _schedule(kernel, machine):
    return BaselineScheduler().schedule(kernel, machine)


class TestSuiteKernelEquivalence:
    @pytest.mark.parametrize(
        "kernel_name", ["tomcatv", "swim", "hydro2d", "mgrid", "apsi"]
    )
    @pytest.mark.parametrize(
        "machine_factory", [unified, two_cluster, four_cluster, heterogeneous]
    )
    def test_multi_entry_kernels(self, kernel_name, machine_factory):
        kernel = kernel_by_name(kernel_name)
        sim = _assert_equivalent(_schedule(kernel, machine_factory()))
        # These stencil sweeps all settle: the win must actually exist.
        steady = sim.steady_report.entry
        assert steady is not None
        assert steady.replayed_entries > 0
        assert (
            steady.simulated_entries + steady.replayed_entries
            == kernel.loop.n_times
        )

    def test_swim_needs_sub_line_phase(self):
        """swim's 328-byte row stride is not line-aligned; steady state
        is only reachable by matching entries whose cumulative shifts
        differ by whole lines — every 4th entry (4*328 = 41 lines)."""
        kernel = kernel_by_name("swim")
        sim = _assert_equivalent(_schedule(kernel, four_cluster()))
        assert sim.steady_report.entry is not None
        assert sim.steady_report.entry.period % 4 == 0

    def test_single_entry_kernels_never_memoize(self):
        for kernel_name in ("su2cor", "applu", "turb3d"):
            kernel = kernel_by_name(kernel_name)
            sim = _assert_equivalent(_schedule(kernel, two_cluster()))
            assert sim.steady_report.entry is None


class TestEntryBaseAddresses:
    @pytest.mark.parametrize(
        "kernel_name",
        ["tomcatv", "swim", "hydro2d", "mgrid", "apsi", "su2cor"],
    )
    def test_bases_match_the_references(self, kernel_name):
        """The detector takes its per-entry bases from the simulator's
        affine entry tables; they must equal every reference's address
        at the first inner iteration of every outer point."""
        kernel = kernel_by_name(kernel_name)
        sim = LockstepSimulator(_schedule(kernel, two_cluster()))
        outer_points = list(sim._outer_points())
        detector = EntrySteadyDetector(sim, outer_points)
        inner = kernel.loop.inner
        refs = [ref for ref in sim._mem_ref if ref is not None]
        expected = [
            [ref.address({**outer, inner.var: inner.lower}) for ref in refs]
            for outer in outer_points
        ]
        assert detector.addresses == expected


class TestNTimesSweep:
    @pytest.mark.parametrize("n_times", [1, 2, 3, 5, 8, 40])
    def test_override_equivalence(self, stencil, n_times):
        schedule = _schedule(stencil, two_cluster())
        sim = _assert_equivalent(schedule, n_times=n_times)
        if n_times == 1:
            assert sim.steady_report.entry is None

    @pytest.mark.parametrize("n_iterations", [1, 4, 9])
    def test_iteration_override_equivalence(self, stencil, n_iterations):
        schedule = _schedule(stencil, two_cluster())
        _assert_equivalent(schedule, n_iterations=n_iterations, n_times=10)

    def test_replay_cycle_shorter_than_remaining(self, stencil):
        """Detection at entry k with period p replays (n-k) entries in
        whole cycles plus a partial one; totals must still match."""
        schedule = _schedule(stencil, two_cluster())
        for n_times in (11, 12, 13, 14):
            _assert_equivalent(schedule, n_times=n_times)


class TestRandomKernels:
    @pytest.mark.parametrize("seed", range(24))
    def test_random_kernel_equivalence(self, seed):
        kernel = random_kernel(seed)
        schedule = _schedule(kernel, two_cluster())
        _assert_equivalent(schedule)

    @pytest.mark.parametrize("seed", range(8))
    def test_conflict_heavy_random_kernels(self, seed):
        """Deliberate same-set conflict arrays on the small 4-cluster
        caches: harsh on the memoizer's shift normalization."""
        config = GeneratorConfig(
            conflict_probability=0.9, max_dims=2, min_extent=16
        )
        kernel = random_kernel(seed, config)
        schedule = _schedule(kernel, four_cluster())
        _assert_equivalent(schedule, n_times=12)


def _mixed_stride_kernel():
    """A[j][i] and B[2j][i]: per-entry address deltas differ between the
    two references, so no uniform shift aligns consecutive entries and
    detection can never fire."""
    b = LoopBuilder("mixed_stride")
    b.dim("j", 0, 12)
    b.dim("i", 0, 24)
    a = b.array("A", (16, 24))
    bb = b.array("B", (32, 24))
    va = b.load(a, [b.aff(j=1), b.aff(i=1)], name="ld_a")
    vb = b.load(bb, [b.aff(j=2), b.aff(i=1)], name="ld_b")
    t = b.fmul(va, vb, name="mul")
    b.store(a, [b.aff(j=1), b.aff(i=1)], t, name="st")
    return b.build()


def _thrash_kernel():
    """Two arrays a cache-size apart, walked with a large stride: every
    access conflicts in the direct-mapped cache and keeps missing."""
    b = LoopBuilder("thrash")
    b.dim("j", 0, 10)
    b.dim("i", 0, 32)
    a = b.array("A", (64, 64))
    bb = b.array("B", (64, 64), base=2048)
    va = b.load(a, [b.aff(j=1), b.aff(i=1)], name="ld_a")
    vb = b.load(bb, [b.aff(j=1), b.aff(i=1)], name="ld_b")
    t = b.fadd(va, vb, name="add")
    b.store(a, [b.aff(j=1), b.aff(i=1)], t, name="st")
    return b.build()


class TestNonConvergingKernels:
    def test_mixed_stride_never_detects(self):
        kernel = _mixed_stride_kernel()
        schedule = _schedule(kernel, two_cluster())
        sim = _assert_equivalent(schedule)
        assert sim.steady_report.entry is None

    def test_cache_thrashing_still_equivalent(self):
        kernel = _thrash_kernel()
        schedule = _schedule(kernel, four_cluster())
        _assert_equivalent(schedule)


class TestPrefetchedSchedules:
    def test_threshold_zero_equivalence(self, sampling_cme):
        kernel = kernel_by_name("tomcatv")
        schedule = BaselineScheduler(
            SchedulerConfig(threshold=0.0), locality=sampling_cme
        ).schedule(kernel, two_cluster())
        _assert_equivalent(schedule)

    def test_bounded_buses_equivalence(self):
        kernel = kernel_by_name("hydro2d")
        machine = two_cluster(
            register_bus=BusConfig(count=1, latency=4),
            memory_bus=BusConfig(count=1, latency=4),
        )
        _assert_equivalent(_schedule(kernel, machine))

    def test_unbounded_buses_equivalence(self):
        kernel = kernel_by_name("apsi")
        machine = two_cluster(
            register_bus=BusConfig(count=None, latency=1),
            memory_bus=BusConfig(count=None, latency=1),
        )
        _assert_equivalent(_schedule(kernel, machine))


class TestValidation:
    """The falsy-zero fix: explicit 0 must not silently mean 'default'."""

    @pytest.mark.parametrize("value", [0, -1, -100])
    @pytest.mark.parametrize("field", ["n_iterations", "n_times"])
    def test_non_positive_rejected(self, saxpy, field, value):
        schedule = _schedule(saxpy, unified())
        with pytest.raises(ValueError, match=f"{field} must be >= 1"):
            LockstepSimulator(schedule, **{field: value})

    def test_zero_rejected_via_simulate(self, saxpy):
        schedule = _schedule(saxpy, unified())
        with pytest.raises(ValueError, match="n_times must be >= 1"):
            simulate(schedule, n_times=0)

    def test_none_still_defaults(self, saxpy):
        schedule = _schedule(saxpy, unified())
        sim = LockstepSimulator(schedule, n_iterations=None, n_times=None)
        assert sim.n_iterations == saxpy.loop.n_iterations
        assert sim.n_times == saxpy.loop.n_times

    def test_non_integer_rejected(self, saxpy):
        schedule = _schedule(saxpy, unified())
        with pytest.raises(ValueError, match="must be an int"):
            LockstepSimulator(schedule, n_iterations=2.5)

    def test_steady_state_record_shape(self, stencil):
        schedule = _schedule(stencil, four_cluster())
        sim = LockstepSimulator(schedule)
        sim.run()
        steady = sim.steady_report.entry
        if steady is not None:
            assert isinstance(steady, SteadyState)
            assert steady.period >= 1
            assert steady.detected_at == steady.simulated_entries
