"""Iteration-level steady-state detection: bit-identical equivalence
with exact simulation, detection/telemetry behaviour, and the memory
translation that keeps multi-entry runs exact.

Mirrors ``tests/test_simulator_steady_state.py`` one granularity down:
the load-bearing property is that ``steady="iteration"`` (and ``auto``,
which selects it for ``NTIMES=1`` loops) produces exactly the same
:meth:`SimulationResult.as_dict` and memory counters as
``steady="off"``, for every kernel, machine and iteration count.
Detection itself is best-effort — kernels whose memory state genuinely
never settles within one entry simply run every iteration — but on the
streaming kernels the ROADMAP names, detection must actually fire.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine import schedule_kernel
from repro.ir import LoopBuilder
from repro.machine import four_cluster, heterogeneous, two_cluster, unified
from repro.scheduler import BaselineScheduler
from repro.simulator import LockstepSimulator, VectorizedSimulator
from repro.steady import STEADY_MODES, IterationSteadyDetector
from repro.workloads import GeneratorConfig, kernel_by_name, random_kernel
from repro.workloads.suite import streaming_long_suite

STREAMING = ("su2cor", "applu", "turb3d")

_MACHINES = {
    "unified": unified,
    "2-cluster": two_cluster,
    "4-cluster": four_cluster,
    "heterogeneous": heterogeneous,
}


def _schedule(kernel, machine):
    return BaselineScheduler().schedule(kernel, machine)


def _assert_equivalent(schedule, steady, n_iterations=None, n_times=None):
    """``steady`` mode and exact replay must agree bit for bit; returns
    the steady-mode simulator for telemetry introspection."""
    exact_sim = LockstepSimulator(
        schedule, n_iterations=n_iterations, n_times=n_times, steady="off"
    )
    exact = exact_sim.run()
    steady_sim = LockstepSimulator(
        schedule, n_iterations=n_iterations, n_times=n_times, steady=steady
    )
    result = steady_sim.run()
    assert result.as_dict() == exact.as_dict()
    # Aggregates outside SimulationResult are patched by replay too.
    assert steady_sim.memory.counters() == exact_sim.memory.counters()
    assert exact_sim.steady_report.mode == "off"
    assert not exact_sim.steady_report.detected
    return steady_sim


class TestStreamingKernelEquivalence:
    @pytest.mark.parametrize("kernel_name", STREAMING)
    @pytest.mark.parametrize("machine_name", sorted(_MACHINES))
    @pytest.mark.parametrize("steady", ["iteration", "auto"])
    def test_bit_identical(self, kernel_name, machine_name, steady):
        kernel = kernel_by_name(kernel_name)
        schedule = _schedule(kernel, _MACHINES[machine_name]())
        sim = _assert_equivalent(schedule, steady)
        # NTIMES=1: the entry memoizer can never fire.
        assert sim.steady_report.entry is None
        assert sim.steady_report.entries_replayed == 0

    @pytest.mark.parametrize(
        "kernel_name,machine_name",
        [
            ("applu", "2-cluster"),
            ("applu", "4-cluster"),
            ("applu", "heterogeneous"),
            ("su2cor", "2-cluster"),
            ("su2cor", "4-cluster"),
            ("su2cor", "heterogeneous"),
            ("turb3d", "4-cluster"),
            ("turb3d", "heterogeneous"),
        ],
    )
    def test_detection_fires(self, kernel_name, machine_name):
        """On the split-cache presets the streaming kernels settle well
        inside one entry — the win the ROADMAP item promised must
        actually exist, not just be bit-identical."""
        kernel = kernel_by_name(kernel_name)
        schedule = _schedule(kernel, _MACHINES[machine_name]())
        sim = _assert_equivalent(schedule, "auto")
        report = sim.steady_report
        assert report.detected
        assert report.iterations_replayed > 0
        assert report.iteration_period is not None
        assert report.iteration_period >= 1
        for record in report.iterations:
            assert record.entry == 0
            assert record.replayed_iterations > 0
            assert (
                record.simulated_iterations + record.replayed_iterations
                <= kernel.loop.n_iterations
            )

    def test_off_mode_never_detects(self):
        kernel = kernel_by_name("applu")
        schedule = _schedule(kernel, four_cluster())
        sim = LockstepSimulator(schedule, steady="off")
        sim.run()
        assert sim.steady_report.mode == "off"
        assert not sim.steady_report.detected

    @pytest.mark.parametrize(
        "kernel_name,machine_name",
        [("turb3d", "2-cluster"), ("turb3d", "unified"),
         ("su2cor", "unified"), ("applu", "unified")],
    )
    def test_live_scar_pruning_unlocks_detection(
        self, kernel_name, machine_name
    ):
        """Kernels whose warm-up leaves frozen *live* (M/S) lines used
        to stand down (ROADMAP item: turb3d on 2-cluster); the set-band
        reachability proof strips those scars and detection fires —
        still bit-identical."""
        kernel = kernel_by_name(kernel_name)
        schedule = _schedule(kernel, _MACHINES[machine_name]())
        sim = _assert_equivalent(schedule, "iteration")
        report = sim.steady_report
        assert report.detected
        assert any(
            record.pruned_live_lines > 0 for record in report.iterations
        )

    @pytest.mark.parametrize(
        "kernel_name,machine_name",
        [
            ("su2cor-long", "2-cluster"),
            ("applu-long", "2-cluster"),
            ("su2cor-long", "4-cluster"),
            ("applu-long", "4-cluster"),
            # turb3d-long on 2-cluster is deliberately absent: doubling
            # the vectors moves its second stream a full cache image
            # away, so every set stays genuinely reachable (nothing is
            # prunable) until the sweep wraps — its warm-up scales with
            # the stream and the replayed *fraction* drops.  Detection
            # still fires and stays bit-identical (covered above).
            ("turb3d-long", "4-cluster"),
        ],
    )
    def test_streaming_long_asymptotic_win(self, kernel_name, machine_name):
        """The 4x-NITER long-stream variants: bit-identical, detection
        fires, and the *fraction* of iterations replayed beats the
        short original — the warm-up cost amortizes, which is the whole
        point of the streaming-long scenario."""
        long_kernel = next(
            k for k in streaming_long_suite([kernel_name])
        )
        schedule = _schedule(long_kernel, _MACHINES[machine_name]())
        sim = _assert_equivalent(schedule, "auto")
        report = sim.steady_report
        assert report.detected
        long_fraction = (
            report.iterations_replayed / long_kernel.loop.n_iterations
        )
        short_kernel = kernel_by_name(kernel_name.removesuffix("-long"))
        short_schedule = _schedule(short_kernel, _MACHINES[machine_name]())
        short_sim = LockstepSimulator(short_schedule, steady="auto")
        short_sim.run()
        short_fraction = (
            short_sim.steady_report.iterations_replayed
            / short_kernel.loop.n_iterations
        )
        assert long_fraction > short_fraction


class TestMultiEntryTranslation:
    """After an in-entry fast-forward the memory system is physically
    translated back into the frame full simulation would have produced;
    later entries (which re-sweep the same addresses) must stay exact."""

    @pytest.mark.parametrize("kernel_name", STREAMING)
    @pytest.mark.parametrize("n_times", [2, 3])
    def test_iteration_mode_across_entries(self, kernel_name, n_times):
        kernel = kernel_by_name(kernel_name)
        schedule = _schedule(kernel, four_cluster())
        sim = _assert_equivalent(schedule, "iteration", n_times=n_times)
        # Detection fires inside at least the first entry on this preset.
        assert sim.steady_report.iterations_replayed > 0

    def test_auto_prefers_entry_memoizer_for_multi_entry_loops(self):
        kernel = kernel_by_name("tomcatv")
        schedule = _schedule(kernel, four_cluster())
        sim = _assert_equivalent(schedule, "auto")
        assert sim.steady_report.entry is not None  # entry-level fired
        assert sim.steady_report.iterations == ()  # iteration level idle

    def test_iteration_overrides(self):
        kernel = kernel_by_name("applu")
        schedule = _schedule(kernel, two_cluster())
        for n_iterations in (1, 8, 700):
            _assert_equivalent(
                schedule, "iteration", n_iterations=n_iterations
            )


class TestRandomKernels:
    @given(seed=st.integers(0, 10_000))
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_hypothesis_kernel_equivalence(self, seed):
        kernel = random_kernel(seed)
        schedule = _schedule(kernel, two_cluster())
        _assert_equivalent(schedule, "iteration")

    @given(seed=st.integers(0, 10_000))
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_conflict_heavy_kernel_equivalence(self, seed):
        config = GeneratorConfig(
            conflict_probability=0.9, max_dims=1, min_extent=32
        )
        kernel = random_kernel(seed, config)
        schedule = _schedule(kernel, four_cluster())
        _assert_equivalent(schedule, "auto")


def _mixed_stride_kernel():
    """A[i] and B[2i] advance by different per-iteration strides, so no
    uniform address shift aligns two pipeline boundaries and the
    iteration detector must disable itself."""
    b = LoopBuilder("mixed_iter_stride")
    b.dim("i", 0, 256)
    a = b.array("A", (256,))
    bb = b.array("B", (512,))
    va = b.load(a, [b.aff(i=1)], name="ld_a")
    vb = b.load(bb, [b.aff(i=2)], name="ld_b")
    t = b.fmul(va, vb, name="mul")
    b.store(a, [b.aff(i=1)], t, name="st")
    return b.build()


class TestProofObligations:
    def test_non_uniform_strides_disable_detection(self):
        kernel = _mixed_stride_kernel()
        schedule = _schedule(kernel, two_cluster())
        sim = LockstepSimulator(schedule, steady="iteration")
        detector = IterationSteadyDetector(sim)
        assert not detector.enabled
        _assert_equivalent(schedule, "iteration")

    def test_uniform_strides_enable_detection(self):
        kernel = kernel_by_name("applu")
        schedule = _schedule(kernel, two_cluster())
        sim = LockstepSimulator(schedule, steady="iteration")
        detector = IterationSteadyDetector(sim)
        assert detector.enabled
        assert detector.stride == 8
        assert detector.q >= 1

    def test_unknown_mode_rejected(self):
        kernel = kernel_by_name("applu")
        schedule = _schedule(kernel, unified())
        with pytest.raises(KeyError, match="unknown steady mode"):
            LockstepSimulator(schedule, steady="sometimes")

    def test_all_modes_resolve(self):
        kernel = kernel_by_name("su2cor")
        schedule = _schedule(kernel, unified())
        for mode in STEADY_MODES:
            sim = LockstepSimulator(schedule, steady=mode)
            assert sim.steady_mode == mode


class TestSimulatorTelemetry:
    @pytest.fixture
    def applu_schedule(self, sampling_cme):
        return schedule_kernel(
            kernel_by_name("applu"), four_cluster(), "baseline", 1.0,
            sampling_cme,
        )

    def test_iteration_mode_reports_replay(self, applu_schedule):
        simulator = VectorizedSimulator(applu_schedule, steady="iteration")
        simulator.run()
        report = simulator.steady_report
        assert simulator.steady_mode == "iteration"
        assert report.iterations_replayed > 0
        assert len(report.iterations) >= 1
        assert report.iteration_period >= 1

    def test_off_mode_reports_no_replay(self, applu_schedule):
        simulator = VectorizedSimulator(applu_schedule, steady="off")
        simulator.run()
        report = simulator.steady_report
        assert simulator.steady_mode == "off"
        assert report.iterations_replayed == 0
        assert report.iteration_period is None
