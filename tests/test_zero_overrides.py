"""Falsy-zero robustness: zero is a value, not an absence.

The default-or-override plumbing (thresholds, bus overrides, job
counts, iteration overrides) must distinguish
``None`` ("use the default") from legitimate falsy values — a
``threshold=0.0`` cell is the paper's most aggressive prefetch setting,
not a request for the default.  These tests pin every boundary that
once used (or could regress to) truthiness tests.
"""

import pytest

from repro.cli import build_parser
from repro.engine import schedule_kernel
from repro.harness.grid import CellSpec, ExperimentGrid
from repro.harness.scenarios import MachineSpec
from repro.machine import BusConfig, two_cluster, unified
from repro.machine.presets import preset
from repro.simulator import simulate
from repro.workloads import spec_suite


@pytest.fixture(scope="module")
def kernel():
    return spec_suite(["applu"])[0]


class TestThresholdZero:
    def test_threshold_zero_reaches_schedule(self, kernel):
        """threshold=0.0 must flow to the scheduler as 0.0, end to end."""
        spec = CellSpec.of(kernel, two_cluster(), "rmca", 0.0)
        assert spec.threshold == 0.0
        result = ExperimentGrid().run_one(spec)
        assert result.threshold == 0.0
        assert result.schedule.threshold == 0.0
        assert result.simulation.threshold == 0.0

    def test_threshold_zero_distinct_cell(self, kernel):
        """A 0.0 cell is a different experiment from the 1.0 default."""
        zero = CellSpec.of(kernel, two_cluster(), "rmca", 0.0)
        one = CellSpec.of(kernel, two_cluster(), "rmca", 1.0)
        assert zero != one
        grid = ExperimentGrid()
        grid.run([zero, one])
        assert grid.stats.plan["schedule_unique"] == 2

    def test_threshold_zero_changes_prefetching(self, kernel):
        """At threshold 0.0 every load with any estimated miss ratio is
        binding-prefetched; at 1.0 none are — if 0.0 were swallowed by a
        truthiness test, the two schedules would collapse."""
        zero = schedule_kernel(kernel, two_cluster(), "rmca", 0.0)
        one = schedule_kernel(kernel, two_cluster(), "rmca", 1.0)
        assert len(zero.prefetched_loads()) > len(one.prefetched_loads())


class TestBusZero:
    def test_bus_count_zero_rejected(self):
        with pytest.raises(ValueError, match="bus count"):
            BusConfig(count=0, latency=1)

    def test_bus_latency_zero_rejected(self):
        with pytest.raises(ValueError, match="bus latency"):
            BusConfig(count=1, latency=0)

    @pytest.mark.parametrize("bus", [(0, 1), (1, 0)])
    def test_machinespec_zero_bus_rejected(self, bus):
        # Rejected when the spec is built, naming the key.
        with pytest.raises(ValueError, match="'memory_bus'"):
            MachineSpec(preset="2-cluster", memory_bus=bus)

    @pytest.mark.parametrize("preset_name", ["2-cluster", "heterogeneous"])
    def test_preset_explicit_bus_used_as_given(self, preset_name):
        """An explicitly passed bus must never be coerced through
        truthiness back to the preset default."""
        bus = BusConfig(count=4, latency=7)
        machine = preset(preset_name, memory_bus=bus)
        assert machine.memory_bus == bus
        assert preset(preset_name).memory_bus != bus

    def test_with_buses_is_none_semantics(self):
        machine = two_cluster()
        bus = BusConfig(count=None, latency=3)
        swapped = machine.with_buses(memory_bus=bus)
        assert swapped.memory_bus == bus
        assert swapped.register_bus == machine.register_bus
        untouched = machine.with_buses()
        assert untouched == machine


class TestJobsZero:
    def test_grid_rejects_zero_jobs(self):
        with pytest.raises(ValueError, match="n_jobs"):
            ExperimentGrid(n_jobs=0)

    @pytest.mark.parametrize(
        "argv",
        [
            ["fig6", "--jobs", "0"],
            ["run", "streaming", "--jobs", "0"],
            ["fig5", "--jobs", "-2"],
        ],
    )
    def test_cli_rejects_nonpositive_jobs(self, argv, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)
        assert "must be >= 1" in capsys.readouterr().err


class TestIterationOverrideZero:
    @pytest.mark.parametrize("override", ["n_iterations", "n_times"])
    def test_zero_counts_rejected_not_defaulted(self, kernel, override):
        """A zero iteration override must raise loudly, not silently
        fall back to the kernel's default trip counts."""
        from repro.engine.stages import make_scheduler

        schedule = make_scheduler("baseline", 1.0, None).schedule(
            kernel, unified()
        )
        with pytest.raises(ValueError, match=override):
            simulate(schedule, **{override: 0})

    def test_none_uses_kernel_defaults(self, kernel):
        from repro.engine.stages import make_scheduler

        schedule = make_scheduler("baseline", 1.0, None).schedule(
            kernel, unified()
        )
        result = simulate(schedule)
        assert result.n_times == kernel.loop.n_times

