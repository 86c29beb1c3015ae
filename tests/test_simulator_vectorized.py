"""Scalar-vs-vectorized simulate-engine equivalence.

The load-bearing contract of the vectorized engine (PR 5): for every
cell the repository can run, :class:`VectorizedSimulator` produces a
**bit-identical** :class:`SimulationResult` — including memory
statistics and steady-state reports — *and* leaves the memory system in
a behaviourally identical state (equal ``state_signature``/``counters``)
compared to the scalar reference walk.  Coverage mirrors
``tests/test_scheduler_equivalence.py``: every registered grid-scenario
cell, the golden figure panels' reduced grids, every steady mode, and
hypothesis-generated kernels.

The batched memory API the engine rides on is pinned separately:
``DistributedMemorySystem.access_batch`` must match ``access`` call for
call, down to raw container state, on randomized access streams.
"""

import random
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cme import IncrementalCME
from repro.engine.stages import make_scheduler
from repro.harness.grid import machine_key
from repro.harness.scenarios import all_scenarios
from repro.machine import BusConfig, four_cluster, heterogeneous, two_cluster, unified
from repro.memory.cache import LineState
from repro.memory.hierarchy import DistributedMemorySystem
from repro.simulator import LockstepSimulator, VectorizedSimulator
from repro.workloads import GeneratorConfig, random_kernel, spec_suite
from repro.workloads.suite import streaming_long_suite

MAX_POINTS = 512


@pytest.fixture(scope="module")
def analyzer():
    return IncrementalCME(max_points=MAX_POINTS)


def _assert_engines_agree(schedule, steady=None,
                          n_iterations=None, n_times=None, label=""):
    """Run both engines on one schedule and compare everything."""
    scalar = LockstepSimulator(
        schedule, steady=steady, n_iterations=n_iterations, n_times=n_times,
    )
    vector = VectorizedSimulator(
        schedule, steady=steady, n_iterations=n_iterations, n_times=n_times,
    )
    want = scalar.run()
    got = vector.run()
    context = f"{label} {schedule.kernel.name} steady={steady}"
    assert got.as_dict() == want.as_dict(), context
    assert vector.memory.counters() == scalar.memory.counters(), context
    assert (
        vector.memory.state_signature(0) == scalar.memory.state_signature(0)
    ), context
    assert vector.steady_report == scalar.steady_report, context
    return vector


def _grid_scenario_cells():
    """Every registered grid-scenario cell, deduplicated on what the
    simulate stage actually reads."""
    seen = set()
    for scenario in all_scenarios():
        if scenario.is_figure:
            continue
        kernels = scenario.build_kernels()
        for group in scenario.groups:
            machine = group.machine.build()
            steady = group.steady if group.steady is not None else scenario.steady
            for threshold in scenario.thresholds:
                for kernel in kernels:
                    key = (
                        kernel.name,
                        machine_key(machine),
                        group.scheduler,
                        threshold,
                        steady,
                        scenario.n_iterations,
                        scenario.n_times,
                    )
                    if key in seen:
                        continue
                    seen.add(key)
                    yield (
                        f"{scenario.name}:{group.label}",
                        kernel,
                        machine,
                        group.scheduler,
                        threshold,
                        steady,
                        scenario.n_iterations,
                        scenario.n_times,
                    )


def _figure_panel_cells():
    """The golden-regression figure panels (reduced grids, steady=auto)."""
    kernels = spec_suite()
    fig6_machine = two_cluster(
        register_bus=BusConfig(count=2, latency=1),
        memory_bus=BusConfig(count=1, latency=1),
    )
    fig5_machine = four_cluster(
        register_bus=BusConfig(count=None, latency=1),
        memory_bus=BusConfig(count=None, latency=1),
    )
    reference = unified(memory_bus=BusConfig(count=1, latency=1))
    for kernel in kernels:
        for threshold in (1.0, 0.75, 0.25, 0.0):
            yield "fig6:unified", kernel, reference, "baseline", threshold
            for scheduler in ("baseline", "rmca"):
                yield "fig6:NMB=1,LMB=1", kernel, fig6_machine, scheduler, threshold
        for threshold in (1.0, 0.0):
            for scheduler in ("baseline", "rmca"):
                yield "fig5:LRB=1,LMB=1", kernel, fig5_machine, scheduler, threshold


class TestScenarioCellEquivalence:
    def test_every_grid_scenario_cell(self, analyzer):
        checked = 0
        for (label, kernel, machine, scheduler, threshold, steady,
             n_iterations, n_times) in _grid_scenario_cells():
            engine = make_scheduler(scheduler, threshold, analyzer)
            schedule = engine.schedule(kernel, machine)
            vector = _assert_engines_agree(
                schedule, steady=steady,
                n_iterations=n_iterations, n_times=n_times, label=label,
            )
            assert vector._vector_ok, label
            checked += 1
        assert checked > 0

    def test_golden_figure_panels(self, analyzer):
        checked = 0
        for label, kernel, machine, scheduler, threshold in _figure_panel_cells():
            engine = make_scheduler(scheduler, threshold, analyzer)
            schedule = engine.schedule(kernel, machine)
            _assert_engines_agree(schedule, steady="auto", label=label)
            checked += 1
        assert checked > 0


class TestSteadyModeMatrix:
    """Both detectors and all modes."""

    @pytest.mark.parametrize("kernel_name", ["su2cor", "turb3d", "tomcatv", "mgrid"])
    @pytest.mark.parametrize("steady", ["off", "entry", "iteration", "auto"])
    def test_modes(self, kernel_name, steady, analyzer):
        kernel = next(k for k in spec_suite() if k.name == kernel_name)
        schedule = make_scheduler("rmca", 1.0, analyzer).schedule(
            kernel, two_cluster()
        )
        _assert_engines_agree(schedule, steady=steady, label=steady)

    def test_iteration_overrides(self, analyzer):
        kernel = next(k for k in spec_suite() if k.name == "applu")
        schedule = make_scheduler("baseline", 1.0, analyzer).schedule(
            kernel, four_cluster()
        )
        _assert_engines_agree(
            schedule, steady="iteration", n_iterations=300, n_times=3,
            label="overrides",
        )

    def test_streaming_long_detection_fires_vectorized(self, analyzer):
        """The streaming-long suite must detect (and fast-forward) under
        the vectorized engine too."""
        for kernel in streaming_long_suite():
            schedule = make_scheduler("rmca", 1.0, analyzer).schedule(
                kernel, two_cluster()
            )
            vector = _assert_engines_agree(
                schedule, steady="auto", label="streaming-long"
            )
            assert vector.steady_report.iterations_replayed > 0, kernel.name


class TestHypothesisKernels:
    @given(seed=st.integers(0, 10_000))
    @settings(
        max_examples=15, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_random_kernels(self, seed):
        kernel = random_kernel(seed)
        schedule = make_scheduler("baseline", 1.0, None).schedule(
            kernel, two_cluster()
        )
        _assert_engines_agree(schedule, steady="auto", label=f"rand{seed}")

    @given(seed=st.integers(0, 10_000))
    @settings(
        max_examples=8, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_conflict_heavy_kernels(self, seed):
        config = GeneratorConfig(
            conflict_probability=0.9, max_dims=1, min_extent=32
        )
        kernel = random_kernel(seed, config)
        schedule = make_scheduler("baseline", 1.0, None).schedule(
            kernel, four_cluster()
        )
        _assert_engines_agree(schedule, steady="auto", label=f"conflict{seed}")


class TestAccessBatch:
    """access_batch vs access: identical results AND identical raw state."""

    @staticmethod
    def _state_dump(memory):
        return (
            [
                {k: [(l.tag, l.state) for l in v] for k, v in c._sets.items() if v}
                for c in memory.caches
            ],
            [dict(c.in_flight) for c in memory.caches],
            [sorted(c.mshr._release_times) for c in memory.caches],
            [c.mshr.total_wait_cycles for c in memory.caches],
            [c.mshr.peak_occupancy for c in memory.caches],
            memory.bus._busy_until,
            memory.bus.total_wait_cycles,
            memory.bus.total_transactions,
            memory.bus.total_busy_cycles,
            memory.msi.n_invalidations,
            memory.msi.n_interventions,
            memory.msi.n_writebacks,
            dict(memory._main_in_flight),
            memory.stats.as_dict(),
        )

    def _replay(self, rng, machine, n, max_step, address):
        """One random stream through :meth:`access` and, in random
        chunks with random slacks, through :meth:`access_batch`: every
        ready time and the raw state must agree.  Returns the batched
        system."""
        infinite = 1 << 60
        scalar = DistributedMemorySystem(machine)
        batched = DistributedMemorySystem(machine)
        n_clusters = len(machine.clusters)
        time = 0
        clusters, addresses, stores, nominals = [], [], [], []
        for _ in range(n):
            time += rng.randrange(0, max_step)
            clusters.append(rng.randrange(n_clusters))
            addresses.append(address())
            stores.append(rng.random() < 0.35)
            nominals.append(time)
        want = [
            scalar.access(
                clusters[i], addresses[i], stores[i], nominals[i]
            ).ready_time
            for i in range(n)
        ]
        got = [None] * n
        slacks = [rng.choice([0, 2, 5, infinite]) for _ in range(n)]
        index = 0
        while index < n:
            end = min(n, index + rng.randrange(1, n + 1))
            consumed = batched.access_batch(
                clusters, addresses, stores, nominals, 0, slacks,
                got, index, end,
            )
            assert consumed >= 1
            # Hazard-stop contract: every consumed access except
            # possibly the last stayed within its slack.
            for j in range(index, index + consumed - 1):
                assert got[j] <= nominals[j] + slacks[j]
            index += consumed
        assert want == got
        assert self._state_dump(scalar) == self._state_dump(batched)
        return batched

    def test_randomized_streams_bit_identical(self):
        rng = random.Random(1234)
        for trial in range(150):
            machine = rng.choice([two_cluster, four_cluster, heterogeneous])()
            self._replay(
                rng, machine, rng.randrange(1, 60), 6,
                lambda: rng.randrange(0, 4096) * rng.choice([1, 4, 8]),
            )

    def test_randomized_odd_machines_bit_identical(self):
        """The set shapes and queues the presets never reach: 2- and
        4-way sets (mixed across clusters, so snoops cross geometries),
        1-3 MSHR entries, one, two or unbounded memory buses, and long
        streams over a footprint several times the cache, half of them
        on a small shared region, so invalid lines sit beside live ones,
        dirty victims are written back and the MSHR grants late."""
        rng = random.Random(4321)
        seen = dict.fromkeys(
            ("writebacks", "mshr_wait_cycles", "msi_invalidations",
             "invalid_beside_live"), 0
        )
        for _trial in range(60):
            preset = rng.choice([two_cluster, four_cluster, heterogeneous])
            base = preset(
                memory_bus=BusConfig(
                    count=rng.choice([1, 2, None]),
                    latency=rng.choice([1, 2]),
                )
            )
            machine = replace(
                base,
                clusters=tuple(
                    replace(
                        cluster,
                        cache=replace(
                            cluster.cache,
                            associativity=rng.choice([2, 4]),
                            mshr_entries=rng.randrange(1, 4),
                        ),
                    )
                    for cluster in base.clusters
                ),
            )
            batched = self._replay(
                rng, machine, rng.randrange(200, 601), 4,
                lambda: (
                    rng.randrange(0, 2048)
                    if rng.random() < 0.5
                    else rng.randrange(0, 32768)
                ),
            )
            seen["writebacks"] += batched.stats.writebacks
            seen["mshr_wait_cycles"] += batched.stats.mshr_wait_cycles
            seen["msi_invalidations"] += batched.msi.n_invalidations
            seen["invalid_beside_live"] += sum(
                1
                for cache in batched.caches
                for ways in cache._sets.values()
                if len({line.state is LineState.INVALID for line in ways}) == 2
            )
        assert all(seen.values()), seen

    def test_hazard_stop_returns_early(self):
        system = DistributedMemorySystem(
            two_cluster(memory_bus=BusConfig(count=1, latency=1))
        )
        ready = [None, None]
        # Two cold misses: slack 0 makes the first one a hazard.
        consumed = system.access_batch(
            [0, 0], [0, 64], [False, False], [0, 1], 0, [0, 0], ready, 0, 2
        )
        assert consumed == 1
        assert ready[0] is not None and ready[1] is None


class TestEngineTelemetry:
    def test_default_engine_batches_its_accesses(self, analyzer):
        schedule = make_scheduler("baseline", 1.0, analyzer).schedule(
            spec_suite()[0], two_cluster()
        )
        simulator = VectorizedSimulator(schedule)
        assert simulator._vector_ok
        batched = []
        access_batch = simulator.memory.access_batch

        def counting(*args):
            batched.append(access_batch(*args))
            return batched[-1]

        simulator.memory.access_batch = counting
        simulator.run()
        assert batched and sum(batched) > len(batched)

    def test_forced_fallback_stays_bit_identical(self, analyzer):
        """The scalar fallback path (statically unsafe schedules) runs
        the reference walk and must agree with it."""
        kernel = next(k for k in spec_suite() if k.name == "turb3d")
        schedule = make_scheduler("rmca", 1.0, analyzer).schedule(
            kernel, two_cluster()
        )
        scalar = LockstepSimulator(schedule, steady="auto")
        vector = VectorizedSimulator(schedule, steady="auto")
        vector._vector_ok = False  # force the escape hatch
        assert vector.run().as_dict() == scalar.run().as_dict()
        assert vector.memory.counters() == scalar.memory.counters()
