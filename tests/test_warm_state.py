"""Warm-state store equivalence and robustness.

The load-bearing contract of content-addressed warm-state reuse: for
every cell the repository can run, a simulation that *adopts* a stored
warm-up prefix produces a **bit-identical** :class:`SimulationResult` —
including memory statistics, steady-state reports and the final memory
``state_signature``/``counters`` — compared to a cold run.  Coverage
mirrors ``tests/test_simulator_vectorized.py``: every registered
grid-scenario cell, the golden figure panels' reduced grids, and
cross-engine sharing (warm state recorded by either engine serves
both).  The disk layer is exercised for rot-robustness the same way the
cell cache is: corrupt, truncated and version-mismatched entries are
misses, never errors.
"""

import pickle
import random
from dataclasses import replace

import pytest

from repro.cme import IncrementalCME
from repro.engine import schedule_kernel
from repro.engine.stages import make_scheduler
from repro.harness.grid import ExperimentGrid
from repro.harness.scenarios import run_scenario
from repro.machine import two_cluster, unified
from repro.memory.hierarchy import DistributedMemorySystem
from repro.simulator import (
    WARM_STATE_VERSION,
    LockstepSimulator,
    VectorizedSimulator,
    WarmRecord,
    WarmStateStore,
    make_simulator,
)
from repro.workloads import spec_suite
from repro.workloads.suite import streaming_long_suite
from test_simulator_vectorized import (
    _figure_panel_cells,
    _grid_scenario_cells,
)

MAX_POINTS = 512


@pytest.fixture(scope="module")
def analyzer():
    return IncrementalCME(max_points=MAX_POINTS)


def _run(schedule, engine_cls=VectorizedSimulator, store=None, **kwargs):
    simulator = engine_cls(schedule, warm_store=store, **kwargs)
    result = simulator.run()
    return simulator, result


def _assert_same(a, b, context=""):
    a_sim, a_result = a
    b_sim, b_result = b
    assert b_result.as_dict() == a_result.as_dict(), context
    assert b_sim.memory.counters() == a_sim.memory.counters(), context
    assert (
        b_sim.memory.state_signature(0) == a_sim.memory.state_signature(0)
    ), context
    assert b_sim.steady_report == a_sim.steady_report, context
    assert b_sim.steady_state == a_sim.steady_state, context


class TestWarmStoreUnit:
    def test_key_composition(self):
        base = WarmStateStore.key("fp", "auto", None, None)
        assert WarmStateStore.key("fp2", "auto", None, None) != base
        assert WarmStateStore.key("fp", "entry", None, None) != base
        assert WarmStateStore.key("fp", "auto", 8, None) != base
        assert WarmStateStore.key("fp", "auto", None, 3) != base
        assert WarmStateStore.key("fp", "auto", None, None) == base

    def test_fingerprint_ignores_scheduler_labels(self, analyzer):
        kernel = spec_suite(["applu"])[0]
        schedule = make_scheduler("rmca", 1.0, analyzer).schedule(
            kernel, two_cluster()
        )
        relabeled = replace(
            schedule, scheduler_name="other", threshold=0.125
        )
        assert relabeled.fingerprint() == schedule.fingerprint()

    def _record(self):
        return WarmRecord(
            version=WARM_STATE_VERSION,
            entries_simulated=2,
            records=((3, {"local_hits": 1}),) * 2,
            match_start=0,
            snapshot={"caches": []},
        )

    def test_disk_roundtrip(self, tmp_path):
        store = WarmStateStore(cache_dir=tmp_path)
        store.store("k", self._record())
        fresh = WarmStateStore(cache_dir=tmp_path)
        assert fresh.lookup("k") == self._record()
        assert fresh.hits == 1
        assert fresh.lookup("other") is None
        assert fresh.misses == 1

    @pytest.mark.parametrize(
        "rot",
        [
            b"not a pickle",
            None,  # truncation marker, handled below
            pickle.dumps({"foreign": "object"}),
        ],
        ids=["garbage", "truncated", "foreign"],
    )
    def test_disk_rot_is_a_miss_and_unlinked(self, tmp_path, rot):
        store = WarmStateStore(cache_dir=tmp_path)
        store.store("k", self._record())
        paths = list(tmp_path.glob("*/*.pkl"))
        assert len(paths) == 1
        if rot is None:
            rot = paths[0].read_bytes()[: paths[0].stat().st_size // 2]
        paths[0].write_bytes(rot)
        fresh = WarmStateStore(cache_dir=tmp_path)
        assert fresh.lookup("k") is None
        assert not paths[0].exists()  # rot dropped, slot reusable

    def test_version_mismatch_is_a_miss(self, tmp_path):
        store = WarmStateStore(cache_dir=tmp_path)
        store.store("k", replace(self._record(), version=-1))
        fresh = WarmStateStore(cache_dir=tmp_path)
        assert fresh.lookup("k") is None

    def test_clear_disk(self, tmp_path):
        store = WarmStateStore(cache_dir=tmp_path)
        store.store("k", self._record())
        store.clear_disk()
        assert not list(tmp_path.glob("*/*.pkl"))


class TestSnapshotRestore:
    def _exercise(self, memory, seed=7, n=200):
        rng = random.Random(seed)
        n_clusters = len(memory.caches)
        time = 0
        for _ in range(n):
            time += rng.randrange(0, 4)
            memory.access(
                rng.randrange(n_clusters),
                rng.randrange(0, 4096) * rng.choice([1, 4, 8]),
                rng.random() < 0.35,
                time,
            )
        return time

    def test_roundtrip_bit_identical(self):
        machine = two_cluster()
        source = DistributedMemorySystem(machine)
        time = self._exercise(source)
        snap = pickle.loads(pickle.dumps(source.snapshot()))
        target = DistributedMemorySystem(machine)
        target.restore(snap)
        assert target.counters() == source.counters()
        assert target.state_signature(0) == source.state_signature(0)
        assert target.state_signature(time) == source.state_signature(time)
        # The restored system must keep *behaving* identically:
        self._exercise(source, seed=11, n=50)
        self._exercise(target, seed=11, n=50)
        assert target.counters() == source.counters()
        assert target.state_signature(0) == source.state_signature(0)

    def test_snapshot_is_a_deep_copy(self):
        memory = DistributedMemorySystem(two_cluster())
        self._exercise(memory)
        snap = memory.snapshot()
        before = memory.state_signature(0)
        self._exercise(memory, seed=13, n=50)
        fresh = DistributedMemorySystem(two_cluster())
        fresh.restore(snap)
        assert fresh.state_signature(0) == before


class TestWarmEquivalence:
    def test_every_grid_scenario_cell(self, analyzer):
        """cold == store pass == warm-hit pass, for every registered
        grid-scenario cell."""
        checked = hits = 0
        for (label, kernel, machine, scheduler, threshold, steady,
             n_iterations, n_times) in _grid_scenario_cells():
            schedule = make_scheduler(scheduler, threshold, analyzer).schedule(
                kernel, machine
            )
            kwargs = dict(
                steady=steady, n_iterations=n_iterations, n_times=n_times
            )
            cold = _run(schedule, **kwargs)
            store = WarmStateStore()
            first = _run(schedule, store=store, **kwargs)
            second = _run(schedule, store=store, **kwargs)
            _assert_same(cold, first, label)
            _assert_same(cold, second, label)
            assert second[0].warm_stats["hits"] == store.hits, label
            hits += store.hits
            checked += 1
        assert checked > 0
        assert hits > 0  # the sweep must actually exercise adoption

    def test_golden_figure_panels(self, analyzer):
        hits = 0
        for label, kernel, machine, scheduler, threshold in _figure_panel_cells():
            schedule = make_scheduler(scheduler, threshold, analyzer).schedule(
                kernel, machine
            )
            store = WarmStateStore()
            cold = _run(schedule, store=store, steady="auto")
            warm = _run(schedule, store=store, steady="auto")
            _assert_same(cold, warm, label)
            hits += store.hits
        assert hits > 0

    def test_cross_engine_sharing(self, analyzer):
        """Warm state recorded by one engine must serve the other,
        bit-identically, in both directions."""
        for kernel in streaming_long_suite():
            schedule = make_scheduler("rmca", 1.0, analyzer).schedule(
                kernel, two_cluster()
            )
            store = WarmStateStore()
            cold = _run(schedule, LockstepSimulator, store=store)
            assert store.stores == 1, kernel.name
            warm_vector = _run(schedule, VectorizedSimulator, store=store)
            _assert_same(cold, warm_vector, kernel.name)
            assert warm_vector[0].warm_stats["hits"] == 1, kernel.name
            other = WarmStateStore()
            _run(schedule, VectorizedSimulator, store=other)
            warm_scalar = _run(schedule, LockstepSimulator, store=other)
            _assert_same(cold, warm_scalar, kernel.name)
            assert warm_scalar[0].warm_stats["hits"] == 1, kernel.name

    def test_disk_layer_serves_fresh_store(self, analyzer, tmp_path):
        kernel = streaming_long_suite()[0]
        schedule = make_scheduler("rmca", 1.0, analyzer).schedule(
            kernel, two_cluster()
        )
        cold = _run(schedule, store=WarmStateStore(cache_dir=tmp_path))
        fresh = WarmStateStore(cache_dir=tmp_path)
        warm = _run(schedule, store=fresh)
        _assert_same(cold, warm)
        assert fresh.hits == 1 and fresh.stores == 0

    def test_steady_off_and_exact_bypass_store(self, analyzer):
        kernel = spec_suite(["applu"])[0]
        schedule = make_scheduler("rmca", 1.0, analyzer).schedule(
            kernel, two_cluster()
        )
        store = WarmStateStore()
        _run(schedule, store=store, steady="off")
        _run(schedule, store=store, exact=True)
        assert store.hits == store.misses == store.stores == 0

    def test_unsound_record_falls_back_to_cold(self, analyzer):
        """A record whose replay proof fails for the consuming run must
        degrade to a cold simulation, not corrupt it."""
        kernel = spec_suite(["applu"])[0]
        schedule = make_scheduler("rmca", 1.0, analyzer).schedule(
            kernel, two_cluster()
        )
        cold = _run(schedule)
        store = WarmStateStore()
        seeded = _run(schedule, store=store)
        key, record = next(iter(store._memory.items()))
        # Corrupt the evidence: an impossible match window.
        store._memory[key] = replace(
            record, match_start=record.entries_simulated + 5
        )
        survived = _run(schedule, store=store)
        _assert_same(cold, survived)
        assert survived[0].warm_stats["hits"] == 0
        _assert_same(cold, seeded)


class TestWarmGridEndToEnd:
    def _canonical(self, results):
        return [result.canonical() for result in results]

    def test_scenario_cold_vs_warm_disk(self, tmp_path):
        cold = run_scenario("streaming", cache_dir=tmp_path)
        assert cold.grid.warm_store.stores > 0
        # Fresh grid, cell cache off: every cell recomputes, but the
        # warm-ups come off the shared disk layer.
        warm_grid = ExperimentGrid(
            cache=False, locality=cold.scenario.locality.build()
        )
        warm_grid.warm_store.cache_dir = tmp_path / "warm"
        warm = run_scenario("streaming", grid=warm_grid)
        assert warm_grid.warm_store.hits == len(warm.results)
        assert warm_grid.warm_store.stores == 0
        assert self._canonical(warm.results) == self._canonical(cold.results)

    def test_scenario_warm_disabled_identical(self, tmp_path):
        warm = run_scenario("streaming", cache=False)
        off = run_scenario("streaming", cache=False, warm=False)
        assert off.grid.warm_store is None
        assert self._canonical(off.results) == self._canonical(warm.results)

    def test_parallel_fanout_identical(self, tmp_path):
        serial = run_scenario("streaming", cache=False)
        fanned = run_scenario(
            "streaming", cache=True, cache_dir=tmp_path, n_jobs=2
        )
        assert self._canonical(fanned.results) == self._canonical(
            serial.results
        )

    def test_clear_cache_drops_warm_entries(self, tmp_path):
        outcome = run_scenario("streaming", cache_dir=tmp_path)
        assert list((tmp_path / "warm").glob("*/*.pkl"))
        outcome.grid.clear_cache()
        assert not list((tmp_path / "warm").glob("*/*.pkl"))
        assert not outcome.grid.warm_store._memory

    def test_simulator_reports_warm_telemetry(self, analyzer):
        store = WarmStateStore()
        schedule = schedule_kernel(
            streaming_long_suite()[0], two_cluster(), "rmca", 1.0, analyzer
        )
        first = make_simulator(schedule, warm_store=store)
        first.run()
        assert first.warm_stats == {"hits": 0, "stores": 1}
        second = make_simulator(schedule, warm_store=store)
        second.run()
        assert second.warm_stats == {"hits": 1, "stores": 0}

    def test_unwritable_warm_dir_still_completes(self, tmp_path):
        (tmp_path / "warm").write_text("not a directory")
        blocked = run_scenario("streaming", cache_dir=tmp_path)
        assert blocked.grid.warm_store.stores > 0
        plain = run_scenario("streaming", cache_dir=None)
        assert self._canonical(blocked.results) == self._canonical(
            plain.results
        )

    def test_cli_no_warm_store_flag(self):
        from repro.cli import _build_grid, build_parser

        on = build_parser().parse_args(["run", "streaming"])
        off = build_parser().parse_args(
            ["run", "streaming", "--no-warm-store"]
        )
        grid_on = _build_grid(on, IncrementalCME(max_points=8))
        grid_off = _build_grid(off, IncrementalCME(max_points=8))
        assert grid_on.warm_store is not None
        assert grid_off.warm_store is None

    def test_exact_grid_never_touches_store(self, analyzer):
        grid = ExperimentGrid(
            locality=analyzer, cache=False, exact=True
        )
        run_scenario("streaming", grid=grid)
        store = grid.warm_store
        assert store.hits == store.misses == store.stores == 0
