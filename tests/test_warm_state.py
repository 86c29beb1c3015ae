"""Warm-state store units and robustness.

The store's key, snapshots and restores, its disk layer, a record that
fails its replay proof, and the grid end to end.  Warm hits on every
cell, from records either engine wrote, are the ``warm`` column of
``tests/test_differential.py``; disk rot is ``tests/test_store.py``'s.
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
from repro.machine import two_cluster
from repro.memory.hierarchy import DistributedMemorySystem
from repro.simulator import LockstepSimulator, VectorizedSimulator, WarmStateStore
from repro.workloads import spec_suite
from repro.workloads.suite import streaming_long_suite

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

    @pytest.mark.parametrize(
        "kernel, shape",
        [(spec_suite(["tomcatv"])[0], "entry"),
         (streaming_long_suite()[0], "iteration")],
        ids=["entry", "iteration"],
    )
    def test_encoded_record_round_trips_disk_into_fresh_grid(
        self, analyzer, tmp_path, kernel, shape
    ):
        """A record reaches disk with its snapshot encoded, and a fresh
        grid's warm store adopts it into the state the storing run
        ended in."""
        schedule = make_scheduler("rmca", 1.0, analyzer).schedule(
            kernel, two_cluster()
        )
        stored = _run(schedule, store=WarmStateStore(cache_dir=tmp_path))
        (entry,) = tmp_path.glob("*/*.pkl")
        _key, record = pickle.loads(entry.read_bytes())
        assert isinstance(record.snapshot, bytes)
        assert (record.match_start is None) == (shape == "iteration")
        grid = ExperimentGrid(locality=analyzer)
        grid.warm_store.cache_dir = tmp_path
        adopted = _run(schedule, store=grid.warm_store)
        _assert_same(stored, adopted)
        assert grid.warm_store.counts() == {
            "hits": 1, "misses": 0, "stores": 0
        }

    def test_steady_off_bypasses_store(self, analyzer):
        kernel = spec_suite(["applu"])[0]
        schedule = make_scheduler("rmca", 1.0, analyzer).schedule(
            kernel, two_cluster()
        )
        store = WarmStateStore()
        _run(schedule, store=store, steady="off")
        _run(schedule, LockstepSimulator, store=store, steady="off")
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
        # Refused: the run simulated cold and stored its own record.
        assert store.stores == 2
        _assert_same(cold, seeded)

    def test_restored_then_refused_record_runs_cold(self, analyzer):
        """The entry-shape fallback restores a snapshot before the
        replay proof refuses it; the reset that follows must be a true
        cold start (no MSHR entries or bus horizons left from the
        snapshot), and the record the fallback stores again must equal
        the original."""
        kernel = spec_suite(["tomcatv"])[0]
        schedule = make_scheduler("rmca", 1.0, analyzer).schedule(
            kernel, two_cluster()
        )
        cold = _run(schedule)
        store = WarmStateStore()
        _run(schedule, store=store)
        key, record = next(iter(store._memory.items()))
        assert record.match_start is not None  # the entry shape
        store._memory[key] = replace(
            record, match_start=record.entries_simulated + 5
        )
        survived = _run(schedule, store=store)
        _assert_same(cold, survived)
        assert (store.hits, store.stores) == (1, 2)
        assert store._memory[key] == record


class TestWarmGridEndToEnd:
    def _canonical(self, results):
        return [result.canonical() for result in results]

    def test_scenario_cold_vs_warm_disk(self, tmp_path):
        cold = run_scenario("streaming", cache_dir=tmp_path)
        assert cold.grid.warm_store.stores > 0
        # Fresh grid, cell cache off: every cell recomputes, but the
        # warm-ups come off the shared disk layer.
        warm_grid = ExperimentGrid(
            locality=cold.scenario.locality.build()
        )
        warm_grid.warm_store.cache_dir = tmp_path / "warm"
        warm = run_scenario("streaming", grid=warm_grid)
        assert warm_grid.warm_store.hits == len(warm.results)
        assert warm_grid.warm_store.stores == 0
        assert self._canonical(warm.results) == self._canonical(cold.results)

    def test_parallel_fanout_identical(self, tmp_path):
        serial = run_scenario("streaming")
        fanned = run_scenario(
            "streaming", cache_dir=tmp_path, n_jobs=2
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

    def test_store_counts_one_store_then_one_hit(self, analyzer):
        store = WarmStateStore()
        schedule = schedule_kernel(
            streaming_long_suite()[0], two_cluster(), "rmca", 1.0, analyzer
        )
        VectorizedSimulator(schedule, warm_store=store).run()
        assert store.counts() == {"hits": 0, "misses": 1, "stores": 1}
        VectorizedSimulator(schedule, warm_store=store).run()
        assert store.counts() == {"hits": 1, "misses": 1, "stores": 1}

    def test_unwritable_warm_dir_still_completes(self, tmp_path):
        (tmp_path / "warm").write_text("not a directory")
        blocked = run_scenario("streaming", cache_dir=tmp_path)
        assert blocked.grid.warm_store.stores > 0
        plain = run_scenario("streaming", cache_dir=None)
        assert self._canonical(blocked.results) == self._canonical(
            plain.results
        )
