"""Per-stage result-store equivalence and robustness.

The load-bearing contract of the stage store: for every cell the
repository can run, a grid run that *adopts* stored
analyze/schedule/simulate products produces a **bit-identical**
:class:`RunResult` compared to the store-less reference — per
grid-scenario cell, the same standard ``tests/test_warm_state.py`` holds
warm-state reuse to.  The disk layer is exercised for rot-robustness:
corrupt, truncated, foreign and version-mismatched entries are misses,
and an unwritable disk layer only costs the writes — never errors.
"""

import pickle

import pytest

from repro.cme import IncrementalCME
from repro.cme.trace import AddressTrace, loop_fingerprint
from repro.engine import StageStore
from repro.engine.stagestore import STAGE_STORE_VERSION
from repro.engine.stages import make_scheduler
from repro.harness.grid import CellSpec, ExperimentGrid
from repro.harness.scenarios import run_scenario
from repro.machine import two_cluster
from repro.workloads import spec_suite
from test_simulator_vectorized import _grid_scenario_cells

from reference_cells import reference_cell, stage_work

MAX_POINTS = 512


@pytest.fixture(scope="module")
def analyzer():
    return IncrementalCME(max_points=MAX_POINTS)


def _canonical(results):
    return [result.canonical() for result in results]


def _trace():
    kernel = spec_suite(["applu"])[0]
    return AddressTrace.build(kernel.loop, 16)


class TestStageStoreUnit:
    def test_analyze_key_composition(self):
        base = StageStore.analyze_key("fp", "sampling:512")
        assert StageStore.analyze_key("fp2", "sampling:512") != base
        assert StageStore.analyze_key("fp", "sampling:128") != base
        assert StageStore.analyze_key("fp", "sampling:512") == base

    def test_schedule_key_composition(self):
        base = StageStore.schedule_key("k", "fp", "m", "rmca", 1.0, "s:512")
        for other in (
            StageStore.schedule_key("k2", "fp", "m", "rmca", 1.0, "s:512"),
            StageStore.schedule_key("k", "fp2", "m", "rmca", 1.0, "s:512"),
            StageStore.schedule_key("k", "fp", "m2", "rmca", 1.0, "s:512"),
            StageStore.schedule_key("k", "fp", "m", "baseline", 1.0, "s:512"),
            StageStore.schedule_key("k", "fp", "m", "rmca", 0.25, "s:512"),
            StageStore.schedule_key("k", "fp", "m", "rmca", 1.0, "s:128"),
        ):
            assert other != base
        assert (
            StageStore.schedule_key("k", "fp", "m", "rmca", 1.0, "s:512")
            == base
        )

    def test_simulate_key_composition(self):
        base = StageStore.simulate_key("fp", "vectorized", "auto", None, None)
        for other in (
            StageStore.simulate_key("fp2", "vectorized", "auto", None, None),
            StageStore.simulate_key("fp", "scalar", "auto", None, None),
            StageStore.simulate_key("fp", "vectorized", "entry", None, None),
            StageStore.simulate_key("fp", "vectorized", "auto", 8, None),
            StageStore.simulate_key("fp", "vectorized", "auto", None, 3),
        ):
            assert other != base
        assert (
            StageStore.simulate_key("fp", "vectorized", "auto", None, None)
            == base
        )

    def test_disk_roundtrip(self, tmp_path):
        trace = _trace()
        key = StageStore.analyze_key(trace.loop_fp, "sampling:16")
        store = StageStore(cache_dir=tmp_path)
        store.store("analyze", key, trace)
        fresh = StageStore(cache_dir=tmp_path)
        hit = fresh.lookup("analyze", key)
        assert hit is not None and hit.addresses == trace.addresses
        assert fresh.counts("analyze")["hits"] == 1
        assert fresh.lookup("analyze", "other") is None
        assert fresh.counts("analyze")["misses"] == 1

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
        trace = _trace()
        key = StageStore.analyze_key(trace.loop_fp, "sampling:16")
        store = StageStore(cache_dir=tmp_path)
        store.store("analyze", key, trace)
        paths = list(tmp_path.glob("*/*/*.pkl"))
        assert len(paths) == 1
        if rot is None:
            rot = paths[0].read_bytes()[: paths[0].stat().st_size // 2]
        paths[0].write_bytes(rot)
        fresh = StageStore(cache_dir=tmp_path)
        assert fresh.lookup("analyze", key) is None
        assert not paths[0].exists()  # rot dropped, slot reusable

    def test_version_and_value_type_mismatch_are_misses(self, tmp_path):
        trace = _trace()
        key = StageStore.analyze_key(trace.loop_fp, "sampling:16")
        store = StageStore(cache_dir=tmp_path)
        store.store("analyze", key, trace)
        path = next(tmp_path.glob("*/*/*.pkl"))
        for bad in (
            {"version": -1, "stage": "analyze", "key": key, "value": trace},
            # A foreign value type under a valid envelope is still rot:
            {
                "version": STAGE_STORE_VERSION,
                "stage": "analyze",
                "key": key,
                "value": "not a trace",
            },
        ):
            path.write_bytes(pickle.dumps(bad))
            fresh = StageStore(cache_dir=tmp_path)
            assert fresh.lookup("analyze", key) is None
            store._disk_store("analyze", key, trace)  # restore for 2nd case

    def test_clear_wipes_memory_and_disk(self, tmp_path):
        trace = _trace()
        store = StageStore(cache_dir=tmp_path)
        store.store("analyze", "k", trace)
        store.clear()
        assert len(store) == 0
        assert not list(tmp_path.glob("*/*/*.pkl"))
        assert store.lookup("analyze", "k") is None

    def test_publish_is_idempotent(self):
        trace = _trace()
        store = StageStore()
        assert store.publish("analyze", "k", trace) is True
        assert store.publish("analyze", "k", trace) is False
        assert store.counts("analyze")["stores"] == 1

    def test_unwritable_disk_layer_only_costs_the_write(self, tmp_path):
        blocker = tmp_path / "stages"
        blocker.write_text("an ordinary file where the store's dir goes")
        store = StageStore(cache_dir=blocker)
        store.store("analyze", "k", _trace())
        assert store.lookup("analyze", "k") is not None
        assert StageStore(cache_dir=blocker).lookup("analyze", "k") is None


class TestStageEquivalence:
    def test_every_grid_scenario_cell(self, analyzer):
        """reference == first grid pass == store-hit pass, for every
        registered grid-scenario cell."""
        checked = 0
        grid = ExperimentGrid(locality=analyzer, cache=False)
        for (label, kernel, machine, scheduler, threshold, steady,
             n_iterations, n_times) in _grid_scenario_cells():
            grid.register([kernel])
            spec = CellSpec.of(
                kernel, machine, scheduler, threshold, n_iterations,
                n_times, steady=steady,
            )
            cold = reference_cell(
                kernel, machine, scheduler, threshold, analyzer,
                n_iterations, n_times, steady=steady,
            ).canonical()
            assert grid.run_one(spec).canonical() == cold, label
            done = stage_work(grid)
            assert grid.run_one(spec).canonical() == cold, label
            assert stage_work(grid) == done, label
            checked += 1
        assert checked > 0

    def test_threshold_sweep_dedups_simulate(self, tmp_path):
        """The fig6 threshold sweep must skip simulate for the cells
        whose schedules land byte-identical — the headline dedup win."""
        outcome = run_scenario("fig6-smoke", cache=False)
        telemetry = outcome.grid.stage_store.telemetry()
        assert telemetry["simulate"]["hits"] > 0
        probes = (
            telemetry["simulate"]["hits"] + telemetry["simulate"]["misses"]
        )
        assert probes == telemetry["schedule"]["misses"]  # one per cell

    def test_cross_scenario_reuse(self):
        """A second scenario sharing kernels/machines with a cold
        ``fig6-smoke`` run starts from a mostly-hot store."""
        grid = ExperimentGrid(
            locality=IncrementalCME(max_points=MAX_POINTS), cache=False
        )
        run_scenario("fig6-smoke", grid=grid)
        before = grid.stage_store.telemetry()
        second = run_scenario("fig6-steady-ablation", grid=grid)
        after = grid.stage_store.telemetry()
        assert after["schedule"]["hits"] > before["schedule"]["hits"]
        assert after["simulate"]["hits"] > before["simulate"]["hits"]
        alone = run_scenario("fig6-steady-ablation", cache=False)
        assert _canonical(second.results) == _canonical(alone.results)

    def test_parallel_products_recorded_by_parent(self, tmp_path):
        serial = run_scenario("streaming", cache=False)
        fanned = run_scenario(
            "streaming", cache=True, cache_dir=tmp_path, n_jobs=2
        )
        assert _canonical(fanned.results) == _canonical(serial.results)
        # Workers only compute; the parent stored every product, so a
        # follow-up run on the same grid recomputes nothing.
        telemetry = fanned.grid.stage_store.telemetry()
        assert telemetry["schedule"]["stores"] == len(fanned.results)
        done = stage_work(fanned.grid)
        rerun = run_scenario("streaming", grid=fanned.grid)
        assert stage_work(fanned.grid) == done
        assert _canonical(rerun.results) == _canonical(serial.results)

    def test_disk_layer_serves_fresh_store(self, tmp_path):
        cold = run_scenario("streaming", cache_dir=tmp_path)
        assert list((tmp_path / "stages").glob("*/*/*.pkl"))
        warm = run_scenario("streaming", cache_dir=tmp_path)
        telemetry = warm.grid.stage_store.telemetry()
        assert telemetry["schedule"]["hits"] == len(warm.results)
        assert stage_work(warm.grid) == (0, 0, 0)
        assert _canonical(warm.results) == _canonical(cold.results)

    def test_warm_fig6_pass_returns_cold_figure(self, tmp_path):
        """The stage store alone serves a warm Figure-6 regeneration."""
        cold = run_scenario("fig6-2cluster", cache_dir=tmp_path)
        warm = run_scenario("fig6-2cluster", cache_dir=tmp_path)
        assert stage_work(warm.grid) == (0, 0, 0)
        assert warm.figure.bars == cold.figure.bars
        assert warm.figure.records == cold.figure.records

    def test_unwritable_store_dir_still_completes(self, tmp_path):
        (tmp_path / "stages").write_text("not a directory")
        blocked = run_scenario("streaming", cache_dir=tmp_path)
        plain = run_scenario("streaming", cache_dir=None)
        assert _canonical(blocked.results) == _canonical(plain.results)

    def test_clear_cache_wipes_stages_and_rerun_matches(self, tmp_path):
        outcome = run_scenario("streaming", cache_dir=tmp_path)
        grid = outcome.grid
        assert list((tmp_path / "stages").glob("*/*/*.pkl"))
        grid.clear_cache()
        assert not list((tmp_path / "stages").glob("*/*/*.pkl"))
        assert len(grid.stage_store) == 0
        before = grid.stage_store.telemetry()
        rerun = run_scenario("streaming", grid=grid)
        after = grid.stage_store.telemetry()
        # Empty store: every schedule recomputes and re-stores.
        assert (
            after["schedule"]["stores"] - before["schedule"]["stores"]
            == len(rerun.results)
        )
        assert after["schedule"]["hits"] == before["schedule"]["hits"]
        assert _canonical(rerun.results) == _canonical(outcome.results)

    def test_exact_bypasses_simulate_store_only(self, analyzer):
        grid = ExperimentGrid(locality=analyzer, cache=False, exact=True)
        run_scenario("streaming", grid=grid)
        telemetry = grid.stage_store.telemetry()
        simulate = telemetry["simulate"]
        assert simulate["hits"] == simulate["misses"] == simulate["stores"] == 0
        assert telemetry["schedule"]["stores"] > 0

    def test_simulate_hit_relabels_to_requesting_cell(self, analyzer):
        """A simulate result served across thresholds carries the
        *consuming* cell's scheduler/threshold labels."""
        machine = two_cluster()
        found = False
        for kernel in spec_suite():
            fingerprints = {
                threshold: make_scheduler("rmca", threshold, analyzer)
                .schedule(kernel, machine)
                .fingerprint()
                for threshold in (1.0, 0.75, 0.25, 0.0)
            }
            pairs = [
                (a, b)
                for a in fingerprints
                for b in fingerprints
                if a > b and fingerprints[a] == fingerprints[b]
            ]
            if not pairs:
                continue
            found = True
            thr_a, thr_b = pairs[0]
            grid = ExperimentGrid(locality=analyzer, cache=False)
            grid.run_one(CellSpec.of(kernel, machine, "rmca", thr_a))
            result = grid.run_one(CellSpec.of(kernel, machine, "rmca", thr_b))
            assert stage_work(grid)[1] == 1  # the second cell's was served
            simulation = result.simulation
            assert simulation.threshold == thr_b
            assert simulation.scheduler == "rmca"
            assert simulation.kernel == kernel.name
            break
        assert found, "no threshold pair with identical schedules found"

    def test_stage_telemetry_reported_per_stage(self, analyzer):
        grid = ExperimentGrid(locality=analyzer, cache=False)
        spec = CellSpec.of("applu", two_cluster(), "rmca", 1.0)
        grid.run_one(spec)
        first = grid.stage_store.telemetry()
        assert first["schedule"]["misses"] == first["simulate"]["misses"] == 1
        assert first["schedule"]["hits"] == first["simulate"]["hits"] == 0
        grid.run_one(spec)
        second = grid.stage_store.telemetry()
        assert second["schedule"]["hits"] == second["simulate"]["hits"] == 1

    def test_analyze_store_serves_fresh_analyzer(self, tmp_path):
        kernel = spec_suite(["applu"])[0]
        spec = CellSpec.of(kernel, two_cluster(), "rmca", 1.0)
        first = ExperimentGrid(
            locality=IncrementalCME(max_points=MAX_POINTS), cache_dir=tmp_path
        )
        first.run_one(spec)
        assert first.stage_store.counts("analyze")["stores"] == 1
        fresh_analyzer = IncrementalCME(max_points=MAX_POINTS)
        fresh = ExperimentGrid(locality=fresh_analyzer, cache_dir=tmp_path)
        fresh.run_one(spec)
        assert fresh.stage_store.counts("analyze")["hits"] == 1
        assert fresh_analyzer.traces.peek_address_trace(
            loop_fingerprint(kernel.loop), MAX_POINTS
        ) is not None
        assert fresh_analyzer.traces.address_builds == 0
