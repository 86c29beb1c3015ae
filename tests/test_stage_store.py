"""Per-stage result-store units and robustness.

Key composition, schedule bodies, dedup across thresholds and
scenarios, the disk layer, pool-computed products and relabeling.  Runs
served from the store, for every cell, are the ``plan`` column of
``tests/test_differential.py``; disk rot is ``tests/test_store.py``'s.
"""

import pickle

import pytest

from repro.cme import IncrementalCME
from repro.cme.trace import AddressTrace, loop_fingerprint
from repro.engine import STAGE_STORE_VERSION, StageStore
from repro.engine.stages import make_scheduler
from repro.harness.grid import CellSpec, ExperimentGrid, machine_key
from repro.harness.scenarios import get_scenario, run_scenario
from repro.machine import two_cluster
from repro.scheduler import ScheduleBody
from repro.workloads import spec_suite

from reference_cells import stage_work

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
        base = StageStore.simulate_key("fp", "auto", None, None)
        for other in (
            StageStore.simulate_key("fp2", "auto", None, None),
            StageStore.simulate_key("fp", "entry", None, None),
            StageStore.simulate_key("fp", "auto", 8, None),
            StageStore.simulate_key("fp", "auto", None, 3),
        ):
            assert other != base
        assert StageStore.simulate_key("fp", "auto", None, None) == base

    def test_publish_is_idempotent(self):
        trace = _trace()
        store = StageStore()
        assert store.publish("analyze", "k", trace) is True
        assert store.publish("analyze", "k", trace) is False
        assert store.counts("analyze")["stores"] == 1


class _BodyOnlyUnpickler(pickle.Unpickler):
    """Loads a schedule entry, refusing every kernel and machine class."""

    REFUSED = ("repro.ir", "repro.machine.config")

    def find_class(self, module, name):
        if any(module == r or module.startswith(r + ".") for r in self.REFUSED):
            raise pickle.UnpicklingError(f"entry pickles {module}.{name}")
        return super().find_class(module, name)


@pytest.fixture(scope="module")
def smoke_cache(tmp_path_factory):
    """A cache directory a cold ``fig6-smoke`` run filled, and the run."""
    cache_dir = tmp_path_factory.mktemp("smoke-cache")
    return cache_dir, run_scenario("fig6-smoke", cache_dir=cache_dir)


class TestScheduleBodies:
    def test_schedule_entries_hold_no_kernel_or_machine(self, smoke_cache):
        cache_dir, _cold = smoke_cache
        entries = sorted((cache_dir / "stages" / "schedule").glob("*/*.pkl"))
        assert entries
        for path in entries:
            with open(path, "rb") as handle:
                key, body = _BodyOnlyUnpickler(handle).load()
            assert key.startswith(f"s{STAGE_STORE_VERSION}|schedule|")
            assert isinstance(body, ScheduleBody)

    def test_warm_pass_reattaches_grid_kernels_and_shared_machines(
        self, smoke_cache
    ):
        cache_dir, cold = smoke_cache
        grid = ExperimentGrid(
            locality=get_scenario("fig6-smoke").locality.build(),
            cache_dir=cache_dir,
        )
        served = []
        run = grid.run

        def recording_run(specs):
            results = run(specs)
            served.extend(results)
            return results

        grid.run = recording_run
        warm = run_scenario("fig6-smoke", grid=grid)
        assert stage_work(grid) == (0, 0, 0)
        assert warm.figure.records == cold.figure.records
        machines = {}
        for result in served:
            schedule = result.schedule
            assert schedule.kernel is grid._kernels[result.kernel]
            shared = machines.setdefault(
                machine_key(schedule.machine), schedule.machine
            )
            assert schedule.machine is shared
        assert len(machines) < len(served)


class TestStageEquivalence:
    def test_threshold_sweep_dedups_simulate(self, tmp_path):
        """The fig6 threshold sweep must skip simulate for the cells
        whose schedules land byte-identical — the headline dedup win."""
        outcome = run_scenario("fig6-smoke", cache=False)
        telemetry = outcome.grid.stage_store.telemetry()
        assert telemetry["simulate"]["hits"] > 0
        probes = (
            telemetry["simulate"]["hits"] + telemetry["simulate"]["misses"]
        )
        cells = (
            telemetry["schedule"]["hits"] + telemetry["schedule"]["misses"]
        )
        assert probes == cells  # one per cell

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
