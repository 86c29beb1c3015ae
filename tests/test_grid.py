"""Tests for the parallel experiment-grid engine (harness.grid)."""

import functools
import itertools
import json
import os
import pickle
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.cme import SamplingCME
from repro.engine.plan import PlanTask
import repro.harness.grid as grid_module
from repro.harness.grid import (
    CellSpec,
    ExperimentGrid,
    kernel_fingerprint,
    locality_fingerprint,
    machine_from_key,
    machine_key,
)
from repro.harness.scenarios import run_scenario
from repro.harness.sweep import figure5
from repro.ir.builder import Kernel
from repro.machine import BusConfig, MachineConfig, two_cluster, unified
from repro.workloads import spec_suite

from reference_cells import reference_run, stage_work


@pytest.fixture(scope="module")
def small_suite():
    return spec_suite(["su2cor", "applu"])


def _locality():
    return SamplingCME(max_points=128)


def _specs(kernels, thresholds=(1.0, 0.0)):
    """A small mixed grid: both kernels x both schedulers x thresholds."""
    machines = [unified(), two_cluster()]
    return [
        CellSpec.of(kernel, machine, scheduler, threshold)
        for kernel in kernels
        for machine in machines
        for scheduler in ("baseline", "rmca")
        for threshold in thresholds
    ]


class TestFingerprints:
    def test_machine_key_roundtrip(self):
        machine = two_cluster(
            register_bus=BusConfig(count=None, latency=2),
            memory_bus=BusConfig(count=2, latency=4),
        )
        assert machine_from_key(machine_key(machine)) == machine

    def test_machine_key_canonical(self):
        assert machine_key(two_cluster()) == machine_key(two_cluster())
        assert machine_key(two_cluster()) != machine_key(unified())

    def test_kernel_fingerprint_stable(self, small_suite):
        a, b = spec_suite(["su2cor"])[0], small_suite[0]
        assert kernel_fingerprint(a) == kernel_fingerprint(b)

    def test_kernel_fingerprint_distinguishes(self, small_suite):
        fps = {kernel_fingerprint(k) for k in small_suite}
        assert len(fps) == len(small_suite)

    def test_locality_fingerprint(self):
        assert locality_fingerprint(SamplingCME(max_points=64)) == "sampling:64"
        assert locality_fingerprint(
            SamplingCME(max_points=64)
        ) != locality_fingerprint(SamplingCME(max_points=128))


class TestCellSpec:
    def test_hashable_and_equal(self, small_suite):
        kernel = small_suite[0]
        a = CellSpec.of(kernel, two_cluster(), "rmca", 0.25)
        b = CellSpec.of(kernel, two_cluster(), "rmca", 0.25)
        assert a == b
        assert len({a, b}) == 1

    def test_json_roundtrip(self, small_suite):
        spec = CellSpec.of(
            small_suite[0], two_cluster(), "rmca", 0.25, n_iterations=8
        )
        again = CellSpec.from_json(spec.to_json())
        assert again == spec
        assert json.loads(spec.to_json())["kernel"] == spec.kernel

    def test_build_machine(self, small_suite):
        spec = CellSpec.of(small_suite[0], two_cluster(), "baseline", 1.0)
        assert spec.build_machine() == two_cluster()
        assert spec.machine_name == "2-cluster"

    def test_suite_kernel_by_name(self):
        by_name = CellSpec.of("applu", unified(), "baseline", 1.0)
        by_object = CellSpec.of(
            spec_suite(["applu"])[0], unified(), "baseline", 1.0
        )
        assert by_name == by_object


class TestStoreReuse:
    def test_warm_run_computes_nothing(self, small_suite):
        grid = ExperimentGrid(locality=_locality())
        specs = _specs(small_suite)
        cold = grid.run(specs)
        assert grid.stats.computed == len(specs)
        done = stage_work(grid)
        assert done[0] > 0 and done[1] > 0
        warm = grid.run(specs)
        assert stage_work(grid) == done
        assert [r.canonical() for r in warm] == [
            r.canonical() for r in cold
        ]

    def test_duplicates_computed_once(self, small_suite):
        grid = ExperimentGrid(locality=_locality())
        spec = CellSpec.of(small_suite[0], unified(), "baseline", 1.0)
        results = grid.run([spec, spec, spec])
        assert grid.stats.computed == 1
        assert grid.stats.deduplicated == 2
        assert results[0] is results[1] is results[2]

    def test_disk_store_survives_new_engine(self, small_suite, tmp_path):
        specs = _specs(small_suite, thresholds=(1.0,))
        first = ExperimentGrid(locality=_locality(), cache_dir=tmp_path)
        cold = first.run(specs)
        second = ExperimentGrid(locality=_locality(), cache_dir=tmp_path)
        warm = second.run(specs)
        assert stage_work(second) == (0, 0, 0)
        assert [r.canonical() for r in warm] == [
            r.canonical() for r in cold
        ]

    def test_different_locality_invalidates(self, small_suite, tmp_path):
        spec = CellSpec.of(small_suite[0], unified(), "baseline", 1.0)
        ExperimentGrid(
            locality=SamplingCME(max_points=64), cache_dir=tmp_path
        ).run_one(spec)
        other = ExperimentGrid(
            locality=SamplingCME(max_points=128), cache_dir=tmp_path
        )
        other.run_one(spec)
        assert stage_work(other)[0] == 1  # rescheduled under the new analyzer

    def test_no_cache_keeps_stores_in_memory(self, small_suite, tmp_path):
        spec = CellSpec.of(small_suite[0], unified(), "baseline", 1.0)
        grid = ExperimentGrid(
            locality=_locality(), cache=False, cache_dir=tmp_path
        )
        grid.run_one(spec)
        assert not list(tmp_path.rglob("*.pkl"))
        fresh = ExperimentGrid(
            locality=_locality(), cache=False, cache_dir=tmp_path
        )
        fresh.run_one(spec)
        assert stage_work(fresh)[:2] == (1, 1)

    @pytest.mark.parametrize(
        "rot", ["garbage", "truncated", "foreign"]
    )
    def test_rotten_disk_entries_recomputed_and_replaced(
        self, small_suite, tmp_path, rot
    ):
        """Rotten store files are misses: dropped, recomputed, and the
        recomputed products take their slots (served on the next run)."""
        spec = CellSpec.of(small_suite[0], unified(), "baseline", 1.0)
        expected = ExperimentGrid(
            locality=_locality(), cache_dir=tmp_path
        ).run_one(spec)
        paths = list(tmp_path.rglob("*.pkl"))
        assert paths
        for path in paths:
            path.write_bytes(
                {
                    "garbage": b"not a pickle",
                    "truncated": path.read_bytes()[: path.stat().st_size // 2],
                    "foreign": pickle.dumps({"not": "a product"}),
                }[rot]
            )
        fresh = ExperimentGrid(locality=_locality(), cache_dir=tmp_path)
        assert fresh.run_one(spec).canonical() == expected.canonical()
        assert stage_work(fresh)[:2] == (1, 1)
        again = ExperimentGrid(locality=_locality(), cache_dir=tmp_path)
        assert again.run_one(spec).canonical() == expected.canonical()
        assert stage_work(again) == (0, 0, 0)

    def test_clear_cache(self, small_suite, tmp_path):
        spec = CellSpec.of(small_suite[0], unified(), "baseline", 1.0)
        grid = ExperimentGrid(locality=_locality(), cache_dir=tmp_path)
        grid.run_one(spec)
        assert list(tmp_path.rglob("*.pkl"))
        grid.clear_cache()
        assert not list(tmp_path.rglob("*.pkl"))
        grid.run_one(spec)
        assert stage_work(grid)[:2] == (2, 2)


class TestKernelResolution:
    def test_unknown_kernel_rejected(self):
        grid = ExperimentGrid(locality=_locality())
        spec = CellSpec(
            kernel="nonesuch",
            machine=machine_key(unified()),
            scheduler="baseline",
            threshold=1.0,
            kernel_fp="0" * 16,
        )
        with pytest.raises(KeyError, match="nonesuch"):
            grid.run_one(spec)

    def test_fingerprint_mismatch_rejected(self, small_suite):
        grid = ExperimentGrid(locality=_locality())
        spec = CellSpec(
            kernel="applu",
            machine=machine_key(unified()),
            scheduler="baseline",
            threshold=1.0,
            kernel_fp="deadbeefdeadbeef",
        )
        with pytest.raises(ValueError, match="content mismatch"):
            grid.run_one(spec)

    def test_registered_custom_kernel(self, saxpy):
        grid = ExperimentGrid(locality=_locality())
        grid.register([saxpy])
        result = grid.run_one(
            CellSpec.of(saxpy, unified(), "baseline", 1.0)
        )
        assert result.kernel == "saxpy"


class TestParallelEquivalence:
    def test_results_identical_and_ordered(self, small_suite):
        specs = _specs(small_suite)
        serial = ExperimentGrid(locality=_locality(), n_jobs=1).run(specs)
        parallel = ExperimentGrid(locality=_locality(), n_jobs=4).run(specs)
        assert len(serial) == len(parallel) == len(specs)
        for spec, s, p in zip(specs, serial, parallel):
            assert s.kernel == p.kernel == spec.kernel
            assert s.scheduler == p.scheduler == spec.scheduler
            assert s.canonical() == p.canonical()

    def test_results_picklable(self, small_suite):
        grid = ExperimentGrid(locality=_locality(), n_jobs=2)
        results = grid.run(_specs(small_suite, thresholds=(0.0,)))
        for result in results:
            clone = pickle.loads(pickle.dumps(result))
            assert clone.canonical() == result.canonical()

    def test_parallel_warm_store_identical_to_cold(self, small_suite):
        grid = ExperimentGrid(locality=_locality(), n_jobs=4)
        specs = _specs(small_suite)
        cold = grid.run(specs)
        done = stage_work(grid)
        warm = grid.run(specs)
        assert stage_work(grid) == done
        assert [r.canonical() for r in warm] == [
            r.canonical() for r in cold
        ]

    def test_figure5_parallel_matches_serial(self, small_suite):
        """Acceptance: figure5 via ExperimentGrid(n_jobs=4) == serial."""
        kwargs = dict(
            n_clusters=2,
            latencies=(1,),
            thresholds=(1.0, 0.0),
            kernels=small_suite,
        )
        serial = figure5(locality=_locality(), **kwargs)
        parallel_grid = ExperimentGrid(locality=_locality(), n_jobs=4)
        parallel = figure5(grid=parallel_grid, **kwargs)
        assert serial.bars == parallel.bars
        assert serial.records == parallel.records
        # Warm repeat: zero stage computations, identical bars.
        done = stage_work(parallel_grid)
        warm = figure5(grid=parallel_grid, **kwargs)
        assert stage_work(parallel_grid) == done
        assert warm.bars == parallel.bars


class _UnitFailed(RuntimeError):
    """The failure injected into one kernel's pool unit."""


def _injected_schedule_task(
    parent, marks, doomed, failure, pause, run, task, kernel, machine, locality
):
    """``run_schedule_task`` as a pool worker sees it under injection:
    each call marks its kernel in ``marks``; ``doomed``'s calls
    ``failure()`` and the others first sleep ``pause`` seconds.  The
    parent process runs the real task."""
    if os.getpid() != parent:
        (marks / kernel.name).touch()
        if kernel.name == doomed:
            failure()
        time.sleep(pause)
    return run(task, kernel, machine, locality)


def _raise_unit_failed():
    raise _UnitFailed("injected")


def _inject(monkeypatch, marks, doomed, failure, pause=0.0):
    """Patch the task the pool workers (forked after this) run."""
    monkeypatch.setattr(
        grid_module,
        "run_schedule_task",
        functools.partial(
            _injected_schedule_task,
            os.getpid(),
            marks,
            doomed,
            failure,
            pause,
            grid_module.run_schedule_task,
        ),
    )


def _shipped(args):
    """Submitted arguments and the items of the containers among them."""
    for arg in args:
        yield arg
        if isinstance(arg, dict):
            yield from arg.values()
        elif isinstance(arg, (list, tuple)):
            yield from arg


class TestPoolWorkUnits:
    def test_one_schedule_unit_per_kernel_ships_no_live_objects(
        self, monkeypatch
    ):
        submitted = []

        class RecordingPool(grid_module.ProcessPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                submitted.append((fn.__name__, args))
                return super().submit(fn, *args, **kwargs)

        monkeypatch.setattr(grid_module, "ProcessPoolExecutor", RecordingPool)
        pooled = run_scenario("fig6-smoke", cache=False, n_jobs=2)
        serial = run_scenario("fig6-smoke", cache=False)
        units = [args[0] for name, args in submitted if "schedule" in name]
        suite = sorted(kernel.name for kernel in spec_suite())
        assert len(suite) == len(units) == 8
        assert sorted(unit[0].payload["kernel"] for unit in units) == suite
        assert all(
            isinstance(task, PlanTask)
            and task.payload["kernel"] == unit[0].payload["kernel"]
            for unit in units
            for task in unit
        )
        assert sum(map(len, units)) == pooled.grid.stats.plan["schedule_tasks"]
        live = [
            item
            for _name, args in submitted
            for item in _shipped(args)
            if isinstance(item, (Kernel, MachineConfig))
        ]
        assert live == []
        assert pooled.figure.bars == serial.figure.bars
        assert pooled.figure.records == serial.figure.records

    def test_serial_run_executes_the_pool_units(self, monkeypatch):
        submitted = []

        class RecordingPool(grid_module.ProcessPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                if "schedule" in fn.__name__:
                    submitted.append(args[0])
                return super().submit(fn, *args, **kwargs)

        monkeypatch.setattr(grid_module, "ProcessPoolExecutor", RecordingPool)
        run_scenario("fig6-smoke", cache=False, n_jobs=2)
        calls = []
        run = grid_module.run_schedule_task

        def recording_task(task, kernel, machine, locality):
            calls.append(task)
            return run(task, kernel, machine, locality)

        monkeypatch.setattr(grid_module, "run_schedule_task", recording_task)
        run_scenario("fig6-smoke", cache=False)
        kernels = [task.payload["kernel"] for task in calls]
        runs = [kernel for kernel, _ in itertools.groupby(kernels)]
        # One contiguous run per kernel, in first-seen order ...
        assert runs == list(dict.fromkeys(kernels))
        assert len(runs) == len(submitted) == 8
        # ... and each run is the unit the pool was handed.
        assert [task.key for task in calls] == [
            task.key for unit in submitted for task in unit
        ]

    def test_failing_unit_cancels_the_queued_units(
        self, monkeypatch, tmp_path
    ):
        kernels = spec_suite()
        specs = _specs(kernels, thresholds=(0.0,))
        # The first unit fails at once; the others take a while, so the
        # failure surfaces while most of them are still queued.
        _inject(
            monkeypatch, tmp_path, kernels[0].name, _raise_unit_failed, 0.1
        )
        grid = ExperimentGrid(locality=_locality(), n_jobs=2)
        with pytest.raises(_UnitFailed):
            grid.run(specs)
        executed = {path.name for path in tmp_path.iterdir()}
        assert kernels[0].name in executed
        assert len(executed) < len(kernels)

    def test_killed_worker_breaks_the_run_and_the_next_run_recovers(
        self, monkeypatch, tmp_path, small_suite
    ):
        specs = _specs(small_suite)
        _inject(
            monkeypatch, tmp_path, small_suite[-1].name, lambda: os._exit(1)
        )
        grid = ExperimentGrid(locality=_locality(), n_jobs=2)
        with pytest.raises(BrokenProcessPool):
            grid.run(specs)
        telemetry = grid.stage_store.telemetry()
        assert telemetry["schedule"]["stores"] == 0
        assert telemetry["simulate"]["stores"] == 0
        monkeypatch.undo()
        results = grid.run(specs)
        assert [r.canonical() for r in results] == [
            r.canonical() for r in reference_run(specs, _locality())
        ]


class TestProgress:
    def test_progress_reports_every_cell(self, small_suite):
        events = []
        grid = ExperimentGrid(
            locality=_locality(),
            progress=lambda done, total, spec, source: events.append(
                (done, total, source)
            ),
        )
        spec = CellSpec.of(small_suite[0], unified(), "baseline", 1.0)
        other = CellSpec.of(small_suite[1], unified(), "baseline", 1.0)
        grid.run([spec, other, spec])
        assert [e[0] for e in events] == [1, 2, 3]
        assert all(e[1] == 3 for e in events)
        assert sorted(e[2] for e in events) == [
            "computed", "computed", "dedup"
        ]

    def test_rejects_bad_n_jobs(self):
        with pytest.raises(ValueError):
            ExperimentGrid(n_jobs=0)
