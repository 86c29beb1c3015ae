"""One differential matrix: every cell once, its reference once, every
fast path checked against it.

:class:`Matrix` enumerates the cells: every registered grid scenario's,
under its own analyzer; the golden panels', as their generators submit
them; every steady mode on four kernels; one cell with and without
iteration overrides.  The reference (``reference_analyzer``'s schedule,
then the scalar engine under steady ``off``) runs once per key, one job
per kernel on two processes.  Each column holds one fast path to it,
one test per cell group (a scenario's group, a panel, a steady mode)
or, for the plan, per analyzer, naming failing cells;
``tests/invariants.py`` checks every run and schedule.  A new fast path
is one more column.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from itertools import product
from multiprocessing import get_context
from typing import NamedTuple, Optional

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import invariants
from reference_cells import reference_analyzer, stage_work
from repro.cme.locality import locality_fingerprint
from repro.engine import RunResult
from repro.engine.stages import make_scheduler, schedule_kernel
from repro.harness import grid as grid_module
from repro.harness.grid import CellSpec, ExperimentGrid
from repro.harness.scenarios import LocalitySpec, all_scenarios, run_scenario
from repro.harness.sweep import figure5
from repro.machine import four_cluster, two_cluster
from repro.machine.config import BusConfig
from repro.scheduler import Schedule
from repro.simulator import LockstepSimulator, VectorizedSimulator, WarmStateStore
from repro.steady import STEADY_MODES
from repro.workloads import GeneratorConfig, random_kernel, spec_suite

#: The golden panels, each drawn on a given grid.
PANELS = {
    "fig6-smoke": lambda grid: run_scenario("fig6-smoke", grid=grid).figure,
    "fig5-4cluster-reduced": lambda grid: figure5(
        n_clusters=4, latencies=(1,), thresholds=(1.0, 0.0), grid=grid),
}
#: The view column also covers every scheduling problem of these: every
#: machine pair that differs only in its memory-bus count.
VIEW_FIGURES = ("fig6-2cluster", "fig6-4cluster")
SAMPLED = locality_fingerprint(LocalitySpec().build())
ENGINES = (VectorizedSimulator, LockstepSimulator)
LABELS = ("kernel", "machine", "scheduler", "threshold")


class Cell(NamedTuple):
    analyzer: str  # locality fingerprint
    spec: CellSpec
    kernel: object
    label: str

    @property
    def key(self) -> tuple:  # what the schedule stage reads
        s = self.spec
        return (self.analyzer, s.kernel, s.kernel_fp, s.machine,
                s.scheduler, s.threshold)

    def __str__(self) -> str:
        s = self.spec
        return (f"{self.label}: {s} steady={s.steady} overrides="
                f"{s.n_iterations, s.n_times} [{self.analyzer}]")


class Pass(NamedTuple):
    """One engine run."""

    result: object  # SimulationResult
    counters: tuple
    signature: tuple
    report: object  # SteadyStateReport
    vector_ok: bool
    store: Optional[dict]  # its warm store's counts after the run
    broken: Optional[str]  # the first invariant it broke


def _run(simulator) -> Pass:
    result, broken = simulator.run(), None
    try:
        invariants.check_run(simulator, result)
    except AssertionError as exc:
        broken = str(exc)
    memory, store = simulator.memory, simulator.warm_store
    return Pass(result, memory.counters(), memory.state_signature(0),
                simulator.steady_report, getattr(simulator, "_vector_ok", False),
                None if store is None else store.counts(), broken)


def _reference(job):
    """One kernel's reference schedules, and the runs of each schedule and
    overrides: the reference, then each engine under each mode the cells
    name on a fresh store, ``(mode, engine)``, and on the other engine's,
    ``(mode, engine, "read")``."""
    cells, localities = job
    analyzers = {fp: reference_analyzer(locality.build())
                 for fp, locality in localities.items()}
    schedules, modes = {}, {}
    for cell in cells:
        s = cell.spec
        if cell.key not in schedules:
            schedules[cell.key] = schedule_kernel(
                cell.kernel, s.build_machine(), s.scheduler, s.threshold,
                analyzers[cell.analyzer])
        schedule = schedules[cell.key]
        key = (schedule.fingerprint(), s.n_iterations, s.n_times)
        modes.setdefault(key, (schedule, set()))[1].add(s.steady)
    runs = {}
    for key, (schedule, named) in modes.items():
        args = (schedule, *key[1:])
        # The reference: the scalar engine under steady off, no store.
        run = runs[key] = {"reference": _run(LockstepSimulator(*args, "off"))}
        run["off", ENGINES[0]] = _run(ENGINES[0](*args, "off"))
        run["off", ENGINES[1]] = run["reference"]
        for mode in sorted(named - {"off"}):
            warm = {engine: WarmStateStore() for engine in ENGINES}
            for engine in ENGINES:
                run[mode, engine] = _run(engine(*args, mode, warm[engine]))
            for writer, reader in zip(ENGINES, ENGINES[::-1]):
                run[mode, reader, "read"] = _run(
                    reader(*args, mode, warm[writer]))
    return schedules, runs


class _Stop(Exception):
    pass


class Matrix:
    """The one cell enumerator, and every product the columns share."""

    def __init__(self):
        self.localities, self.analyzers, self.kernels = {}, {}, {}
        self.schedules, self.fast, self.runs = {}, {}, {}
        self.cells = {}  # (analyzer, spec) -> Cell
        self.groups = {}  # label -> its cells, so labelled
        for scenario in all_scenarios():
            if scenario.name in VIEW_FIGURES:
                self._capture({}, scenario.name, scenario.locality,
                              lambda grid: run_scenario(scenario, grid))
            if scenario.is_figure:
                continue
            kernels, groups = scenario.build_kernels(), scenario.groups
            specs = scenario.expand(kernels)
            for index, spec in enumerate(specs):
                group = groups[index * len(groups) // len(specs)]
                self._add(self.cells, f"{scenario.name}:{group.label}",
                          scenario.locality, spec, kernels)
        for name, draw in PANELS.items():
            self._capture(self.cells, name, LocalitySpec(), draw)
        suite = spec_suite(["su2cor", "turb3d", "tomcatv", "mgrid", "applu"])
        for kernel, mode in product(suite[:4], STEADY_MODES):
            spec = CellSpec.of(kernel, two_cluster(), "rmca", 1.0, steady=mode)
            self._add(self.cells, f"steady-modes:{mode}", LocalitySpec(),
                      spec, suite)
        for overrides in ((None, None), (300, 3)):
            spec = CellSpec.of(suite[4], four_cluster(), "baseline", 1.0,
                               *overrides, steady="iteration")
            self._add(self.cells, "overrides", LocalitySpec(), spec, suite)
        self.by_analyzer = {}
        for cell in self.cells.values():
            self.by_analyzer.setdefault(cell.analyzer, []).append(cell)

    def _add(self, cells, label, locality, spec, kernels):
        fp = locality_fingerprint(locality.build())
        self.localities.setdefault(fp, locality)
        self.analyzers.setdefault(fp, locality.build())
        kernel = self.kernels.setdefault(
            spec.kernel, next(k for k in kernels if k.name == spec.kernel))
        cell = cells.setdefault((fp, spec), Cell(fp, spec, kernel, label))
        self.groups.setdefault(label, []).append(cell._replace(label=label))

    def _capture(self, cells, label, locality, draw):
        """The cells ``draw`` submits to its grid."""
        specs = []

        def stop(submitted):
            specs.extend(submitted)
            raise _Stop

        grid = ExperimentGrid(locality=locality.build(), cache=False)
        grid.run = stop
        with pytest.raises(_Stop):
            draw(grid)
        for spec in specs:
            self._add(cells, label, locality, spec, grid._kernels.values())

    def compute(self, cells, pool=None) -> None:
        """The reference of ``cells``, one job per kernel."""
        jobs = {}
        for cell in cells:
            jobs.setdefault(cell.spec.kernel_fp, []).append(cell)
        jobs = sorted(jobs.values(), key=len, reverse=True)
        for schedules, runs in (pool.map if pool else map)(
                _reference, [(job, self.localities) for job in jobs]):
            self.schedules.update(schedules)
            self.runs.update(runs)

    def runs_of(self, cell: Cell) -> dict:
        s = cell.spec
        fingerprint = self.schedules[cell.key].fingerprint()
        return self.runs[fingerprint, s.n_iterations, s.n_times]

    def result(self, cell: Cell) -> RunResult:
        """The reference ``RunResult``."""
        s = cell.spec
        labels = (s.kernel, s.build_machine().name, s.scheduler, s.threshold)
        simulation = replace(self.runs_of(cell)["reference"].result,
                             **dict(zip(LABELS, labels)))
        return RunResult(*labels, self.schedules[cell.key], simulation)

    def fast_schedule(self, cell: Cell, machine=None) -> Schedule:
        """The grid's analyzer's schedule on ``machine`` (by default the
        cell's own), once per machine."""
        s = cell.spec
        machine = machine or s.build_machine()
        key = (*cell.key[:3], machine.canonical_json, *cell.key[4:])
        if key not in self.fast:
            self.fast[key] = make_scheduler(
                s.scheduler, s.threshold, self.analyzers[cell.analyzer]
            ).schedule(cell.kernel, machine)
        return self.fast[key]


#: Enumerating takes milliseconds; each column runs once per cell group.
MATRIX = Matrix()
GROUPS = [label for label in MATRIX.groups if label not in VIEW_FIGURES]


def _per_group(groups):
    ids = [group.replace(" ", "-") for group in groups]
    return pytest.mark.parametrize("group", groups, ids=ids)


@pytest.fixture(scope="module")
def matrix():
    with ProcessPoolExecutor(2, mp_context=get_context("spawn")) as pool:
        MATRIX.compute(MATRIX.cells.values(), pool)
    return MATRIX


def _unique(cells, key):
    unique = {}
    for cell in cells:
        unique.setdefault(key(cell), cell)
    return unique.values()


def _check(column, check, cells, *more) -> None:
    failures = []
    for cell, *args in zip(cells, *more):
        try:
            check(cell, *args)
        except AssertionError as exc:
            failures.append(f"{column} | {cell}: {str(exc).splitlines()[0]}")
    if failures:
        pytest.fail(f"{len(failures)} failures:\n" + "\n".join(failures),
                    pytrace=False)


def _diff(got: dict, want: dict) -> dict:
    return {key: (got.get(key), want.get(key))
            for key in sorted({*got, *want}) if got.get(key) != want.get(key)}


def _fields(schedule: Schedule, *skip) -> dict:
    return {f.name: getattr(schedule, f.name)
            for f in dataclasses.fields(Schedule) if f.name not in skip}


def _assert_run(got: Pass, want: Pass, what: str, twin=None) -> None:
    """No invariant broken; the reference's result (but for its labels)
    and counters; and the final state and detector report of ``twin``, a
    run under the same mode (a replay stops where its detector confirms)."""
    for run, name in ((want, "reference"), (got, what)):
        assert run.broken is None, f"{name}: invariant {run.broken}"
    delta = _diff(*({k: v for k, v in run.result.as_dict().items()
                     if k not in LABELS} for run in (got, want)))
    assert not delta, f"{what}: result differs (got, reference): {delta}"
    assert got.counters == want.counters, f"{what}: counters differ"
    if twin is not None:
        assert got.signature == twin.signature, f"{what}: state differs"
        assert got.report == twin.report, f"{what}: steady_report differs"


# ----------------------------------------------------------------------
# Per-cell columns
# ----------------------------------------------------------------------
def incremental(matrix, cell) -> None:
    """``IncrementalCME`` schedules as ``SamplingCME`` does (II, MII
    parts, placements, communications)."""
    fast, reference = matrix.fast_schedule(cell), matrix.schedules[cell.key]
    for schedule in (fast, reference):
        invariants.check_schedule(schedule)
    assert _fields(fast, "kernel", "machine") == _fields(
        reference, "kernel", "machine"), "the schedules differ"


def view(matrix, cell) -> None:
    """The schedule made on the scheduling view is the one made on the
    cell's machine, in every field but the machine."""
    machine = cell.spec.build_machine()
    on_view = machine.scheduling_view
    assert on_view == replace(
        machine, memory_bus=BusConfig(None, machine.memory_bus.latency)
    ), "the view changes more than the memory-bus count"
    if machine.memory_bus.count is None:
        assert on_view is machine, "an unbounded machine is not its view"
        return
    made = matrix.fast_schedule(cell, on_view)
    invariants.check_schedule(made)
    got, want = (_fields(schedule, "machine")
                 for schedule in (made, matrix.fast_schedule(cell)))
    assert got == want, f"{[k for k in got if got[k] != want[k]]} differ"


def vectorized(matrix, cell) -> None:
    """Both engines under the cell's mode and the vectorized one under
    ``off`` leave the reference result; under one mode, one state and
    one detector report.  A matrix cell passes the vectorized walk's
    static no-stall proof, and a streaming-long one replays iterations."""
    runs, mode = matrix.runs_of(cell), cell.spec.steady
    reference = runs["reference"]
    vector, scalar = (runs[mode, engine] for engine in ENGINES)
    _assert_run(vector, reference, f"vectorized steady={mode}", scalar)
    _assert_run(scalar, reference, f"scalar steady={mode}")
    _assert_run(runs["off", ENGINES[0]], reference, "vectorized off", reference)
    if (cell.analyzer, cell.spec) in matrix.cells:
        assert vector.vector_ok, "_vector_ok is false"
    if cell.label.startswith("streaming-long:"):
        assert vector.report.iterations_replayed > 0, "replays nothing"


def warm(matrix, cell) -> dict:
    """Each engine reads the record the other's store pass left: the hit
    leaves the reference result and the store pass's state and report,
    and stores nothing.  Returns the hits per (writer, reader)."""
    mode, hits = cell.spec.steady, {}
    if mode == "off":
        return hits  # steady off bypasses the store
    runs = matrix.runs_of(cell)
    for writer, reader in zip(ENGINES, ENGINES[::-1]):
        written, read = runs[mode, writer], runs[mode, reader, "read"]
        what = f"{writer.__name__}'s record read by {reader.__name__}"
        _assert_run(read, runs["reference"], what, written)
        assert read.store["stores"] == written.store["stores"], (
            f"{what}: the hit stored a record")
        hits[writer.__name__, reader.__name__] = read.store["hits"]
    return hits


def _simulations(matrix, cells):
    """One of ``cells`` per simulation key."""
    return _unique(cells, lambda cell: (
        matrix.schedules[cell.key].fingerprint(), cell.spec.steady,
        cell.spec.n_iterations, cell.spec.n_times))


@_per_group(GROUPS)
def test_incremental(matrix, group):
    _check("incremental", lambda cell: incremental(matrix, cell),
           _unique(matrix.groups[group], lambda cell: cell.key))


@_per_group([*GROUPS, *VIEW_FIGURES])
def test_view(matrix, group):
    _check("view", lambda cell: view(matrix, cell),
           _unique(matrix.groups[group], lambda cell: cell.key))


@_per_group(GROUPS)
def test_vectorized(matrix, group):
    """The ``vectorized`` and ``warm`` columns; in a group with a
    detector on, each engine hits the other's records."""
    cells, hits = _simulations(matrix, matrix.groups[group]), Counter()
    _check("vectorized", lambda cell: vectorized(matrix, cell), cells)
    _check("warm", lambda cell: hits.update(warm(matrix, cell)), cells)
    if any(cell.spec.steady != "off" for cell in cells):
        assert len(hits) == 2 and all(hits.values()), f"warm | hits {hits}"


@pytest.mark.parametrize("config, machine, examples", [
    (GeneratorConfig(), two_cluster, 15),
    (GeneratorConfig(conflict_probability=0.9, max_dims=1, min_extent=32),
     four_cluster, 8),
])
def test_random_kernels(matrix, config, machine, examples):
    """The per-cell columns on hypothesis kernels, one at a time."""

    @settings(max_examples=examples, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 10_000))
    def check(seed):
        kernel = random_kernel(seed, config)
        cell = Cell(SAMPLED, CellSpec.of(kernel, machine(), "baseline", 1.0),
                    kernel, "hypothesis")
        matrix.compute([cell])
        for column in (incremental, view, vectorized, warm):
            _check(column.__name__, lambda each: column(matrix, each), [cell])

    check()


# ----------------------------------------------------------------------
# Grid columns: runs over all of an analyzer's cells
# ----------------------------------------------------------------------
def _check_plan(matrix, column, cells, results) -> None:
    def check(cell, result):
        invariants.check_result(result.simulation)
        delta = _diff(result.canonical(), matrix.result(cell).canonical())
        assert not delta, f"differs from the reference: {delta}"

    _check(column, check, cells, results)


@pytest.fixture(scope="module")
def planned(matrix, tmp_path_factory):
    """Per analyzer: a cold grid run into a cache directory."""
    runs = {}
    for fp, cells in matrix.by_analyzer.items():
        cache_dir = tmp_path_factory.mktemp("plan")
        grid = ExperimentGrid(locality=matrix.analyzers[fp],
                              cache_dir=cache_dir, kernels=matrix.kernels)
        runs[fp] = grid, grid.run([cell.spec for cell in cells]), cache_dir
    return runs


@pytest.mark.parametrize("fp", list(MATRIX.by_analyzer))
def test_plan(matrix, planned, fp):
    """The cold run, a rerun on its grid (no stage task, nothing stored)
    and a fresh grid over its cache directory (no stage work) all equal
    the reference."""
    grid, results, cache_dir = planned[fp]
    cells = matrix.by_analyzer[fp]
    specs = [cell.spec for cell in cells]
    plan = grid.stats.plan
    assert (plan["runs"], plan["cells"]) == (1, len(cells))
    for schedule in {id(r.schedule): r.schedule for r in results}.values():
        invariants.check_schedule(schedule)
    _check_plan(matrix, "plan", cells, results)
    done = stage_work(grid)
    _check_plan(matrix, "plan rerun", cells, grid.run(specs))
    assert stage_work(grid) == done, "plan rerun | stage work ran"
    fresh = ExperimentGrid(locality=matrix.localities[fp].build(),
                           cache_dir=cache_dir, kernels=matrix.kernels)
    _check_plan(matrix, "plan disk", cells, fresh.run(specs))
    assert stage_work(fresh) == (0, 0, 0), "plan disk | stage work ran"
    hits = fresh.stage_store.telemetry()["schedule"]["hits"]
    assert hits == len(cells), f"plan disk | {hits} schedule hits"


@pytest.mark.parametrize("fp", list(MATRIX.by_analyzer))
@pytest.mark.parametrize("n_jobs, steady", [(2, None), (1, "off")])
def test_plan_cold(matrix, monkeypatch, n_jobs, steady, fp):
    """A cold run on the pool, under each cell's own mode (every worker's
    detectors use its own copy of the warm store), and a serial one with
    steady forced ``off`` equal the reference; only the pool run starts
    a pool, once."""
    starts, pool = [], grid_module.ProcessPoolExecutor
    monkeypatch.setattr(grid_module, "ProcessPoolExecutor",
                        lambda **kwargs: starts.append(1) or pool(**kwargs))
    cells, column = matrix.by_analyzer[fp], f"plan n_jobs={n_jobs}"
    grid = ExperimentGrid(locality=matrix.analyzers[fp], n_jobs=n_jobs,
                          cache=False, kernels=matrix.kernels)
    results = grid.run([replace(cell.spec, steady=steady or cell.spec.steady)
                        for cell in cells])
    assert len(starts) == (n_jobs > 1), f"{column} | {len(starts)} pools"
    _check_plan(matrix, f"{column} steady={steady or 'own'}", cells, results)


def test_figure(matrix, planned):
    """The generators assemble the same bars and records from the plan's
    grid (store-served) as from the reference."""
    def answer(specs):
        return [matrix.result(matrix.cells[SAMPLED, spec]) for spec in specs]

    for name, draw in PANELS.items():
        reference = ExperimentGrid(locality=matrix.analyzers[SAMPLED],
                                   cache=False, kernels=matrix.kernels)
        reference.run = answer
        want, got = draw(reference), draw(planned[SAMPLED][0])
        assert got.bars == want.bars, f"figure | {name}: bars differ"
        assert got.records == want.records, f"figure | {name}: records differ"
