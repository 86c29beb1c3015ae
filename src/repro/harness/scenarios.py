"""Declarative scenario registry: every sweep as a named, serializable spec.

A *scenario* is a JSON-serializable description of one experiment —
machine preset (with optional bus overrides), scheduler, thresholds,
workload selection, locality-analyzer configuration and simulation
overrides — that expands to a :class:`~repro.harness.grid.CellSpec` grid
and runs on a shared :class:`~repro.harness.grid.ExperimentGrid`.  The
registry gives every sweep in the repository a name: the paper figures,
the DSP extension and the CME-backend ablations are all entries, runnable
via ``python -m repro.cli run <scenario>`` and reusable from benchmarks.

Two kinds of scenario exist:

* **grid** scenarios enumerate ``groups × thresholds × kernels`` cells
  explicitly; :func:`run_scenario` returns the per-cell
  :class:`RunResult` list in enumeration order.
* **figure** scenarios delegate to the figure generators
  (:func:`~repro.harness.sweep.figure5` / ``figure6``), which do their
  own cell enumeration plus the paper's Unified normalization;
  :func:`run_scenario` returns the :class:`FigureData`.

Adding a scenario is one :func:`register_scenario` call (or an entry in
``_BUILTIN_SCENARIOS`` below); specs round-trip through
:meth:`ScenarioSpec.to_dict` / :meth:`ScenarioSpec.from_dict` so they can
live in JSON files or CLI pipelines.
"""

from __future__ import annotations

import inspect
import json
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from ..cme import AnalyticCME, EquationCME, IncrementalCME
from ..cme.locality import LocalityAnalyzer, locality_fingerprint
from ..engine.result import RunResult
from ..engine.stages import SCHEDULER_NAMES
from ..ir.builder import Kernel
from ..machine.config import BusConfig, MachineConfig
from ..machine.presets import ALL_PRESETS, preset
from ..steady import STEADY_MODES, validate_steady_mode
from ..workloads.dsp import DSP_KERNELS, dsp_suite
from ..workloads.suite import (
    SPEC_KERNELS,
    STREAMING_LONG_KERNELS,
    spec_suite,
    streaming_long_suite,
)
from .grid import CellSpec, ExperimentGrid, ProgressCallback
from .sweep import FigureData, figure5, figure6

__all__ = [
    "MachineSpec",
    "LocalitySpec",
    "GroupSpec",
    "ScenarioSpec",
    "ScenarioOutcome",
    "register_scenario",
    "get_scenario",
    "scenario_names",
    "all_scenarios",
    "scenario_listing",
    "run_scenario",
]

_SUITES = {
    "spec": (SPEC_KERNELS, spec_suite),
    "dsp": (DSP_KERNELS, dsp_suite),
    "streaming-long": (STREAMING_LONG_KERNELS, streaming_long_suite),
}

_FIGURES = {"figure5": figure5, "figure6": figure6}

#: Figure-generator arguments :func:`run_scenario` supplies itself, so a
#: spec's ``figure_args`` may not.
_RUNNER_FIGURE_ARGS = frozenset(
    {"grid", "steady", "kernels", "locality", "n_jobs", "progress"}
)


def _bus_to_json(bus: Optional[Tuple[Optional[int], int]]):
    return None if bus is None else list(bus)


# ----------------------------------------------------------------------
# from_dict validation helpers
# ----------------------------------------------------------------------
# The specs accept untrusted JSON (the experiment service's POST /jobs
# body goes straight through ``ScenarioSpec.from_dict``), so malformed
# input must fail with a ``ValueError`` that names the offending key —
# never an incidental ``TypeError``/``AttributeError`` from deeper in
# the constructor.


def _expect_object(data: object, context: str) -> Mapping:
    if not isinstance(data, Mapping):
        raise ValueError(
            f"{context} must be a JSON object, got {type(data).__name__}"
        )
    return data


def _reject_unknown_keys(data: Mapping, allowed: frozenset, context: str):
    unknown = sorted(str(key) for key in data if key not in allowed)
    if unknown:
        raise ValueError(
            f"unknown key(s) {', '.join(map(repr, unknown))} in {context}; "
            f"allowed: {sorted(allowed)}"
        )


def _typed(
    data: Mapping,
    key: str,
    types,
    type_name: str,
    context: str,
    required: bool = False,
    default=None,
):
    """Fetch ``data[key]`` with a type check that names the key.

    ``None`` values follow the optional-field convention: absent and
    ``null`` both mean "use the default" unless the field is required.
    ``bool`` is rejected wherever a number is expected — it *is* an
    ``int`` to ``isinstance``, but a spec saying ``"threshold": true``
    is a mistake, not a threshold.
    """
    value = data.get(key)
    if value is None:
        if required:
            raise ValueError(f"{context} is missing required key {key!r}")
        return default
    if not isinstance(value, types) or isinstance(value, bool):
        raise ValueError(
            f"key {key!r} in {context} must be {type_name}, "
            f"got {type(value).__name__}"
        )
    return value


def _typed_list(
    data: Mapping,
    key: str,
    item_types,
    item_name: str,
    context: str,
    default=None,
):
    """Fetch a homogeneous-list field, naming the key on any mismatch."""
    value = data.get(key)
    if value is None:
        return default
    if not isinstance(value, (list, tuple)):
        raise ValueError(
            f"key {key!r} in {context} must be a list of {item_name}, "
            f"got {type(value).__name__}"
        )
    for item in value:
        if not isinstance(item, item_types) or isinstance(item, bool):
            raise ValueError(
                f"key {key!r} in {context} must be a list of {item_name}; "
                f"item {item!r} is a {type(item).__name__}"
            )
    return list(value)


def _check_count(value: Optional[int], key: str, context: str) -> None:
    """Reject a count below 1 (``None`` means "use the default")."""
    if value is not None and value < 1:
        raise ValueError(
            f"key {key!r} in {context} must be >= 1, got {value}"
        )


def _bus_from_json(data, key: str = "bus", context: str = "machine spec"):
    if data is None:
        return None
    if (
        not isinstance(data, (list, tuple))
        or len(data) != 2
        or not (data[0] is None or isinstance(data[0], int))
        or not isinstance(data[1], int)
        or isinstance(data[0], bool)
        or isinstance(data[1], bool)
    ):
        raise ValueError(
            f"key {key!r} in {context} must be a [count, latency] pair "
            f"(count may be null for an unbounded pool), got {data!r}"
        )
    return (data[0], data[1])


@dataclass(frozen=True)
class MachineSpec:
    """A machine preset plus optional bus overrides.

    Buses are ``(count, latency)`` pairs; ``count=None`` means the
    unbounded pool of the paper's Section 5.2 study.
    """

    preset: str
    register_bus: Optional[Tuple[Optional[int], int]] = None
    memory_bus: Optional[Tuple[Optional[int], int]] = None

    def __post_init__(self) -> None:
        if self.preset not in ALL_PRESETS:
            raise KeyError(
                f"unknown machine preset {self.preset!r}; "
                f"choose from {sorted(ALL_PRESETS)}"
            )

    def build(self) -> MachineConfig:
        kwargs = {}
        if self.register_bus is not None:
            kwargs["register_bus"] = BusConfig(*self.register_bus)
        if self.memory_bus is not None:
            kwargs["memory_bus"] = BusConfig(*self.memory_bus)
        return preset(self.preset, **kwargs)

    def to_dict(self) -> Dict[str, object]:
        return {
            "preset": self.preset,
            "register_bus": _bus_to_json(self.register_bus),
            "memory_bus": _bus_to_json(self.memory_bus),
        }

    _KEYS = frozenset({"preset", "register_bus", "memory_bus"})

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "MachineSpec":
        context = "machine spec"
        data = _expect_object(data, context)
        _reject_unknown_keys(data, cls._KEYS, context)
        return cls(
            preset=_typed(
                data, "preset", str, "a preset name", context, required=True
            ),
            register_bus=_bus_from_json(
                data.get("register_bus"), "register_bus", context
            ),
            memory_bus=_bus_from_json(
                data.get("memory_bus"), "memory_bus", context
            ),
        )


@dataclass(frozen=True)
class LocalitySpec:
    """Which CME backend drives the schedulers, and at what budget.

    ``"sampling"`` builds the incremental engine — it computes the
    sampled estimator bit-identically (and shares its fingerprint), so
    existing scenario specs, cache entries and golden recordings are
    unchanged by the engine swap.
    """

    kind: str = "sampling"
    max_points: Optional[int] = 512

    _BUILDERS = {
        "sampling": lambda points: IncrementalCME(max_points=points),
        "equations": lambda points: EquationCME(max_points=points),
        "analytic": lambda points: AnalyticCME(),
    }

    def __post_init__(self) -> None:
        if self.kind not in self._BUILDERS:
            raise KeyError(
                f"unknown locality kind {self.kind!r}; "
                f"choose from {sorted(self._BUILDERS)}"
            )
        _check_count(self.max_points, "max_points", "locality spec")

    def build(self) -> LocalityAnalyzer:
        return self._BUILDERS[self.kind](self.max_points)

    def to_dict(self) -> Dict[str, object]:
        return {"kind": self.kind, "max_points": self.max_points}

    _KEYS = frozenset({"kind", "max_points"})

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "LocalitySpec":
        context = "locality spec"
        data = _expect_object(data, context)
        _reject_unknown_keys(data, cls._KEYS, context)
        return cls(
            kind=_typed(
                data, "kind", str, "an analyzer name", context, required=True
            ),
            max_points=_typed(
                data, "max_points", int, "an integer", context
            ),
        )


@dataclass(frozen=True)
class GroupSpec:
    """One bar group of a grid scenario: a machine and a scheduler.

    ``steady`` overrides the scenario-wide steady-state detector
    selection for this group's cells (``None`` inherits it) — this is
    how one scenario compares detector modes side by side.
    """

    label: str
    machine: MachineSpec
    scheduler: str
    steady: Optional[str] = None

    def __post_init__(self) -> None:
        if self.scheduler not in SCHEDULER_NAMES:
            raise KeyError(
                f"unknown scheduler {self.scheduler!r}; "
                f"choose from {SCHEDULER_NAMES}"
            )
        if self.steady is not None:
            validate_steady_mode(self.steady)

    def to_dict(self) -> Dict[str, object]:
        return {
            "label": self.label,
            "machine": self.machine.to_dict(),
            "scheduler": self.scheduler,
            "steady": self.steady,
        }

    _KEYS = frozenset({"label", "machine", "scheduler", "steady"})

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "GroupSpec":
        context = "group spec"
        data = _expect_object(data, context)
        _reject_unknown_keys(data, cls._KEYS, context)
        label = _typed(
            data, "label", str, "a string", context, required=True
        )
        context = f"group spec {label!r}"
        machine = data.get("machine")
        if machine is None:
            raise ValueError(f"{context} is missing required key 'machine'")
        return cls(
            label=label,
            machine=MachineSpec.from_dict(machine),
            scheduler=_typed(
                data, "scheduler", str, "a scheduler name", context,
                required=True,
            ),
            steady=_typed(data, "steady", str, "a steady mode", context),
        )


@dataclass(frozen=True)
class ScenarioSpec:
    """A named, serializable experiment description.

    Grid scenarios set ``groups`` (+ ``thresholds``/workload selection);
    figure scenarios set ``figure`` (+ ``figure_args`` forwarded to the
    generator).  ``kernels=None`` selects the whole suite.
    """

    name: str
    description: str
    groups: Tuple[GroupSpec, ...] = ()
    thresholds: Tuple[float, ...] = (1.0,)
    suite: str = "spec"
    kernels: Optional[Tuple[str, ...]] = None
    locality: LocalitySpec = LocalitySpec()
    n_iterations: Optional[int] = None
    n_times: Optional[int] = None
    #: Scenario-wide steady-state detector selection; groups may
    #: override it per bar (see :class:`GroupSpec`).
    steady: str = "auto"
    figure: Optional[str] = None
    figure_args: Tuple[Tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        validate_steady_mode(self.steady)
        context = f"scenario spec {self.name!r}"
        for key in ("n_iterations", "n_times"):
            _check_count(getattr(self, key), key, context)
        if self.suite not in _SUITES:
            raise KeyError(
                f"unknown suite {self.suite!r}; choose from {sorted(_SUITES)}"
            )
        if self.figure is not None and self.figure not in _FIGURES:
            raise KeyError(
                f"unknown figure {self.figure!r}; "
                f"choose from {sorted(_FIGURES)}"
            )
        if self.figure is None and not self.groups:
            raise ValueError(
                f"scenario {self.name!r} needs groups (grid kind) or a "
                f"figure (figure kind)"
            )
        registry, _factory = _SUITES[self.suite]
        unknown = [
            name for name in (self.kernels or ()) if name not in registry
        ]
        if unknown:
            raise KeyError(
                f"scenario {self.name!r} selects unknown {self.suite} "
                f"kernels {unknown}; known: {list(registry)}"
            )
        if self.kernels is not None and not self.kernels:
            raise ValueError(
                f"key 'kernels' in {context} selects no kernel; omit it "
                f"to select the whole suite"
            )
        if self.figure is not None:
            parameters = inspect.signature(_FIGURES[self.figure]).parameters
            _reject_unknown_keys(
                dict(self.figure_args),
                frozenset(parameters) - _RUNNER_FIGURE_ARGS,
                f"key 'figure_args' in {context} ({self.figure})",
            )
        elif self.figure_args:
            raise ValueError(
                f"key 'figure_args' in {context} needs a figure; grid "
                f"scenarios take none"
            )

    # ------------------------------------------------------------------
    @property
    def is_figure(self) -> bool:
        return self.figure is not None

    def build_kernels(self) -> List[Kernel]:
        """Instantiate the selected workload kernels, in suite order."""
        registry, factory = _SUITES[self.suite]
        if self.kernels is None:
            return factory()
        return factory(list(self.kernels))

    def expand(
        self, kernels: Optional[Sequence[Kernel]] = None
    ) -> List[CellSpec]:
        """The scenario's cell grid: groups × thresholds × kernels."""
        if self.is_figure:
            raise ValueError(
                f"figure scenario {self.name!r} delegates enumeration to "
                f"{self.figure}; run it via run_scenario()"
            )
        kernels = (
            list(kernels) if kernels is not None else self.build_kernels()
        )
        return [
            CellSpec.of(
                kernel,
                group.machine.build(),
                group.scheduler,
                threshold,
                n_iterations=self.n_iterations,
                n_times=self.n_times,
                steady=(
                    group.steady if group.steady is not None else self.steady
                ),
            )
            for group in self.groups
            for threshold in self.thresholds
            for kernel in kernels
        ]

    def n_cells(self) -> Optional[int]:
        """Cell count of a grid scenario (``None`` for figure kind)."""
        if self.is_figure:
            return None
        registry, _factory = _SUITES[self.suite]
        n_kernels = (
            len(registry) if self.kernels is None else len(self.kernels)
        )
        return len(self.groups) * len(self.thresholds) * n_kernels

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "description": self.description,
            "groups": [group.to_dict() for group in self.groups],
            "thresholds": list(self.thresholds),
            "suite": self.suite,
            "kernels": None if self.kernels is None else list(self.kernels),
            "locality": self.locality.to_dict(),
            "n_iterations": self.n_iterations,
            "n_times": self.n_times,
            "steady": self.steady,
            "figure": self.figure,
            "figure_args": {key: value for key, value in self.figure_args},
        }

    _KEYS = frozenset(
        {
            "name",
            "description",
            "groups",
            "thresholds",
            "suite",
            "kernels",
            "locality",
            "n_iterations",
            "n_times",
            "steady",
            "figure",
            "figure_args",
        }
    )

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ScenarioSpec":
        def _tupled(value):
            return tuple(value) if isinstance(value, list) else value

        context = "scenario spec"
        data = _expect_object(data, context)
        _reject_unknown_keys(data, cls._KEYS, context)
        name = _typed(data, "name", str, "a string", context, required=True)
        context = f"scenario spec {name!r}"
        groups = data.get("groups")
        if groups is None:
            groups = []
        elif not isinstance(groups, (list, tuple)):
            raise ValueError(
                f"key 'groups' in {context} must be a list of group "
                f"specs, got {type(groups).__name__}"
            )
        figure_args = data.get("figure_args")
        if figure_args is None:
            figure_args = {}
        else:
            figure_args = _expect_object(
                figure_args, f"key 'figure_args' in {context}"
            )
        locality = data.get("locality")
        return cls(
            name=name,
            description=_typed(
                data, "description", str, "a string", context, required=True
            ),
            groups=tuple(GroupSpec.from_dict(group) for group in groups),
            thresholds=tuple(
                _typed_list(
                    data, "thresholds", (int, float), "numbers", context,
                    default=[1.0],
                )
            ),
            suite=_typed(
                data, "suite", str, "a suite name", context, default="spec"
            ),
            kernels=(
                None
                if data.get("kernels") is None
                else tuple(
                    _typed_list(
                        data, "kernels", str, "kernel names", context
                    )
                )
            ),
            locality=LocalitySpec.from_dict(
                locality
                if locality is not None
                else {"kind": "sampling", "max_points": 512}
            ),
            n_iterations=_typed(
                data, "n_iterations", int, "an integer", context
            ),
            n_times=_typed(data, "n_times", int, "an integer", context),
            steady=_typed(
                data, "steady", str, "a steady mode", context, default="auto"
            ),
            figure=_typed(data, "figure", str, "a figure name", context),
            figure_args=tuple(
                sorted(
                    (str(key), _tupled(value))
                    for key, value in figure_args.items()
                )
            ),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        return cls.from_dict(json.loads(text))


@dataclass
class ScenarioOutcome:
    """What running a scenario produced.

    Grid scenarios fill ``results`` (aligned with
    ``scenario.expand()``); figure scenarios fill ``figure``.
    """

    scenario: ScenarioSpec
    grid: ExperimentGrid
    kernels: List[Kernel] = field(default_factory=list)
    results: Optional[List[RunResult]] = None
    figure: Optional[FigureData] = None

    def iter_rows(
        self,
    ) -> Iterator[Tuple[str, float, str, RunResult]]:
        """Yield ``(group label, threshold, kernel name, result)`` in
        enumeration order (grid scenarios only)."""
        if self.results is None:
            raise ValueError(
                f"scenario {self.scenario.name!r} is a figure scenario; "
                f"read .figure instead"
            )
        index = 0
        for group in self.scenario.groups:
            for threshold in self.scenario.thresholds:
                for kernel in self.kernels:
                    yield group.label, threshold, kernel.name, self.results[
                        index
                    ]
                    index += 1

    def result_for(
        self, label: str, threshold: float, kernel: str
    ) -> RunResult:
        """Look one cell result up by its enumeration coordinates."""
        for row_label, row_threshold, row_kernel, result in self.iter_rows():
            if (
                row_label == label
                and row_kernel == kernel
                and abs(row_threshold - threshold) < 1e-12
            ):
                return result
        raise KeyError(
            f"no cell ({label!r}, {threshold}, {kernel!r}) in scenario "
            f"{self.scenario.name!r}"
        )


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_REGISTRY: Dict[str, ScenarioSpec] = {}


def register_scenario(
    scenario: ScenarioSpec, replace: bool = False
) -> ScenarioSpec:
    """Add a scenario to the registry (``replace=True`` to overwrite)."""
    if scenario.name in _REGISTRY and not replace:
        raise KeyError(f"scenario {scenario.name!r} already registered")
    _REGISTRY[scenario.name] = scenario
    return scenario


def get_scenario(name: str) -> ScenarioSpec:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; known: {scenario_names()}"
        ) from None


def scenario_names() -> List[str]:
    return sorted(_REGISTRY)


def all_scenarios() -> List[ScenarioSpec]:
    return [_REGISTRY[name] for name in scenario_names()]


def scenario_listing() -> List[Dict[str, object]]:
    """Machine-readable registry listing, in name order.

    The single serializer behind both ``repro scenarios --json`` and the
    experiment service's ``GET /scenarios`` endpoint, so the two can
    never drift apart.  Each entry carries the summary columns of the
    human-readable table plus the full round-trippable spec.
    """
    return [
        {
            "name": scenario.name,
            "kind": "figure" if scenario.is_figure else "grid",
            "cells": scenario.n_cells(),
            "description": scenario.description,
            "spec": scenario.to_dict(),
        }
        for scenario in all_scenarios()
    ]


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
def run_scenario(
    scenario: Union[ScenarioSpec, str],
    grid: Optional[ExperimentGrid] = None,
    n_jobs: int = 1,
    cache: bool = True,
    cache_dir=None,
    progress: Optional[ProgressCallback] = None,
    steady: Optional[str] = None,
) -> ScenarioOutcome:
    """Execute a scenario (by spec or registry name) on a grid.

    An explicit ``grid`` must run the analyzer configuration the
    scenario declares — silently computing different bars would poison
    its stores — otherwise a grid is built from the scenario's
    :class:`LocalitySpec`.  ``steady`` overrides the scenario's
    scenario-wide detector selection (groups with their own explicit
    ``steady`` keep it — they exist precisely to pin a mode).
    """
    if isinstance(scenario, str):
        scenario = get_scenario(scenario)
    if steady is not None:
        scenario = replace(scenario, steady=validate_steady_mode(steady))
    if grid is None:
        grid = ExperimentGrid(
            locality=scenario.locality.build(),
            n_jobs=n_jobs,
            cache=cache,
            cache_dir=cache_dir,
            progress=progress,
        )
    else:
        wanted = locality_fingerprint(scenario.locality.build())
        actual = locality_fingerprint(grid.locality)
        if wanted != actual:
            raise ValueError(
                f"scenario {scenario.name!r} declares analyzer {wanted!r} "
                f"but the grid runs {actual!r}; pass a matching grid or "
                f"none"
            )
    if scenario.is_figure:
        figure_fn = _FIGURES[scenario.figure]
        kwargs = {key: value for key, value in scenario.figure_args}
        if scenario.kernels is not None:
            kwargs["kernels"] = scenario.build_kernels()
        figure = figure_fn(grid=grid, steady=scenario.steady, **kwargs)
        return ScenarioOutcome(scenario=scenario, grid=grid, figure=figure)
    kernels = scenario.build_kernels()
    grid.register(kernels)
    specs = scenario.expand(kernels)
    results = grid.run(specs)
    return ScenarioOutcome(
        scenario=scenario, grid=grid, kernels=kernels, results=results
    )


# ----------------------------------------------------------------------
# Built-in scenarios: every sweep in the repository has a name
# ----------------------------------------------------------------------
#: Kernel subset the CME-backend ablation studies (benchmarks/test_ablations).
ABLATION_KERNELS = ("tomcatv", "su2cor", "hydro2d", "turb3d", "applu")


def _ablation_scenario(kind: str, max_points: Optional[int]) -> ScenarioSpec:
    return ScenarioSpec(
        name=f"ablation-cme-{kind}",
        description=(
            f"RMCA at threshold 0.0 on the 4-cluster machine, driven by "
            f"the {kind} CME backend"
        ),
        groups=(
            GroupSpec(
                label=kind,
                machine=MachineSpec(preset="4-cluster"),
                scheduler="rmca",
            ),
        ),
        thresholds=(0.0,),
        kernels=ABLATION_KERNELS,
        locality=LocalitySpec(kind=kind, max_points=max_points),
    )


#: The paper's single-entry (``NTIMES=1``) streaming kernels — the
#: workloads only the iteration-level steady-state detector can speed up.
STREAMING_KERNELS = ("su2cor", "applu", "turb3d")


def _streaming_scenario() -> ScenarioSpec:
    return ScenarioSpec(
        name="streaming",
        description=(
            "The NTIMES=1 streaming kernels (su2cor, applu, turb3d) with "
            "RMCA across the clustered machine presets — the "
            "iteration-level steady-state detector's home turf"
        ),
        groups=tuple(
            GroupSpec(
                label=preset_name,
                machine=MachineSpec(preset=preset_name),
                scheduler="rmca",
            )
            for preset_name in ("2-cluster", "4-cluster", "heterogeneous")
        ),
        thresholds=(1.0,),
        kernels=STREAMING_KERNELS,
    )


def _streaming_long_scenario() -> ScenarioSpec:
    return ScenarioSpec(
        name="streaming-long",
        description=(
            "Long-stream variants of the NTIMES=1 kernels (4x NITER, "
            "matching array extents) with RMCA across the clustered "
            "presets — shows the iteration detector's asymptotic win "
            "and stresses the simulate engines at production scale"
        ),
        groups=tuple(
            GroupSpec(
                label=preset_name,
                machine=MachineSpec(preset=preset_name),
                scheduler="rmca",
            )
            for preset_name in ("2-cluster", "4-cluster", "heterogeneous")
        ),
        thresholds=(1.0,),
        suite="streaming-long",
    )


def _steady_ablation_scenario() -> ScenarioSpec:
    return ScenarioSpec(
        name="fig6-steady-ablation",
        description=(
            "Figure-6 cells (2-cluster, NMB=1, LMB=1, threshold 0.25) "
            "once per steady-state detector mode — identical bars, "
            "different wall-clock; the simulate key separates the modes"
        ),
        groups=tuple(
            GroupSpec(
                label=f"steady={mode}",
                machine=MachineSpec(preset="2-cluster", memory_bus=(1, 1)),
                scheduler="rmca",
                steady=mode,
            )
            for mode in STEADY_MODES
        ),
        thresholds=(0.25,),
    )


def _bus_design_space_scenario() -> ScenarioSpec:
    """The seeded form of ``examples/bus_design_space.py``: both
    schedulers across the 4-cluster NMB x LMB bus grid on a trimmed
    kernel set — many cells sharing few kernels, so the execution
    planner's cross-cell dedup has real work to do."""
    return ScenarioSpec(
        name="bus-design-space-smoke",
        description=(
            "Memory-bus design-space smoke (4-cluster, NMB in {1,2} x "
            "LMB in {1,4}, Baseline vs RMCA): the examples/ bus sweep "
            "as a registered scenario"
        ),
        groups=tuple(
            GroupSpec(
                label=f"NMB={nmb},LMB={lmb} {scheduler}",
                machine=MachineSpec(
                    preset="4-cluster",
                    register_bus=(2, 1),
                    memory_bus=(nmb, lmb),
                ),
                scheduler=scheduler,
            )
            for nmb in (1, 2)
            for lmb in (1, 4)
            for scheduler in ("baseline", "rmca")
        ),
        thresholds=(1.0, 0.0),
        kernels=("tomcatv", "hydro2d", "turb3d"),
    )


_BUILTIN_SCENARIOS = (
    _streaming_scenario(),
    _streaming_long_scenario(),
    _steady_ablation_scenario(),
    _bus_design_space_scenario(),
    ScenarioSpec(
        name="fig5-2cluster",
        description="Figure 5, 2-cluster: unbounded buses, LRB x LMB sweep",
        figure="figure5",
        figure_args=(("n_clusters", 2),),
    ),
    ScenarioSpec(
        name="fig5-4cluster",
        description="Figure 5, 4-cluster: unbounded buses, LRB x LMB sweep",
        figure="figure5",
        figure_args=(("n_clusters", 4),),
    ),
    ScenarioSpec(
        name="fig6-2cluster",
        description="Figure 6, 2-cluster: realistic buses, NMB x LMB sweep",
        figure="figure6",
        figure_args=(("n_clusters", 2),),
    ),
    ScenarioSpec(
        name="fig6-4cluster",
        description="Figure 6, 4-cluster: realistic buses, NMB x LMB sweep",
        figure="figure6",
        figure_args=(("n_clusters", 4),),
    ),
    ScenarioSpec(
        name="fig6-smoke",
        description=(
            "Figure 6 reduced grid (NMB=1, LMB=1): the golden-regression "
            "panel, full suite"
        ),
        figure="figure6",
        figure_args=(
            ("bus_counts", (1,)),
            ("bus_latencies", (1,)),
            ("n_clusters", 2),
        ),
    ),
    ScenarioSpec(
        name="dsp-4cluster",
        description=(
            "DSP/multimedia extension: Baseline vs RMCA at threshold "
            "0.25 on the 4-cluster machine"
        ),
        groups=(
            GroupSpec(
                label="baseline",
                machine=MachineSpec(preset="4-cluster"),
                scheduler="baseline",
            ),
            GroupSpec(
                label="rmca",
                machine=MachineSpec(preset="4-cluster"),
                scheduler="rmca",
            ),
        ),
        thresholds=(0.25,),
        suite="dsp",
    ),
    ScenarioSpec(
        name="unified-reference",
        description=(
            "Unified machine with an unbounded 1-cycle memory bus at "
            "threshold 1.0: the figures' normalization denominator"
        ),
        groups=(
            GroupSpec(
                label="unified",
                machine=MachineSpec(preset="unified", memory_bus=(None, 1)),
                scheduler="baseline",
            ),
        ),
        thresholds=(1.0,),
    ),
    _ablation_scenario("sampling", 512),
    _ablation_scenario("equations", 512),
    _ablation_scenario("analytic", None),
)

for _scenario in _BUILTIN_SCENARIOS:
    register_scenario(_scenario)
