"""Tests for the scenario registry and runner (repro.harness.scenarios)."""

import json
from dataclasses import replace

import pytest

from repro.cli import main
from repro.cme import SamplingCME
from repro.engine import StageStore
from repro.harness import scenarios
from repro.harness.grid import CellSpec, ExperimentGrid, machine_key
from repro.harness.scenarios import (
    ABLATION_KERNELS,
    GroupSpec,
    LocalitySpec,
    MachineSpec,
    ScenarioSpec,
    all_scenarios,
    get_scenario,
    register_scenario,
    run_scenario,
    scenario_listing,
    scenario_names,
)
from repro.machine import two_cluster, unified
from repro.machine.config import BusConfig, MachineConfig
from repro.workloads.dsp import DSP_KERNELS

from reference_cells import stage_work

EXPECTED_BUILTINS = {
    "fig5-2cluster",
    "fig5-4cluster",
    "fig6-2cluster",
    "fig6-4cluster",
    "fig6-smoke",
    "fig6-steady-ablation",
    "streaming",
    "dsp-4cluster",
    "unified-reference",
    "ablation-cme-sampling",
    "ablation-cme-equations",
    "ablation-cme-analytic",
}


def _tiny_scenario(name="tiny", **overrides) -> ScenarioSpec:
    """One kernel, one group, clamped iteration counts: runs in ~10ms."""
    settings = dict(
        name=name,
        description="test scenario",
        groups=(
            GroupSpec(
                label="unified",
                machine=MachineSpec(preset="unified"),
                scheduler="baseline",
            ),
        ),
        thresholds=(1.0,),
        kernels=("tomcatv",),
        n_iterations=8,
        n_times=2,
    )
    settings.update(overrides)
    return ScenarioSpec(**settings)


class TestRegistry:
    def test_builtins_registered(self):
        assert EXPECTED_BUILTINS <= set(scenario_names())

    def test_get_unknown_raises(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            get_scenario("fig7")

    def test_duplicate_registration_rejected(self):
        scenario = get_scenario("dsp-4cluster")
        with pytest.raises(KeyError, match="already registered"):
            register_scenario(scenario)
        # explicit replace is allowed and idempotent here
        assert register_scenario(scenario, replace=True) is scenario

    def test_every_builtin_round_trips_through_json(self):
        for scenario in all_scenarios():
            clone = ScenarioSpec.from_json(scenario.to_json())
            assert clone.to_dict() == scenario.to_dict()
            assert json.loads(scenario.to_json())  # valid JSON


class TestSpecValidation:
    def test_unknown_preset(self):
        with pytest.raises(KeyError, match="unknown machine preset"):
            MachineSpec(preset="16-cluster")

    def test_unknown_scheduler(self):
        with pytest.raises(KeyError, match="unknown scheduler"):
            GroupSpec(
                label="x",
                machine=MachineSpec(preset="unified"),
                scheduler="greedy",
            )

    def test_unknown_locality_kind(self):
        with pytest.raises(KeyError, match="unknown locality kind"):
            LocalitySpec(kind="oracle")

    def test_unknown_suite(self):
        with pytest.raises(KeyError, match="unknown suite"):
            _tiny_scenario(suite="specint")

    def test_unknown_kernel_selection(self):
        with pytest.raises(KeyError, match="unknown spec kernels"):
            _tiny_scenario(kernels=("tomcatv", "gcc"))

    def test_grid_scenario_needs_groups(self):
        with pytest.raises(ValueError, match="needs groups"):
            ScenarioSpec(name="empty", description="nothing")

    def test_unknown_figure(self):
        with pytest.raises(KeyError, match="unknown figure"):
            ScenarioSpec(name="f7", description="x", figure="figure7")


class TestFromDictValidation:
    """``from_dict`` hardening: untrusted JSON (the service's POST body)
    must fail with a ``ValueError`` naming the offending key."""

    def _data(self, **overrides):
        data = _tiny_scenario().to_dict()
        data.update(overrides)
        return data

    def test_non_object_rejected_at_every_level(self):
        for cls in (ScenarioSpec, MachineSpec, LocalitySpec, GroupSpec):
            with pytest.raises(ValueError, match="must be a JSON object"):
                cls.from_dict(["not", "an", "object"])

    @pytest.mark.parametrize(
        "key, value", [("schedulers", ["rmca"]), ("sim", "scalar")]
    )
    def test_unknown_scenario_key_named(self, key, value):
        with pytest.raises(ValueError, match=repr(key)):
            ScenarioSpec.from_dict(self._data(**{key: value}))

    def test_unknown_machine_key_named(self):
        with pytest.raises(ValueError, match="'presett'.*machine spec"):
            MachineSpec.from_dict({"preset": "unified", "presett": "x"})

    def test_unknown_locality_key_named(self):
        with pytest.raises(ValueError, match="'points'"):
            LocalitySpec.from_dict({"kind": "sampling", "points": 4})

    def test_unknown_group_key_named(self):
        group = _tiny_scenario().groups[0].to_dict()
        group["threshold"] = 0.5
        with pytest.raises(ValueError, match="'threshold'.*group spec"):
            GroupSpec.from_dict(group)

    def test_missing_required_key_named(self):
        data = self._data()
        del data["name"]
        with pytest.raises(ValueError, match="missing required key 'name'"):
            ScenarioSpec.from_dict(data)

    def test_group_missing_machine_named(self):
        with pytest.raises(ValueError, match="missing required key 'machine'"):
            GroupSpec.from_dict({"label": "g", "scheduler": "rmca"})

    @pytest.mark.parametrize(
        "overrides, match",
        [
            ({"n_iterations": "many"}, "'n_iterations'.*integer"),
            ({"suite": 7}, "'suite'"),
            ({"n_iterations": 0}, "'n_iterations'.*>= 1"),
            ({"n_times": -2}, "'n_times'.*>= 1"),
            (
                {"locality": {"kind": "sampling", "max_points": -3}},
                "'max_points'.*>= 1",
            ),
            ({"kernels": []}, "'kernels'"),
            ({"figure_args": {"n_clusters": 2}}, "'figure_args'"),
            (
                {"groups": [], "figure": "figure6", "kernels": []},
                "'kernels'",
            ),
            (
                {"groups": [], "figure": "figure6",
                 "figure_args": {"n_cluster": 2}},
                "'n_cluster'.*'figure_args'",
            ),
            (
                {"groups": [], "figure": "figure6",
                 "figure_args": {"grid": None}},
                "'grid'.*'figure_args'",
            ),
            (
                {"groups": [], "figure": "figure5",
                 "figure_args": {"kernels": ["applu"]}},
                "'kernels'.*'figure_args'",
            ),
            # A figure's figure_args build its groups and thresholds.
            ({"figure": "figure6"}, "'groups'"),
            (
                {"groups": [], "figure": "figure6", "thresholds": [0.5]},
                "'thresholds'",
            ),
            (
                {"groups": [], "figure": "figure5",
                 "figure_args": {"n_clusters": 3}},
                "'n_clusters'",
            ),
            (
                {"groups": [], "figure": "figure6",
                 "figure_args": {"bus_counts": "ab"}},
                "'bus_counts'",
            ),
            (
                {"groups": [], "figure": "figure6",
                 "figure_args": {"bus_latencies": [0]}},
                "'bus_latencies'.*>= 1",
            ),
            (
                {"groups": [], "figure": "figure5",
                 "figure_args": {"thresholds": [True]}},
                "'thresholds'.*'figure_args'",
            ),
        ],
    )
    def test_bad_field_names_key(self, overrides, match):
        with pytest.raises(ValueError, match=match):
            ScenarioSpec.from_dict(self._data(**overrides))

    def test_bool_is_not_an_integer(self):
        # bool passes isinstance(int) — the validator must still reject
        # it wherever a number is expected.
        with pytest.raises(ValueError, match="'n_times'"):
            ScenarioSpec.from_dict(self._data(n_times=True))
        with pytest.raises(ValueError, match="'thresholds'"):
            ScenarioSpec.from_dict(self._data(thresholds=[True]))

    def test_bad_threshold_list_names_key(self):
        with pytest.raises(ValueError, match="'thresholds'"):
            ScenarioSpec.from_dict(self._data(thresholds="1.0"))
        with pytest.raises(ValueError, match="'thresholds'"):
            ScenarioSpec.from_dict(self._data(thresholds=[1.0, "x"]))

    def test_bad_groups_shape_named(self):
        with pytest.raises(ValueError, match="'groups'"):
            ScenarioSpec.from_dict(self._data(groups={"label": "g"}))

    def test_bad_bus_spec_named(self):
        for bad in (
            [1], [1, 2, 3], ["one", 2], [True, 2], 7, [1, 0], [0, 1],
            [None, 0], [1, True],
        ):
            with pytest.raises(ValueError, match="'memory_bus'"):
                MachineSpec.from_dict(
                    {"preset": "unified", "memory_bus": bad}
                )
        # Built in code, a spec makes the same checks.
        with pytest.raises(ValueError, match="'register_bus'"):
            MachineSpec(preset="2-cluster", register_bus=(2, 0))
        # null count (unbounded pool) stays legal
        spec = MachineSpec.from_dict(
            {"preset": "unified", "memory_bus": [None, 1]}
        )
        assert spec.memory_bus == (None, 1)

    def test_bad_figure_args_shape_named(self):
        with pytest.raises(ValueError, match="'figure_args'"):
            ScenarioSpec.from_dict(
                self._data(groups=[], figure="figure6", figure_args=[1, 2])
            )


class TestScenarioListing:
    def test_listing_matches_registry(self):
        listing = scenario_listing()
        assert [entry["name"] for entry in listing] == scenario_names()
        for entry in listing:
            assert set(entry) == {
                "name", "kind", "cells", "description", "spec"
            }
            spec = ScenarioSpec.from_dict(entry["spec"])
            assert spec.to_dict() == entry["spec"]
            assert entry["cells"] == spec.n_cells() > 0

    def test_listing_is_json_serializable(self):
        assert json.loads(json.dumps(scenario_listing()))


class TestExpansion:
    def test_cell_count_matches_expansion(self):
        for scenario in all_scenarios():
            assert len(scenario.expand()) == scenario.n_cells()

    def test_expansion_order_is_group_threshold_kernel(self):
        scenario = _tiny_scenario(
            groups=(
                GroupSpec(
                    label="a",
                    machine=MachineSpec(preset="unified"),
                    scheduler="baseline",
                ),
                GroupSpec(
                    label="b",
                    machine=MachineSpec(preset="2-cluster"),
                    scheduler="rmca",
                ),
            ),
            thresholds=(1.0, 0.0),
            kernels=("tomcatv", "swim"),
        )
        specs = scenario.expand()
        assert [s.scheduler for s in specs] == ["baseline"] * 4 + ["rmca"] * 4
        assert [s.threshold for s in specs] == [1.0, 1.0, 0.0, 0.0] * 2
        assert [s.kernel for s in specs] == ["tomcatv", "swim"] * 4

    def test_figure_expansion_leads_with_the_reference(self, monkeypatch):
        scenario = ScenarioSpec(
            name="fig6-tiny",
            description="one bus configuration, two thresholds",
            figure="figure6",
            figure_args=(
                ("bus_counts", (1,)),
                ("bus_latencies", (4,)),
                ("thresholds", (1.0, 0.0)),
            ),
            kernels=("tomcatv", "swim"),
        )
        encoded = []
        to_dict = MachineConfig.to_dict
        monkeypatch.setattr(
            MachineConfig, "to_dict",
            lambda machine: encoded.append(machine) or to_dict(machine),
        )
        specs = scenario.expand()
        # Reference, Unified, and one machine for both schedulers.
        assert len(encoded) == 3
        monkeypatch.undo()
        machines = (
            [unified(memory_bus=BusConfig(None, 1))] * 2
            + [unified()] * 4
            + [two_cluster(memory_bus=BusConfig(1, 4))] * 8
        )
        assert [s.machine for s in specs] == [
            machine_key(machine) for machine in machines
        ]
        assert [s.scheduler for s in specs] == ["baseline"] * 10 + ["rmca"] * 4
        assert [s.threshold for s in specs] == (
            [1.0] * 2 + [1.0, 1.0, 0.0, 0.0] * 3
        )
        assert [s.kernel for s in specs] == ["tomcatv", "swim"] * 7
        assert scenario.n_cells() == len(specs)

    def test_figure_honours_workload_and_overrides(self):
        scenario = ScenarioSpec(
            name="fig6-dsp",
            description="figure 6 over the DSP suite, clamped",
            figure="figure6",
            figure_args=(("thresholds", (0.5,)),),
            suite="dsp",
            n_iterations=7,
            n_times=2,
            steady="entry",
        )
        specs = scenario.expand()
        n_dsp = len(DSP_KERNELS)
        # Reference + Unified + 4 bus configurations x 2 schedulers.
        assert len(specs) == scenario.n_cells() == 10 * n_dsp
        assert [s.kernel for s in specs] == list(DSP_KERNELS) * 10
        assert [s.threshold for s in specs] == (
            [1.0] * n_dsp + [0.5] * 9 * n_dsp
        )
        assert all(
            (s.n_iterations, s.n_times, s.steady) == (7, 2, "entry")
            for s in specs
        )

    @pytest.mark.parametrize(
        "name, machines",
        [("bus-design-space-smoke", 4), ("fig6-steady-ablation", 1)],
    )
    def test_expansion_encodes_one_machine_per_spec(
        self, name, machines, monkeypatch
    ):
        scenario = get_scenario(name)
        kernels = scenario.build_kernels()
        # The cells as built with a new machine per cell.
        per_cell = [
            CellSpec.of(
                kernel,
                group.machine.build(),
                group.scheduler,
                threshold,
                n_iterations=scenario.n_iterations,
                n_times=scenario.n_times,
                steady=(
                    group.steady if group.steady is not None
                    else scenario.steady
                ),
            )
            for group in scenario.groups
            for threshold in scenario.thresholds
            for kernel in kernels
        ]
        encoded = []
        to_dict = MachineConfig.to_dict

        def _counting_to_dict(machine):
            encoded.append(machine)
            return to_dict(machine)

        monkeypatch.setattr(MachineConfig, "to_dict", _counting_to_dict)
        assert scenario.expand(kernels) == per_cell
        assert len(encoded) == machines

    def test_sim_overrides_reach_cellspecs(self):
        specs = _tiny_scenario().expand()
        assert all(s.n_iterations == 8 and s.n_times == 2 for s in specs)

    def test_machine_bus_overrides(self):
        machine = MachineSpec(
            preset="2-cluster",
            register_bus=(None, 2),
            memory_bus=(4, 3),
        ).build()
        assert machine.register_bus.count is None
        assert machine.register_bus.latency == 2
        assert machine.memory_bus.count == 4
        assert machine.memory_bus.latency == 3

    def test_ablation_kernels_constant(self):
        scenario = get_scenario("ablation-cme-sampling")
        assert scenario.kernels == ABLATION_KERNELS


class TestSteadySelection:
    def test_scenario_steady_reaches_cellspecs(self):
        specs = _tiny_scenario(steady="entry").expand()
        assert all(spec.steady == "entry" for spec in specs)

    def test_group_steady_overrides_scenario_default(self):
        scenario = get_scenario("fig6-steady-ablation")
        specs = scenario.expand()
        modes = sorted({spec.steady for spec in specs})
        assert modes == ["auto", "entry", "iteration", "off"]
        # The simulate key must separate the modes, or the ablation
        # would serve one mode's timing run from another's products.
        by_mode = {}
        for spec in specs:
            by_mode.setdefault(spec.steady, spec)
        keys = {
            StageStore.simulate_key(
                "fp", spec.steady, spec.n_iterations, spec.n_times
            )
            for spec in by_mode.values()
        }
        assert len(keys) == len(by_mode)

    def test_unknown_steady_rejected(self):
        with pytest.raises(KeyError, match="unknown steady mode"):
            _tiny_scenario(steady="mostly")
        with pytest.raises(KeyError, match="unknown steady mode"):
            GroupSpec(
                label="x",
                machine=MachineSpec(preset="unified"),
                scheduler="baseline",
                steady="never",
            )

    def test_run_scenario_steady_override(self):
        outcome = run_scenario(_tiny_scenario(), steady="off")
        assert outcome.scenario.steady == "off"
        assert outcome.results is not None

    def test_streaming_scenario_shape(self):
        scenario = get_scenario("streaming")
        assert scenario.kernels == ("su2cor", "applu", "turb3d")
        assert scenario.n_cells() == 9
        kernels = scenario.build_kernels()
        assert all(kernel.loop.n_times == 1 for kernel in kernels)


class TestRunScenario:
    def test_grid_scenario_end_to_end(self):
        outcome = run_scenario(_tiny_scenario())
        assert outcome.results is not None and len(outcome.results) == 1
        rows = list(outcome.iter_rows())
        assert rows[0][0] == "unified"
        assert rows[0][2] == "tomcatv"
        assert rows[0][3].simulation.n_times == 2
        assert outcome.grid.stats.computed == 1

    def test_result_for_lookup(self):
        outcome = run_scenario(_tiny_scenario())
        result = outcome.result_for("unified", 1.0, "tomcatv")
        assert result.kernel == "tomcatv"
        with pytest.raises(KeyError, match="no cell"):
            outcome.result_for("unified", 0.5, "tomcatv")

    def test_shared_grid_caches_across_runs(self):
        grid = ExperimentGrid(locality=SamplingCME(max_points=512))
        scenario = _tiny_scenario()
        run_scenario(scenario, grid=grid)
        done = stage_work(grid)
        run_scenario(scenario, grid=grid)
        assert stage_work(grid) == done  # warm: zero stage work

    def test_conflicting_grid_analyzer_rejected(self):
        grid = ExperimentGrid(locality=SamplingCME(max_points=64))
        with pytest.raises(ValueError, match="conflicting locality"):
            run_scenario(_tiny_scenario(), grid=grid)

    def test_dsp_scenario_runs_on_its_suite(self):
        scenario = get_scenario("dsp-4cluster")
        outcome = run_scenario(
            ScenarioSpec.from_dict(
                {
                    **scenario.to_dict(),
                    "name": "dsp-tiny",
                    "kernels": ["dotprod"],
                    "n_iterations": 16,
                    "n_times": 1,
                }
            ),
        )
        assert [row[2] for row in outcome.iter_rows()] == ["dotprod"] * 2
        schedulers = [row[3].scheduler for row in outcome.iter_rows()]
        assert schedulers == ["baseline", "rmca"]

    def test_figure_scenario_produces_figure(self):
        scenario = ScenarioSpec(
            name="fig6-tiny",
            description="reduced figure-6 panel over two kernels",
            figure="figure6",
            figure_args=(
                ("bus_counts", (1,)),
                ("bus_latencies", (1,)),
                ("thresholds", (1.0,)),
            ),
            kernels=("applu", "su2cor"),
        )
        outcome = run_scenario(scenario)
        assert outcome.figure is not None
        assert len(outcome.results) == scenario.n_cells() == 8
        groups = outcome.figure.groups
        assert groups == [
            "unified", "NMB=1,LMB=1 baseline", "NMB=1,LMB=1 rmca"
        ]
        rows = list(outcome.iter_rows())
        assert [row[0] for row in rows[::2]] == ["reference", *groups]
        assert [record["group"] for record in outcome.figure.records] == [
            row[0] for row in rows[2:]
        ]


class TestBuiltOncePerProcess:
    """A spec run on its own kernels builds them and its cells once per
    process, keyed by its canonical JSON."""

    NAME = "unified-reference"

    def _grid(self):
        return ExperimentGrid(
            locality=get_scenario(self.NAME).locality.build()
        )

    def test_signed_zero_thresholds_keep_their_sign(self):
        positive = _tiny_scenario(thresholds=(1.0, 0.0))
        negative = _tiny_scenario(thresholds=(1.0, -0.0))
        # Equal specs with one hash, yet their cells differ.
        assert positive == negative and hash(positive) == hash(negative)
        grid = ExperimentGrid(locality=SamplingCME(max_points=512))
        run_scenario(positive, grid=grid)
        outcome = run_scenario(negative, grid=grid)
        for labels in (outcome.results,
                       [r.simulation for r in outcome.results]):
            assert [repr(r.threshold) for r in labels] == ["1.0", "-0.0"]

    def test_second_run_builds_and_analyzes_nothing(self, monkeypatch):
        grid = self._grid()
        first = run_scenario(self.NAME, grid=grid)
        built = []
        names, factory = scenarios._SUITES["spec"]
        monkeypatch.setitem(scenarios._SUITES, "spec", (
            names, lambda *args: built.append("suite") or factory(*args)
        ))
        of = CellSpec.of
        monkeypatch.setattr(CellSpec, "of", classmethod(
            lambda cls, *args, **kw: built.append("cell") or of(*args, **kw)
        ))
        before = dict(grid.stats.plan)
        second = run_scenario(self.NAME, grid=grid)
        assert built == []
        assert all(a is b for a, b in zip(second.kernels, first.kernels))
        # Store-served: no schedule task, so no kernel is analyzed.
        for key in ("analyze_tasks", "schedule_tasks", "simulate_tasks"):
            assert grid.stats.plan[key] == before[key], key
        assert [r.canonical() for r in second.results] == [
            r.canonical() for r in first.results
        ]

    def test_changed_kernel_fails_the_next_run_loudly(self):
        # A copy under its own name: its memo entry is this test's alone.
        spec = replace(get_scenario(self.NAME), name="changed-kernel")
        grid = self._grid()
        outcome = run_scenario(spec, grid=grid)
        kernel = outcome.kernels[0]
        edge = kernel.ddg.edges()[0]
        kernel.ddg.add_edge(replace(edge, distance=edge.distance + 7))
        with pytest.raises(ValueError, match="content mismatch"):
            run_scenario(spec, grid=grid)
        # The failure empties the memo: the run after it builds afresh.
        again = run_scenario(spec, grid=grid)
        assert again.kernels[0] is not kernel
        assert [r.canonical() for r in again.results] == [
            r.canonical() for r in outcome.results
        ]


class TestScenarioCLI:
    def test_scenarios_command_lists_registry(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        for name in EXPECTED_BUILTINS:
            assert name in out

    def test_run_spec_prints_json(self, capsys):
        assert main(["run", "fig6-smoke", "--spec"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["name"] == "fig6-smoke"
        assert data["figure"] == "figure6"

    def test_run_executes_grid_scenario(self, capsys):
        assert (
            main(
                ["run", "dsp-4cluster", "--no-progress"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "dotprod" in out
        assert "rmca" in out

    def test_run_unknown_scenario_fails(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            main(["run", "fig7"])
