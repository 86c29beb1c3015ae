"""Experiment harness: the cell grid engine, sweeps, tables, charts."""

from .charts import render_bar, render_figure
from .grid import (
    CellSpec,
    ExperimentGrid,
    GridStats,
    kernel_fingerprint,
    locality_fingerprint,
    machine_from_key,
    machine_key,
)
from .io import figure_to_csv, figure_to_json, load_records, records_to_csv, records_to_json
from .report import figure_table, format_float, format_table
from .scenarios import (
    GroupSpec,
    LocalitySpec,
    MachineSpec,
    ScenarioOutcome,
    ScenarioSpec,
    all_scenarios,
    get_scenario,
    register_scenario,
    run_scenario,
    scenario_names,
)
from .sweep import (
    DEFAULT_THRESHOLDS,
    Bar,
    FigureData,
    figure5,
    figure6,
)

__all__ = [
    "Bar",
    "CellSpec",
    "DEFAULT_THRESHOLDS",
    "ExperimentGrid",
    "FigureData",
    "GridStats",
    "GroupSpec",
    "LocalitySpec",
    "MachineSpec",
    "ScenarioOutcome",
    "ScenarioSpec",
    "all_scenarios",
    "get_scenario",
    "register_scenario",
    "run_scenario",
    "scenario_names",
    "kernel_fingerprint",
    "locality_fingerprint",
    "machine_from_key",
    "machine_key",
    "figure5",
    "figure6",
    "figure_table",
    "figure_to_csv",
    "figure_to_json",
    "load_records",
    "records_to_csv",
    "records_to_json",
    "format_float",
    "format_table",
    "render_bar",
    "render_figure",
]
