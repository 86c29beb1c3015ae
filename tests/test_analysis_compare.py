"""Tests for the comparison helpers."""

import pytest

from repro.analysis.compare import make_scheduler, normalized_cycles
from repro.harness.grid import CellSpec, ExperimentGrid
from repro.machine import two_cluster, unified
from repro.scheduler import BaselineScheduler, RMCAScheduler


def run_cell(kernel, machine, scheduler, threshold, locality, **overrides):
    """One cell through a fresh in-memory grid."""
    grid = ExperimentGrid(locality=locality)
    grid.register([kernel])
    return grid.run_one(
        CellSpec.of(kernel, machine, scheduler, threshold, **overrides)
    )


class TestMakeScheduler:
    def test_baseline(self, sampling_cme):
        engine = make_scheduler("baseline", 0.5, sampling_cme)
        assert isinstance(engine, BaselineScheduler)
        assert engine.config.threshold == 0.5
        assert engine.locality is sampling_cme

    def test_rmca(self, sampling_cme):
        engine = make_scheduler("rmca", 0.25, sampling_cme)
        assert isinstance(engine, RMCAScheduler)
        assert engine.config.threshold == 0.25

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown scheduler"):
            make_scheduler("greedy")

    def test_default_locality_created(self):
        engine = make_scheduler("baseline")
        assert engine.locality is not None


class TestGridCell:
    def test_record_fields(self, saxpy, sampling_cme):
        result = run_cell(saxpy, unified(), "baseline", 1.0, sampling_cme)
        assert result.kernel == "saxpy"
        assert result.machine == "unified"
        assert result.scheduler == "baseline"
        assert result.total_cycles == (
            result.compute_cycles + result.stall_cycles
        )
        assert result.schedule.ii >= 1

    def test_iteration_override(self, saxpy, sampling_cme):
        result = run_cell(
            saxpy, unified(), "baseline", 1.0, sampling_cme, n_iterations=8
        )
        assert result.simulation.n_iterations == 8

    def test_rmca_cell(self, saxpy, sampling_cme):
        result = run_cell(saxpy, two_cluster(), "rmca", 0.0, sampling_cme)
        assert result.scheduler == "rmca"
        assert result.schedule.scheduler_name == "rmca"


class TestNormalizedCycles:
    def test_normalization(self, saxpy, sampling_cme):
        result = run_cell(saxpy, two_cluster(), "baseline", 1.0, sampling_cme)
        records = normalized_cycles(
            [result], {"saxpy": result.total_cycles}
        )
        assert len(records) == 1
        assert records[0]["norm_total"] == pytest.approx(1.0)
        assert records[0]["norm_compute"] + records[0]["norm_stall"] == (
            pytest.approx(1.0)
        )

    def test_zero_baseline_rejected(self, saxpy, sampling_cme):
        result = run_cell(saxpy, unified(), "baseline", 1.0, sampling_cme)
        with pytest.raises(ValueError, match="non-positive baseline"):
            normalized_cycles([result], {"saxpy": 0})

    def test_missing_baseline_names_kernel(self, saxpy, sampling_cme):
        result = run_cell(saxpy, unified(), "baseline", 1.0, sampling_cme)
        with pytest.raises(
            KeyError, match=r"no baseline for kernel 'saxpy'.*'tomcatv'"
        ):
            normalized_cycles([result], {"tomcatv": 100})
