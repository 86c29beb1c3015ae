"""Unit tests for MII computation (ResMII, RecMII)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cme import SamplingCME
from repro.ir import LoopBuilder
from repro.ir.ddg import DepEdge
from repro.machine import BusConfig, four_cluster, two_cluster, unified
from repro.scheduler.mii import compute_mii, edge_latency, rec_mii, res_mii
from repro.workloads import kernel_by_name

from reference_cells import reference_cell


def _n_loads(n, with_recurrence=False, distance=1):
    b = LoopBuilder("k")
    i = b.dim("i", 0, 32)
    a = b.array("A", (64,))
    values = [b.load(a, [b.aff(k, i=1)], name=f"ld{k}") for k in range(n)]
    if with_recurrence:
        b.fadd(
            b.prev_value("acc", distance=distance), values[0],
            dest="acc", name="accum",
        )
    return b.build()


class TestResMII:
    def test_under_capacity_is_one(self):
        kernel = _n_loads(4)
        assert res_mii(kernel.ddg, unified()) == 1

    def test_memory_bound(self):
        kernel = _n_loads(9)
        # Unified has 4 memory units: ceil(9/4) = 3.
        assert res_mii(kernel.ddg, unified()) == 3

    def test_aggregate_across_clusters(self):
        kernel = _n_loads(8)
        # 4-cluster machine has 4 memory units total.
        assert res_mii(kernel.ddg, four_cluster()) == 2

    def test_mixed_fu_types(self):
        b = LoopBuilder("k")
        i = b.dim("i", 0, 8)
        a = b.array("A", (16,))
        v = b.load(a, [b.aff(i=1)])
        for _ in range(9):
            v = b.fadd(v, v)
        kernel = b.build()
        # 9 FP ops on 4 FP units (unified): ceil(9/4) = 3.
        assert res_mii(kernel.ddg, unified()) == 3

    def test_missing_fu_kind_raises(self):
        from repro.machine.config import (
            BusConfig, CacheConfig, ClusterConfig, MachineConfig,
        )
        machine = MachineConfig(
            name="no-fp",
            clusters=(
                ClusterConfig(
                    n_integer=1, n_fp=0, n_memory=1, n_registers=8,
                    cache=CacheConfig(size=1024),
                ),
            ),
            register_bus=BusConfig(count=1, latency=1),
            memory_bus=BusConfig(count=1, latency=1),
        )
        b = LoopBuilder("k")
        i = b.dim("i", 0, 8)
        a = b.array("A", (16,))
        v = b.load(a, [b.aff(i=1)])
        b.fadd(v, v)
        kernel = b.build()
        with pytest.raises(ValueError, match="machine has none"):
            res_mii(kernel.ddg, machine)


class TestRecMII:
    def test_dag_is_one(self):
        kernel = _n_loads(3)
        assert rec_mii(kernel.ddg, unified()) == 1

    def test_simple_accumulation(self):
        kernel = _n_loads(1, with_recurrence=True)
        # acc -> acc flow at distance 1, FADD latency 2: RecMII = 2.
        assert rec_mii(kernel.ddg, unified()) == 2

    def test_distance_divides_latency(self):
        kernel = _n_loads(1, with_recurrence=True, distance=2)
        # latency 2 over distance 2: RecMII = 1.
        assert rec_mii(kernel.ddg, unified()) == 1

    def test_longer_cycle(self):
        b = LoopBuilder("k")
        i = b.dim("i", 0, 16)
        a = b.array("A", (32,))
        v = b.load(a, [b.aff(i=1)], name="ld")
        t = b.fmul(b.prev_value("u", distance=1), v, name="mul", dest="t")
        u = b.fadd(t, v, name="add", dest="u")
        kernel = b.build()
        # Cycle mul->add->mul: latency 2+2 = 4 over distance 1.
        assert rec_mii(kernel.ddg, unified()) == 4

    def test_latency_override(self):
        kernel = _n_loads(1, with_recurrence=True)
        machine = unified()
        # Pretend the accumulator op takes 7 cycles.
        def latency_of(op):
            return 7 if op.name == "accum" else machine.latency(op.opclass)
        assert rec_mii(kernel.ddg, machine, latency_of) == 7

    def test_zero_distance_cycle_rejected(self):
        kernel = _n_loads(2)
        kernel.ddg.add_edge(DepEdge("ld0", "ld1", "mem", 0))
        kernel.ddg.add_edge(DepEdge("ld1", "ld0", "mem", 0))
        with pytest.raises(ValueError, match="zero-distance cycle"):
            rec_mii(kernel.ddg, unified())


class TestComputeMII:
    def test_max_of_bounds(self):
        kernel = _n_loads(9, with_recurrence=True)
        mii, res, rec = compute_mii(kernel.ddg, unified())
        assert res == 3
        assert rec == 2
        assert mii == 3

    def test_recurrence_dominates(self):
        kernel = _n_loads(1, with_recurrence=True)
        mii, res, rec = compute_mii(kernel.ddg, unified())
        assert mii == rec == 2


class TestEdgeLatency:
    def test_flow_uses_producer_latency(self):
        kernel = _n_loads(1)
        machine = unified()
        op = kernel.loop.operation("ld0")
        assert edge_latency(op, "flow", machine) == machine.latency(op.opclass)

    def test_anti_is_zero(self):
        kernel = _n_loads(1)
        op = kernel.loop.operation("ld0")
        assert edge_latency(op, "anti", unified()) == 0

    def test_output_and_mem_are_one(self):
        kernel = _n_loads(1)
        op = kernel.loop.operation("ld0")
        assert edge_latency(op, "output", unified()) == 1
        assert edge_latency(op, "mem", unified()) == 1

    def test_latency_of_override(self):
        kernel = _n_loads(1)
        op = kernel.loop.operation("ld0")
        assert edge_latency(op, "flow", unified(), latency_of=lambda _o: 42) == 42


# ----------------------------------------------------------------------
# Property tests over a random sample of experiment-grid cells
# ----------------------------------------------------------------------
_PROPERTY_ANALYZER = SamplingCME(max_points=64)

_MACHINES = {
    "unified": unified(),
    "2-cluster": two_cluster(),
    "4-cluster": four_cluster(),
    "2-cluster-unbounded": two_cluster(
        register_bus=BusConfig(count=None, latency=2),
        memory_bus=BusConfig(count=None, latency=1),
    ),
    "4-cluster-slow-bus": four_cluster(
        memory_bus=BusConfig(count=2, latency=4),
    ),
}

cell_strategy = st.tuples(
    st.sampled_from(("su2cor", "applu")),
    st.sampled_from(sorted(_MACHINES)),
    st.sampled_from(("baseline", "rmca")),
    st.sampled_from((0.0, 0.25, 0.5, 0.75, 1.0)),
)


class TestCellInvariantProperties:
    """Scheduler invariants over a random cell sample (II/MII, cycles)."""

    @given(cell=cell_strategy)
    @settings(max_examples=12, deadline=None)
    def test_ii_bounds_and_cycle_decomposition(self, cell):
        kernel_name, machine_name, scheduler, threshold = cell
        result = reference_cell(
            kernel_by_name(kernel_name),
            _MACHINES[machine_name],
            scheduler,
            threshold,
            _PROPERTY_ANALYZER,
        )
        schedule = result.schedule
        # The achieved II can never beat the MII lower bound, and the
        # MII is the max of its resource and recurrence components.
        assert schedule.ii >= schedule.mii >= 1
        assert schedule.mii == max(schedule.res_mii, schedule.rec_mii)
        # Cycle accounting: compute is the static modulo-schedule
        # formula, stalls are non-negative, and the components add up.
        simulation = result.simulation
        assert simulation.compute_cycles == schedule.compute_cycles(
            simulation.n_iterations, simulation.n_times
        )
        assert simulation.stall_cycles >= 0
        assert (
            simulation.compute_cycles + simulation.stall_cycles
            == simulation.total_cycles
        )
        assert simulation.as_dict()["total_cycles"] == result.total_cycles
