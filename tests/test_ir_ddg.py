"""Unit tests for repro.ir.ddg."""

import pytest

from repro.ir.ddg import DepEdge, DependenceGraph, build_ddg
from repro.ir.loop import Loop, LoopDim
from repro.ir.operations import OpClass, Operation
from repro.ir.references import AffineExpr, Array, ArrayReference
from repro.machine import two_cluster
from repro.scheduler.ordering import _scc_rec_mii


def _chain_loop():
    """ld -> mul -> add -> st with registers."""
    a = Array("A", (64,))
    refs = (
        ArrayReference(a, (AffineExpr.of(0, i=1),)),
        ArrayReference(a, (AffineExpr.of(0, i=1),), is_store=True),
    )
    ops = (
        Operation("ld", OpClass.LOAD, dest="v", ref_index=0),
        Operation("mul", OpClass.FMUL, dest="w", srcs=("v", "v")),
        Operation("add", OpClass.FADD, dest="x", srcs=("w", "v")),
        Operation("st", OpClass.STORE, srcs=("x",), ref_index=1),
    )
    return Loop("chain", (LoopDim("i", 0, 16),), ops, refs)


class TestDepEdge:
    def test_invalid_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown dependence kind"):
            DepEdge("a", "b", "bogus")

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            DepEdge("a", "b", "flow", distance=-1)

    def test_valid_kinds(self):
        for kind in ("flow", "anti", "output", "mem"):
            assert DepEdge("a", "b", kind).kind == kind


class TestDependenceGraph:
    def test_edge_endpoints_must_exist(self):
        graph = DependenceGraph(_chain_loop())
        with pytest.raises(KeyError):
            graph.add_edge(DepEdge("ld", "nope", "flow"))

    def test_nodes_in_program_order(self):
        graph = DependenceGraph(_chain_loop())
        assert graph.nodes() == ["ld", "mul", "add", "st"]

    def test_multigraph_keeps_parallel_edges(self):
        graph = DependenceGraph(_chain_loop())
        graph.add_edge(DepEdge("ld", "mul", "flow", 0))
        graph.add_edge(DepEdge("ld", "mul", "anti", 1))
        assert graph.n_edges == 2

    def test_in_out_edges(self):
        graph = build_ddg(_chain_loop())
        assert {e.src for e in graph.in_edges("add")} == {"mul", "ld"}
        assert {e.dst for e in graph.out_edges("ld")} == {"mul", "add"}

    def test_register_edges_are_flow_only(self):
        graph = build_ddg(_chain_loop(), [DepEdge("st", "ld", "mem", 1)])
        kinds = {e.kind for e in graph.register_edges()}
        assert kinds == {"flow"}

    def test_crossing_register_edges(self):
        graph = build_ddg(_chain_loop())
        crossing = graph.crossing_register_edges(
            {"ld": 0, "mul": 1, "add": 0, "st": 0}
        )
        pairs = {(e.src, e.dst) for e in crossing}
        assert pairs == {("ld", "mul"), ("mul", "add")}

    def test_crossing_ignores_unassigned(self):
        graph = build_ddg(_chain_loop())
        assert graph.crossing_register_edges({"ld": 0}) == []

    def test_no_recurrence_in_dag(self):
        graph = build_ddg(_chain_loop())
        assert not graph.has_recurrences()
        assert graph.nodes_on_recurrences() == set()

    def test_recurrence_detection(self):
        graph = build_ddg(
            _chain_loop(), [DepEdge("add", "mul", "flow", 1)]
        )
        assert graph.has_recurrences()
        assert graph.nodes_on_recurrences() == {"mul", "add"}

    def test_self_loop_recurrence(self):
        loop_edge = DepEdge("add", "add", "flow", 2)
        graph = build_ddg(_chain_loop(), [loop_edge])
        assert "add" in graph.nodes_on_recurrences()
        assert graph.recurrences() == [{"add"}]
        assert list(graph.simple_cycles({"add"})) == [["add"]]
        assert graph.in_edges("add")[-1] is loop_edge
        assert graph.out_edges("add")[-1] is loop_edge
        machine = two_cluster()
        assert _scc_rec_mii(graph, {"add"}, machine) == (
            machine.latency(OpClass.FADD) / 2
        )

    def test_parallel_edges_trade_latency_against_distance(self):
        # Between two nodes a cycle takes the edge with the largest
        # latency, then the smallest distance.  With only the distance-3
        # flow edge and the anti edge, the flow edge wins although the
        # zero-latency anti edge would give the larger ratio.
        far = DepEdge("add", "mul", "flow", 3)
        free = DepEdge("add", "mul", "anti", 1)
        near = DepEdge("add", "mul", "flow", 1)
        machine = two_cluster()
        fmul = machine.latency(OpClass.FMUL)
        loop_latency = fmul + machine.latency(OpClass.FADD)
        graph = build_ddg(_chain_loop(), [far, free])
        assert fmul / 1 > loop_latency / 3
        assert _scc_rec_mii(graph, {"mul", "add"}, machine) == loop_latency / 3
        graph.add_edge(near)
        assert graph.out_edges("add")[1:] == (far, free, near)
        assert graph.in_edges("mul")[-3:] == (far, free, near)
        assert _scc_rec_mii(graph, {"mul", "add"}, machine) == loop_latency / 1

    def test_zero_latency_anti_cycle(self):
        # Anti edges cost no latency: the cycle is a recurrence with a
        # RecMII of 0, and with zero total distance it is skipped.
        a = Array("A", (8,))
        ref = ArrayReference(a, (AffineExpr.of(0, i=1),))
        ops = (
            Operation("ld1", OpClass.LOAD, dest="u", ref_index=0),
            Operation("ld2", OpClass.LOAD, dest="v", ref_index=0),
        )
        loop = Loop("anti", (LoopDim("i", 0, 4),), ops, (ref,))
        for back in (1, 0):
            graph = build_ddg(
                loop,
                [DepEdge("ld1", "ld2", "anti", 0),
                 DepEdge("ld2", "ld1", "anti", back)],
            )
            assert graph.recurrences() == [{"ld1", "ld2"}]
            assert list(graph.simple_cycles({"ld1", "ld2"})) == [["ld1", "ld2"]]
            assert _scc_rec_mii(graph, {"ld1", "ld2"}, two_cluster()) == 0.0

    def test_edges_grouped_by_source_in_first_edge_order(self):
        graph = build_ddg(
            _chain_loop(),
            [DepEdge("ld", "st", "mem", 1), DepEdge("ld", "mul", "anti", 1)],
        )
        pairs = [(e.src, e.dst, e.kind) for e in graph.edges()]
        assert pairs == [
            ("ld", "mul", "flow"), ("ld", "mul", "flow"),
            ("ld", "mul", "anti"), ("ld", "add", "flow"),
            ("ld", "st", "mem"), ("mul", "add", "flow"),
            ("add", "st", "flow"),
        ]

    def test_components_in_discovery_order(self):
        graph = build_ddg(_chain_loop())
        assert graph.strongly_connected_components() == [
            {"st"}, {"add"}, {"mul"}, {"ld"},
        ]
        graph.add_edge(DepEdge("st", "mul", "mem", 1))
        assert graph.strongly_connected_components() == [
            {"mul", "add", "st"}, {"ld"},
        ]

    def test_simple_cycles_each_once(self):
        graph = build_ddg(_chain_loop(), [DepEdge("st", "ld", "mem", 1)])
        cycles = sorted(tuple(c) for c in graph.simple_cycles(set(graph.nodes())))
        assert cycles == [("ld", "add", "st"), ("ld", "mul", "add", "st")]


class TestBuildDdg:
    def test_flow_edges_from_def_use(self):
        graph = build_ddg(_chain_loop())
        flows = {(e.src, e.dst) for e in graph.register_edges()}
        assert ("ld", "mul") in flows
        assert ("mul", "add") in flows
        assert ("ld", "add") in flows
        assert ("add", "st") in flows

    def test_output_dependence_on_redefinition(self):
        a = Array("A", (8,))
        ref = ArrayReference(a, (AffineExpr.of(0, i=1),))
        ops = (
            Operation("ld1", OpClass.LOAD, dest="v", ref_index=0),
            Operation("ld2", OpClass.LOAD, dest="v", ref_index=0),
        )
        loop = Loop("redef", (LoopDim("i", 0, 4),), ops, (ref,))
        graph = build_ddg(loop)
        kinds = {(e.src, e.dst, e.kind) for e in graph.edges()}
        assert ("ld1", "ld2", "output") in kinds

    def test_extra_edges_appended(self):
        graph = build_ddg(_chain_loop(), [DepEdge("st", "ld", "mem", 1)])
        assert any(e.kind == "mem" for e in graph.edges())
