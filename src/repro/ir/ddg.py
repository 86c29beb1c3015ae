"""Data-dependence graph for modulo scheduling.

Nodes are operation names; edges carry

* ``kind`` — ``"flow"`` (true register dependence), ``"anti"``, ``"output"``
  or ``"mem"`` (memory ordering),
* ``distance`` — iteration distance (0 for intra-iteration dependences,
  >0 for loop-carried recurrences).

Edge *latency* is resolved against a machine model at scheduling time
(``latency(producer_opclass)`` for flow edges, 1 for the others), so the
DDG itself stays machine-independent.

Multiple dependences between the same pair of operations (e.g. a flow
edge at distance 0 and an anti edge at distance 1) are all kept.  Every
walk of the graph has one fixed order: nodes in program order, a node's
successors (or predecessors) in the order of their first edge, parallel
edges in insertion order.  Readers depend on it: the schedulers'
placement windows and comm allocation read in/out edges in sequence, the
executor collects flow operands and loop unrolling replicates edges in
``edges()`` order, and the SMS ordering breaks RecMII ties by the
discovery order of :meth:`DependenceGraph.strongly_connected_components`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Set, Tuple

from .loop import Loop
from .operations import Operation

__all__ = ["DepEdge", "DependenceGraph", "build_ddg"]

_REGISTER_KINDS = ("flow",)
_VALID_KINDS = ("flow", "anti", "output", "mem")


@dataclass(frozen=True)
class DepEdge:
    """One dependence: ``dst`` must wait for ``src`` (modulo distance)."""

    src: str
    dst: str
    kind: str
    distance: int = 0

    def __post_init__(self) -> None:
        if self.kind not in _VALID_KINDS:
            raise ValueError(f"unknown dependence kind {self.kind!r}")
        if self.distance < 0:
            raise ValueError("dependence distance cannot be negative")


class DependenceGraph:
    """DDG over a loop's operations."""

    def __init__(self, loop: Loop, edges: Optional[List[DepEdge]] = None):
        self.loop = loop
        # Insertion-ordered adjacency: src -> dst -> [edges], and its
        # mirror dst -> src -> the same list.  Both key every node in
        # program order and a node's neighbours in first-edge order.
        self._succ: Dict[str, Dict[str, List[DepEdge]]] = {
            op.name: {} for op in loop.operations
        }
        self._pred: Dict[str, Dict[str, List[DepEdge]]] = {
            op.name: {} for op in loop.operations
        }
        # Lazy flattened views: the schedulers query in/out edges on every
        # placement attempt.  They are invalidated by add_edge and handed
        # out as tuples so no caller can corrupt them.
        self._edge_cache: Optional[Tuple[DepEdge, ...]] = None
        self._in_cache: Optional[Dict[str, Tuple[DepEdge, ...]]] = None
        self._out_cache: Optional[Dict[str, Tuple[DepEdge, ...]]] = None
        #: ``(loop, fingerprint)`` memo of
        #: :func:`repro.engine.stagestore.kernel_fingerprint`, dropped by
        #: add_edge like the caches above.
        self._fingerprint: Optional[Tuple[Loop, str]] = None
        for edge in edges or []:
            self.add_edge(edge)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_edge(self, edge: DepEdge) -> None:
        """Insert a dependence edge (endpoints must be loop operations)."""
        for end in (edge.src, edge.dst):
            if end not in self._succ:
                raise KeyError(f"operation {end!r} is not in the loop")
        bundle = self._succ[edge.src].get(edge.dst)
        if bundle is None:
            bundle = self._succ[edge.src][edge.dst] = []
            self._pred[edge.dst][edge.src] = bundle
        bundle.append(edge)
        self._edge_cache = None
        self._in_cache = None
        self._out_cache = None
        self._fingerprint = None

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        return len(self._succ)

    @property
    def n_edges(self) -> int:
        return len(self.edges())

    def op(self, name: str) -> Operation:
        """Operation object for a node name."""
        return self.loop.operation(name)

    def nodes(self) -> List[str]:
        """All node names (program order of the loop body)."""
        return [op.name for op in self.loop.operations]

    def edges(self) -> Tuple[DepEdge, ...]:
        """All dependence edges (cached): by source in program order, then
        by target in first-edge order, parallel edges as inserted."""
        if self._edge_cache is None:
            self._edge_cache = tuple(
                edge
                for targets in self._succ.values()
                for bundle in targets.values()
                for edge in bundle
            )
        return self._edge_cache

    def _build_adjacency(self) -> None:
        def flatten(adjacency):
            return {
                name: tuple(e for bundle in ends.values() for e in bundle)
                for name, ends in adjacency.items()
            }

        self._in_cache = flatten(self._pred)
        self._out_cache = flatten(self._succ)

    def in_edges(self, name: str) -> Tuple[DepEdge, ...]:
        """Dependences that must be satisfied before ``name`` issues."""
        if self._in_cache is None:
            self._build_adjacency()
        return self._in_cache[name]

    def out_edges(self, name: str) -> Tuple[DepEdge, ...]:
        """Dependences carried from ``name`` to its consumers."""
        if self._out_cache is None:
            self._build_adjacency()
        return self._out_cache[name]

    def predecessors(self, name: str) -> Set[str]:
        return set(self._pred[name])

    def successors(self, name: str) -> Set[str]:
        return set(self._succ[name])

    def register_edges(self) -> Iterator[DepEdge]:
        """Flow edges only — the ones that cost inter-cluster bus traffic."""
        for edge in self.edges():
            if edge.kind in _REGISTER_KINDS:
                yield edge

    def crossing_register_edges(
        self, assignment: Dict[str, int]
    ) -> List[DepEdge]:
        """Flow edges whose endpoints sit in different clusters.

        ``assignment`` maps (a subset of) op names to cluster ids; edges
        with an unassigned endpoint are ignored.  This is the quantity the
        baseline scheduler's output-edge heuristic minimizes.
        """
        crossing = []
        for edge in self.register_edges():
            src_cluster = assignment.get(edge.src)
            dst_cluster = assignment.get(edge.dst)
            if src_cluster is None or dst_cluster is None:
                continue
            if src_cluster != dst_cluster:
                crossing.append(edge)
        return crossing

    # ------------------------------------------------------------------
    # Cycle analysis (RecMII support)
    # ------------------------------------------------------------------
    def strongly_connected_components(self) -> List[Set[str]]:
        """Strongly connected components in discovery order.

        Iterative Tarjan: DFS roots in program order, successors in
        first-edge order, each component emitted when its root finishes.
        """
        index: Dict[str, int] = {}
        low: Dict[str, int] = {}
        stack: List[str] = []
        on_stack: Set[str] = set()
        found: List[Set[str]] = []
        for root in self._succ:
            if root in index:
                continue
            index[root] = low[root] = len(index)
            stack.append(root)
            on_stack.add(root)
            work = [(root, iter(self._succ[root]))]
            while work:
                node, targets = work[-1]
                for target in targets:
                    if target not in index:
                        index[target] = low[target] = len(index)
                        stack.append(target)
                        on_stack.add(target)
                        work.append((target, iter(self._succ[target])))
                        break
                    if target in on_stack:
                        low[node] = min(low[node], index[target])
                else:
                    work.pop()
                    if work:
                        parent = work[-1][0]
                        low[parent] = min(low[parent], low[node])
                    if low[node] == index[node]:
                        component = set()
                        while node not in component:
                            member = stack.pop()
                            on_stack.discard(member)
                            component.add(member)
                        found.append(component)
        return found

    def recurrences(self) -> List[Set[str]]:
        """Components that hold a dependence cycle (more than one node, or
        a self-loop), in discovery order."""
        return [
            component
            for component in self.strongly_connected_components()
            if len(component) > 1
            or any(node in self._succ[node] for node in component)
        ]

    def simple_cycles(self, nodes: Set[str]) -> Iterator[List[str]]:
        """Elementary cycles of the subgraph induced by ``nodes``, each once.

        Johnson's blocking search, rooted in turn at each node in program
        order over the nodes after it; a self-loop is a one-node cycle.
        """
        order = [name for name in self._succ if name in nodes]
        for rank, start in enumerate(order):
            allowed = set(order[rank:])
            succ = {
                name: [t for t in self._succ[name] if t in allowed]
                for name in allowed
            }
            blocked = {start}
            waiting: Dict[str, Set[str]] = {name: set() for name in allowed}
            path = [start]
            closed = [False]
            work = [iter(succ[start])]
            while work:
                for target in work[-1]:
                    if target == start:
                        yield list(path)
                        closed[-1] = True
                    elif target not in blocked:
                        blocked.add(target)
                        path.append(target)
                        closed.append(False)
                        work.append(iter(succ[target]))
                        break
                else:
                    work.pop()
                    node = path.pop()
                    if closed.pop():
                        if closed:
                            closed[-1] = True
                        release = [node]
                        while release:
                            name = release.pop()
                            if name in blocked:
                                blocked.discard(name)
                                release.extend(waiting[name])
                                waiting[name].clear()
                    else:
                        for target in succ[node]:
                            waiting[target].add(node)

    def has_recurrences(self) -> bool:
        """True when at least one dependence cycle exists."""
        return bool(self.recurrences())

    def nodes_on_recurrences(self) -> Set[str]:
        """Operations that belong to some dependence cycle."""
        return set().union(*self.recurrences())

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DependenceGraph({self.loop.name}: "
            f"{self.n_nodes} nodes, {self.n_edges} edges)"
        )


def build_ddg(loop: Loop, extra_edges: Optional[List[DepEdge]] = None) -> DependenceGraph:
    """Construct the DDG from register names plus explicit extra edges.

    Intra-iteration flow dependences are inferred from register
    def-use chains of the body in program order.  Loop-carried register
    recurrences and memory dependences cannot be inferred from names alone
    and are supplied through ``extra_edges`` (the builder DSL generates
    them).
    """
    graph = DependenceGraph(loop)
    last_def: Dict[str, str] = {}
    for op in loop.operations:
        for src in op.srcs:
            producer = last_def.get(src)
            if producer is not None:
                graph.add_edge(DepEdge(producer, op.name, "flow", 0))
        if op.dest is not None:
            prior = last_def.get(op.dest)
            if prior is not None:
                graph.add_edge(DepEdge(prior, op.name, "output", 0))
            last_def[op.dest] = op.name
    for edge in extra_edges or []:
        graph.add_edge(edge)
    return graph
