"""Node ordering for the unified assign-and-schedule pass.

The paper (Section 4.3) reuses the ordering of Sánchez & González [22],
which in turn follows the Swing-Modulo-Scheduling ordering: it "minimizes
the number of nodes that have both predecessors and successors in the set
of nodes that precede it in the order", so each node is placed adjacent to
already-ordered neighbours and recurrences are handled first.

The algorithm:

1. Compute ASAP/ALAP times at ``II = MII`` (ignoring resource limits),
   giving every node a *depth* (ASAP), *height* (distance to the sink,
   i.e. ``ALAP_max - ALAP``) and *mobility* (ALAP - ASAP).
2. Build priority sets: strongly connected components with cycles sorted
   by decreasing RecMII, each augmented with the nodes on paths from
   previously ordered sets; the remaining nodes form the last set.
3. Order each set by alternating top-down / bottom-up sweeps, picking the
   highest-height (top-down) or highest-depth (bottom-up) candidate, with
   mobility as the tie-break.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Set, Tuple

from ..ir.ddg import DependenceGraph
from ..machine.config import MachineConfig
from .mii import edge_latency

__all__ = ["NodeTimes", "compute_times", "sms_order"]


class NodeTimes:
    """ASAP / ALAP / mobility / depth / height per node at a given II."""

    def __init__(
        self,
        asap: Dict[str, int],
        alap: Dict[str, int],
    ):
        self.asap = asap
        self.alap = alap
        horizon = max(alap.values(), default=0)
        self.mobility = {n: alap[n] - asap[n] for n in asap}
        self.depth = dict(asap)
        self.height = {n: horizon - alap[n] for n in alap}

    def critical_path_length(self) -> int:
        return max(self.alap.values(), default=0)


def compute_times(
    ddg: DependenceGraph, machine: MachineConfig, ii: int
) -> NodeTimes:
    """Longest-path ASAP/ALAP with loop-carried edges relaxed by ``ii``.

    Edges are weighted ``latency - ii*distance``; at ``ii >= RecMII``
    every cycle has non-positive weight, so iterating relaxations to a
    fixed point terminates.
    """
    nodes = ddg.nodes()
    asap = {n: 0 for n in nodes}
    edges = [
        (
            e.src,
            e.dst,
            edge_latency(ddg.op(e.src), e.kind, machine) - ii * e.distance,
        )
        for e in ddg.edges()
    ]
    for _ in range(len(nodes) + 1):
        changed = False
        for src, dst, weight in edges:
            candidate = asap[src] + weight
            if candidate > asap[dst]:
                asap[dst] = candidate
                changed = True
        if not changed:
            break
    else:  # pragma: no cover - guarded by RecMII precondition
        raise ValueError("positive cycle: ii below RecMII")
    floor = min(asap.values(), default=0)
    if floor < 0:
        asap = {n: t - floor for n, t in asap.items()}
    horizon = max(asap.values(), default=0)
    alap = {n: horizon for n in nodes}
    for _ in range(len(nodes) + 1):
        changed = False
        for src, dst, weight in edges:
            candidate = alap[dst] - weight
            if candidate < alap[src]:
                alap[src] = candidate
                changed = True
        if not changed:
            break
    return NodeTimes(asap, alap)


def _scc_rec_mii(
    ddg: DependenceGraph, component: Set[str], machine: MachineConfig
) -> float:
    """RecMII restricted to one strongly connected component.

    Between two nodes a cycle takes the edge with the largest latency,
    then the smallest distance; zero-distance cycles are skipped.
    """
    heaviest: Dict[Tuple[str, str], Tuple[int, int]] = {}
    for src in component:
        for e in ddg.out_edges(src):
            if e.dst in component:
                weight = (edge_latency(ddg.op(src), e.kind, machine), -e.distance)
                pair = (src, e.dst)
                heaviest[pair] = max(heaviest.get(pair, weight), weight)
    best = 0.0
    for cycle in ddg.simple_cycles(component):
        lat = 0
        dist = 0
        ring = cycle + [cycle[0]]
        for pair in zip(ring, ring[1:]):
            edge_lat, neg_dist = heaviest[pair]
            lat += edge_lat
            dist -= neg_dist
        if dist > 0:
            best = max(best, lat / dist)
    return best


def _priority_sets(
    ddg: DependenceGraph, machine: MachineConfig
) -> List[Set[str]]:
    """Recurrence components (hardest first) padded with path nodes.

    Components with equal RecMII keep their discovery order (a stable
    sort).  A component is padded with every node on a directed path
    between it and the nodes already covered, in either direction.
    """
    comps = [(_scc_rec_mii(ddg, c, machine), c) for c in ddg.recurrences()]
    comps.sort(key=lambda item: -item[0])
    down: Dict[str, Set[str]] = {}
    up: Dict[str, Set[str]] = {}
    sets: List[Set[str]] = []
    covered: Set[str] = set()
    for _, component in comps:
        members = set(component)
        for prior in covered:
            for node in component:
                for src, dst in ((prior, node), (node, prior)):
                    reach = _closure(down, src, ddg.successors)
                    if dst in reach:
                        members |= reach & _closure(up, dst, ddg.predecessors)
        members -= covered
        if members:
            sets.append(members)
            covered |= members
    rest = set(ddg.nodes()) - covered
    if rest:
        sets.append(rest)
    return sets


def _closure(
    memo: Dict[str, Set[str]], node: str, step: Callable[[str], Set[str]]
) -> Set[str]:
    """``node`` and every node ``step`` reaches from it, memoized."""
    found = memo.get(node)
    if found is None:
        found = {node}
        frontier = [node]
        while frontier:
            for nxt in step(frontier.pop()):
                if nxt not in found:
                    found.add(nxt)
                    frontier.append(nxt)
        memo[node] = found
    return found


def sms_order(
    ddg: DependenceGraph,
    machine: MachineConfig,
    mii: int,
) -> List[str]:
    """Compute the scheduling order of the operations.

    Returns all node names; every node appears exactly once.
    """
    times = compute_times(ddg, machine, max(1, mii))
    ordered: List[str] = []
    placed: Set[str] = set()
    for node_set in _priority_sets(ddg, machine):
        _order_set(ddg, node_set, times, ordered, placed)
    return ordered


def _order_set(
    ddg: DependenceGraph,
    node_set: Set[str],
    times: NodeTimes,
    ordered: List[str],
    placed: Set[str],
) -> None:
    remaining = set(node_set)
    while remaining:
        succ_ready = {
            n for n in remaining if ddg.predecessors(n) & placed
        }
        pred_ready = {
            n for n in remaining if ddg.successors(n) & placed
        }
        if succ_ready and not pred_ready:
            direction = "top-down"
            frontier = succ_ready
        elif pred_ready and not succ_ready:
            direction = "bottom-up"
            frontier = pred_ready
        elif succ_ready and pred_ready:
            direction = "top-down"
            frontier = succ_ready | pred_ready
        else:
            # Fresh set: seed with the node of least mobility (the most
            # constrained one, typically on the critical path).
            direction = "top-down"
            frontier = remaining
        node = _pick(frontier, times, direction)
        ordered.append(node)
        placed.add(node)
        remaining.discard(node)


def _pick(frontier: Set[str], times: NodeTimes, direction: str) -> str:
    if direction == "top-down":
        # Highest height first (deep chains early); mobility breaks ties.
        key = lambda n: (-times.height[n], times.mobility[n], n)
    else:
        key = lambda n: (-times.depth[n], times.mobility[n], n)
    return min(frontier, key=key)
