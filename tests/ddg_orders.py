"""The order in which the dependence graph and the SMS ordering walk.

Placement windows, comm allocation, executor flows and loop unrolling
read the graph's edges in sequence, and ``_priority_sets`` breaks RecMII
ties by the discovery order of the strongly connected components (a
stable sort).  So the graph's iteration order is part of what a
schedule is, even where no figure shows it.
``tests/data/ddg_orders.txt`` pins it, one row per graph:

* the strongly connected components in discovery order;
* ``_scc_rec_mii`` of each recurrence component, in that order;
* ``nodes_on_recurrences()``;
* ``_priority_sets``;
* ``sms_order`` at the MII on ``unified``, ``two_cluster`` and
  ``four_cluster``;
* a digest of the ``edges()``, ``in_edges()`` and ``out_edges()``
  sequences.

Nodes are written as their program-order index.  The graphs are every
SPEC, DSP, streaming-long and motivating kernel, ``random_kernel(seed)``
for ``PLAIN_SEEDS``, and ``random_kernel(seed)`` plus one to five seeded
loop-carried extra edges for ``AUGMENTED_SEEDS``.  Plain kernels almost
never hold two recurrence components, so only the augmented graphs
exercise the tie-break.  ``tests/test_ddg_order_table.py`` holds a run
to the table.

Like the golden figures, the table changes only on purpose: when a
change is meant to reorder the graph or the SMS ordering, regenerate it
with ::

    PYTHONPATH=src python tests/ddg_orders.py

and commit the new table with the change that moved it.
"""

from __future__ import annotations

import hashlib
import pathlib
import random
from typing import Iterator, List, Tuple

from repro.ir.builder import Kernel
from repro.ir.ddg import DepEdge, DependenceGraph
from repro.machine import four_cluster, two_cluster, unified
from repro.scheduler.mii import compute_mii
from repro.scheduler.ordering import _priority_sets, _scc_rec_mii, sms_order
from repro.workloads import (
    DSP_KERNELS,
    SPEC_KERNELS,
    motivating_kernel,
    random_kernel,
)
from repro.workloads.suite import STREAMING_LONG_KERNELS

TABLE = pathlib.Path(__file__).parent / "data" / "ddg_orders.txt"

PLAIN_SEEDS = range(400)
AUGMENTED_SEEDS = range(1000)
MACHINES = (unified(), two_cluster(), four_cluster())

HEADER = (
    "# graph | sccs | rec_mii | on_recurrences | priority_sets"
    " | sms unified | sms 2-cluster | sms 4-cluster | edge-order digest"
    "  (nodes by program index, '.' within a set)"
)


def augmented(seed: int) -> Kernel:
    """``random_kernel(seed)`` plus 1-5 seeded loop-carried edges."""
    kernel = random_kernel(seed)
    rng = random.Random(seed)
    names = kernel.ddg.nodes()
    for _ in range(rng.randint(1, 5)):
        kernel.ddg.add_edge(
            DepEdge(
                rng.choice(names),
                rng.choice(names),
                rng.choice(("flow", "anti", "output", "mem")),
                rng.randint(1, 3),
            )
        )
    return kernel


def graphs() -> Iterator[Tuple[str, DependenceGraph]]:
    """Every graph the table covers, in table order."""
    for registry in (SPEC_KERNELS, DSP_KERNELS, STREAMING_LONG_KERNELS):
        for name, factory in registry.items():
            yield name, factory().ddg
    yield "motivating", motivating_kernel().ddg
    for seed in PLAIN_SEEDS:
        yield f"rand{seed}", random_kernel(seed).ddg
    for seed in AUGMENTED_SEEDS:
        yield f"rand{seed}+", augmented(seed).ddg


def _row(name: str, ddg: DependenceGraph) -> str:
    index = {node: i for i, node in enumerate(ddg.nodes())}

    def group(nodes) -> str:
        return ".".join(str(i) for i in sorted(index[n] for n in nodes)) or "-"

    def groups(sets) -> str:
        return " ".join(group(s) for s in sets) or "-"

    sccs = ddg.strongly_connected_components()
    recurrences = [
        c for c in sccs
        if len(c) > 1
        or any(e.src == e.dst for n in c for e in ddg.out_edges(n))
    ]
    rec_mii = " ".join(
        repr(_scc_rec_mii(ddg, c, MACHINES[1])) for c in recurrences
    ) or "-"
    orders = [
        " ".join(
            str(index[n])
            for n in sms_order(ddg, machine, compute_mii(ddg, machine)[0])
        )
        for machine in MACHINES
    ]
    digest = hashlib.sha256(
        repr(
            (
                ddg.edges(),
                [(ddg.in_edges(n), ddg.out_edges(n)) for n in ddg.nodes()],
            )
        ).encode()
    ).hexdigest()[:16]
    return " | ".join(
        [
            name,
            groups(sccs),
            rec_mii,
            group(ddg.nodes_on_recurrences()),
            groups(_priority_sets(ddg, MACHINES[1])),
            *orders,
            digest,
        ]
    )


def collect() -> List[str]:
    """One row per graph, in table order."""
    return [_row(name, ddg) for name, ddg in graphs()]


def recorded() -> List[str]:
    """The committed table's rows."""
    return [
        line
        for line in TABLE.read_text().splitlines()
        if line and not line.startswith("#")
    ]


if __name__ == "__main__":
    rows = collect()
    TABLE.parent.mkdir(exist_ok=True)
    TABLE.write_text("\n".join([HEADER, *rows]) + "\n")
    print(f"wrote {len(rows)} rows to {TABLE}")
