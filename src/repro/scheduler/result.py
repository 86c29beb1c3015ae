"""Schedule result objects.

A :class:`Schedule` is the scheduler's output and the simulator's input:
per-operation placements (cluster, absolute time, assumed latency) plus
the inter-cluster register communications the schedule commits to.
Its :class:`ScheduleBody` is the same decisions without the kernel and
machine they were made for: the stage store keeps bodies, and the
execution planner attaches each to its own kernel and to every cell
machine that shares the machine's scheduling view.

A schedule's fingerprint has two levels: :meth:`Schedule.digest`
hashes the machine-free decisions once, where the schedule is made,
and :meth:`Schedule.fingerprint` combines that digest with a machine's
canonical encoding through a process-wide memo, so attaching a body to
another machine never hashes a loop or a placement again.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..ir.builder import Kernel
from ..ir.operations import Operation
from ..machine.config import MachineConfig

__all__ = [
    "Placement",
    "Communication",
    "Schedule",
    "ScheduleBody",
    "SchedulingError",
]


class SchedulingError(RuntimeError):
    """Raised when no feasible schedule exists up to the II limit."""


# Unbounded, like ``machine_from_key``: one entry per decisions and
# machine pair the process fingerprints, a digest and a machine key.
@functools.lru_cache(maxsize=None)
def _fingerprint(digest: str, machine_key: str) -> str:
    """:meth:`Schedule.fingerprint` of decisions with ``digest`` on the
    machine whose canonical encoding is ``machine_key``."""
    return hashlib.sha256(
        f"{digest}\n{machine_key}".encode("utf-8")
    ).hexdigest()


@dataclass(frozen=True)
class Placement:
    """Where and when one operation executes.

    ``assumed_latency`` is the latency the scheduler promised consumers:
    the hit latency normally, or the full miss latency when the load was
    binding-prefetched (Section 4.3).
    """

    op: str
    cluster: int
    time: int
    assumed_latency: int


@dataclass(frozen=True)
class Communication:
    """One static inter-cluster register transfer.

    The transfer repeats every II cycles at ``start`` (absolute schedule
    time of its first instance) and keeps its bus busy for ``latency``
    cycles; the value arrives at ``start + latency``.
    """

    producer: str
    src_cluster: int
    dst_cluster: int
    bus: int
    start: int
    latency: int

    @property
    def arrival(self) -> int:
        return self.start + self.latency


@dataclass
class Schedule:
    """A complete modulo schedule for one kernel on one machine."""

    kernel: Kernel
    machine: MachineConfig
    ii: int
    placements: Dict[str, Placement]
    communications: List[Communication] = field(default_factory=list)
    mii: int = 0
    res_mii: int = 0
    rec_mii: int = 0
    scheduler_name: str = ""
    threshold: float = 1.0

    # ------------------------------------------------------------------
    @property
    def stage_count(self) -> int:
        """SC: how many iterations overlap in the kernel."""
        if not self.placements:
            return 1
        last = max(p.time for p in self.placements.values())
        return last // self.ii + 1

    def stage_of(self, op: str) -> int:
        return self.placements[op].time // self.ii

    def slot_of(self, op: str) -> int:
        return self.placements[op].time % self.ii

    @property
    def n_communications(self) -> int:
        return len(self.communications)

    def comms_per_iteration(self) -> float:
        """Average register-bus transfers per kernel iteration."""
        return float(len(self.communications))

    def cluster_of(self, op: str) -> int:
        return self.placements[op].cluster

    def cluster_assignment(self) -> Dict[str, int]:
        return {name: p.cluster for name, p in self.placements.items()}

    def ops_in_cluster(self, cluster: int) -> List[Operation]:
        loop = self.kernel.loop
        return [
            loop.operation(name)
            for name, p in self.placements.items()
            if p.cluster == cluster
        ]

    def memory_ops_in_cluster(self, cluster: int) -> List[Operation]:
        return [op for op in self.ops_in_cluster(cluster) if op.is_memory]

    def prefetched_loads(self) -> List[str]:
        """Loads scheduled with the miss latency."""
        result = []
        for name, placement in self.placements.items():
            op = self.kernel.loop.operation(name)
            if op.is_load and placement.assumed_latency > self.machine.latency(op.opclass):
                result.append(name)
        return result

    # ------------------------------------------------------------------
    def compute_cycles(self, n_iterations: int, n_times: int = 1) -> int:
        """NCYCLE_compute = NTIMES * (NITER + SC - 1) * II (Section 2.2)."""
        return n_times * (n_iterations + self.stage_count - 1) * self.ii

    def digest(self) -> str:
        """Content hash of the decisions, without the machine: the
        kernel's loop (operations, references, bounds) and dependence
        graph, the II, and every placement and communication.  Computed
        once per schedule and carried by its :meth:`body`."""
        cached = self.__dict__.get("_digest")
        if cached is not None:
            return cached
        edges = sorted(
            (edge.src, edge.dst, edge.kind, edge.distance)
            for edge in self.kernel.ddg.edges()
        )
        payload = "\n".join(
            [
                repr(self.kernel.loop),
                repr(edges),
                str(self.ii),
                repr(
                    sorted(
                        (name, p.cluster, p.time, p.assumed_latency)
                        for name, p in self.placements.items()
                    )
                ),
                repr(
                    sorted(
                        (c.producer, c.src_cluster, c.dst_cluster,
                         c.bus, c.start, c.latency)
                        for c in self.communications
                    )
                ),
            ]
        )
        digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
        self._digest = digest
        return digest

    def fingerprint(self) -> str:
        """Content hash of everything the simulator reads from this
        schedule: the :meth:`digest` of its decisions and the full
        machine configuration.  ``scheduler_name`` and ``threshold`` are
        deliberately *excluded* — they label how the schedule was
        produced, not what it is, so cells whose schedules land
        byte-identical (e.g. neighbouring thresholds that move no load
        across the miss-ratio boundary) hash equal and can share
        content-addressed warm state.  The machine *is* included, memory
        buses and all, so cells sharing one schedule on machines with
        different bus counts never share a simulation.
        """
        cached = self.__dict__.get("_content_fingerprint")
        if cached is None:
            cached = _fingerprint(self.digest(), self.machine.canonical_json)
            self._content_fingerprint = cached
        return cached

    def body(self) -> "ScheduleBody":
        """What the scheduler decided, without the kernel and machine
        (digested first, so the body carries the hash)."""
        return ScheduleBody(
            ii=self.ii,
            placements=self.placements,
            communications=self.communications,
            mii=self.mii,
            res_mii=self.res_mii,
            rec_mii=self.rec_mii,
            scheduler_name=self.scheduler_name,
            threshold=self.threshold,
            digest=self.digest(),
        )

    def attach(self, kernel: Kernel, machine: MachineConfig) -> "Schedule":
        """These decisions on ``kernel`` (this schedule's, by content)
        and ``machine`` (one sharing this schedule's scheduling view):
        :meth:`ScheduleBody.attach` of this schedule's body."""
        return self.body().attach(kernel, machine)

    def validate(self) -> None:
        """Internal consistency checks (used heavily by the test suite).

        Verifies dependence constraints (including communication latency
        for cross-cluster flow edges), FU capacity and bounded-bus
        capacity modulo the II.
        """
        from .mii import edge_latency  # local import avoids a cycle

        loop = self.kernel.loop
        ddg = self.kernel.ddg
        missing = [op.name for op in loop.operations if op.name not in self.placements]
        if missing:
            raise AssertionError(f"unscheduled operations: {missing}")

        comms_by_key: Dict[Tuple[str, int], List[Communication]] = {}
        for comm in self.communications:
            comms_by_key.setdefault(
                (comm.producer, comm.dst_cluster), []
            ).append(comm)

        for edge in ddg.edges():
            src = self.placements[edge.src]
            dst = self.placements[edge.dst]
            producer = loop.operation(edge.src)
            lat = edge_latency(
                producer, edge.kind, self.machine,
                latency_of=lambda op: self.placements[op.name].assumed_latency,
            )
            slack = dst.time + self.ii * edge.distance - src.time
            if edge.kind == "flow" and src.cluster != dst.cluster:
                candidates = comms_by_key.get((edge.src, dst.cluster), [])
                ok = any(
                    c.start >= src.time + src.assumed_latency
                    and c.arrival <= dst.time + self.ii * edge.distance
                    for c in candidates
                )
                if not ok:
                    raise AssertionError(
                        f"flow edge {edge.src}->{edge.dst} crosses clusters "
                        f"without a timely communication"
                    )
            elif slack < lat:
                raise AssertionError(
                    f"dependence {edge.src}->{edge.dst} violated: "
                    f"slack {slack} < latency {lat}"
                )

        # FU capacity per modulo slot.
        usage: Dict[Tuple[int, int, str], int] = {}
        for name, placement in self.placements.items():
            op = loop.operation(name)
            key = (placement.time % self.ii, placement.cluster, op.fu_type.value)
            usage[key] = usage.get(key, 0) + 1
        from ..ir.operations import FUType

        for (slot, cluster, fu), used in usage.items():
            capacity = self.machine.cluster(cluster).n_units(FUType(fu))
            if used > capacity:
                raise AssertionError(
                    f"FU overuse: slot {slot} cluster {cluster} {fu}: "
                    f"{used} > {capacity}"
                )

        # Bounded register buses: per bus, per slot, one transfer.
        if self.machine.register_bus.count is not None:
            bus_slots: Dict[Tuple[int, int], int] = {}
            for comm in self.communications:
                for k in range(comm.latency):
                    key = (comm.bus, (comm.start + k) % self.ii)
                    bus_slots[key] = bus_slots.get(key, 0) + 1
            over = {k: v for k, v in bus_slots.items() if v > 1}
            if over:
                raise AssertionError(f"register-bus conflicts: {over}")

    def format_reservation_table(self) -> str:
        """Render the modulo reservation table like the paper's Figure 3.

        One row per modulo slot; one column per cluster (operations with
        their stage in brackets) plus one column per register bus (``C``
        marks busy cycles).
        """
        ii = self.ii
        n_clusters = self.machine.n_clusters
        cells: Dict[Tuple[int, int], List[str]] = {}
        for name, placement in self.placements.items():
            key = (placement.time % ii, placement.cluster)
            cells.setdefault(key, []).append(f"{name}({self.stage_of(name)})")
        bus_ids = sorted({c.bus for c in self.communications})
        bus_cells: Dict[Tuple[int, int], str] = {}
        for comm in self.communications:
            for k in range(comm.latency):
                bus_cells[((comm.start + k) % ii, comm.bus)] = "C"
        headers = ["slot"] + [f"cluster{c}" for c in range(n_clusters)] + [
            f"bus{b}" if b >= 0 else "bus*" for b in bus_ids
        ]
        rows: List[List[str]] = []
        for slot in range(ii):
            row = [str(slot)]
            for cluster in range(n_clusters):
                row.append(" ".join(sorted(cells.get((slot, cluster), []))))
            for bus in bus_ids:
                row.append(bus_cells.get((slot, bus), ""))
            rows.append(row)
        widths = [
            max(len(headers[i]), *(len(r[i]) for r in rows)) if rows else len(headers[i])
            for i in range(len(headers))
        ]
        lines = [
            " | ".join(h.ljust(w) for h, w in zip(headers, widths)),
            "-+-".join("-" * w for w in widths),
        ]
        for row in rows:
            lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
        return "\n".join(lines)

    def summary(self) -> Dict[str, object]:
        return {
            "kernel": self.kernel.name,
            "machine": self.machine.name,
            "scheduler": self.scheduler_name,
            "threshold": self.threshold,
            "ii": self.ii,
            "mii": self.mii,
            "sc": self.stage_count,
            "comms": self.n_communications,
            "prefetched_loads": len(self.prefetched_loads()),
        }

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Schedule({self.kernel.name}@{self.machine.name}: II={self.ii}, "
            f"SC={self.stage_count}, comms={self.n_communications})"
        )


@dataclass(frozen=True)
class ScheduleBody:
    """A :class:`Schedule` without its kernel and machine: the stage
    store's schedule entry.

    The store key already pins the kernel (by content fingerprint) and
    the machine's scheduling view (by canonical encoding), so an entry
    carries neither.  ``digest`` is the schedule's
    :meth:`Schedule.digest`, which :meth:`attach` hands on so the
    rebuilt schedule never hashes its decisions again.  An attached
    schedule shares the body's placement and communication containers,
    so neither may be mutated.
    """

    ii: int
    placements: Dict[str, Placement]
    communications: List[Communication]
    mii: int
    res_mii: int
    rec_mii: int
    scheduler_name: str
    threshold: float
    digest: str

    def attach(self, kernel: Kernel, machine: MachineConfig) -> Schedule:
        """The schedule these decisions make for ``kernel`` on
        ``machine`` (any machine sharing the scheduling view the store
        key names)."""
        schedule = Schedule(
            kernel=kernel,
            machine=machine,
            ii=self.ii,
            placements=self.placements,
            communications=self.communications,
            mii=self.mii,
            res_mii=self.res_mii,
            rec_mii=self.rec_mii,
            scheduler_name=self.scheduler_name,
            threshold=self.threshold,
        )
        schedule._digest = self.digest
        return schedule
