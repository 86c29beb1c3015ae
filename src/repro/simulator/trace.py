"""Execution tracing: per-instance events and stall attribution.

The plain simulator returns aggregate cycle counts; this tracer replays a
schedule recording one :class:`TraceEvent` per operation instance —
issue time, data-ready time, the memory level that served it, and any
lockstep stall it *caused* — then summarizes where the stall cycles went
(per operation, per memory level).  Used by the examples and by tests
that pin down simulator semantics; handy when debugging a scheduler
change that moved cycles around.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..scheduler.result import Schedule
from .executor import LockstepSimulator

__all__ = ["TraceEvent", "Trace", "trace_schedule"]


@dataclass(frozen=True)
class TraceEvent:
    """One operation instance's execution record."""

    op: str
    iteration: int
    entry: int  # which loop entry (0..NTIMES-1)
    issue: int  # offset-adjusted issue cycle (global clock)
    ready: int  # when the result became available
    level: Optional[str]  # memory level for loads/stores, else None
    stall_caused: int  # lockstep stall this instance's operands caused
    stalled_on: Optional[str] = None  # producer whose lateness caused it


@dataclass
class Trace:
    """All events of one traced run plus aggregation helpers."""

    schedule: Schedule
    events: List[TraceEvent] = field(default_factory=list)
    total_stall: int = 0

    def stall_by_producer(self) -> Dict[str, int]:
        """Stall cycles attributed to the operand producer that was late."""
        out: Dict[str, int] = {}
        for event in self.events:
            if event.stall_caused and event.stalled_on is not None:
                out[event.stalled_on] = (
                    out.get(event.stalled_on, 0) + event.stall_caused
                )
        return dict(sorted(out.items(), key=lambda kv: -kv[1]))

    def level_histogram(self) -> Dict[str, int]:
        """Access counts per memory level."""
        out: Dict[str, int] = {}
        for event in self.events:
            if event.level is not None:
                out[event.level] = out.get(event.level, 0) + 1
        return out

    def events_for(self, op: str) -> List[TraceEvent]:
        return [e for e in self.events if e.op == op]

    def report(self, top: int = 8) -> str:
        """Human-readable stall attribution report."""
        lines = [
            f"trace of {self.schedule.kernel.name} on "
            f"{self.schedule.machine.name}: {len(self.events)} instances, "
            f"{self.total_stall} stall cycles",
            f"memory levels: {self.level_histogram()}",
            "top stall sources:",
        ]
        for op, cycles in list(self.stall_by_producer().items())[:top]:
            lines.append(f"  {op:16s} {cycles:8d} cycles")
        if not self.stall_by_producer():
            lines.append("  (none)")
        return "\n".join(lines)


class _TracingSimulator(LockstepSimulator):
    """LockstepSimulator that records per-instance events.

    Supplies its own span walk to the shared entry walk
    (:meth:`LockstepSimulator._entry_walk`): the same lockstep timing as
    the scalar walk, recording one event per instance, which the test
    suite asserts by comparing total stall cycles.
    """

    def __init__(self, schedule: Schedule, n_iterations=None, n_times=None):
        # steady="off": a trace wants one event per instance, so every
        # entry must actually execute — no steady-state replay, and no
        # detector ever reads a ready view.
        super().__init__(
            schedule, n_iterations=n_iterations, n_times=n_times, steady="off"
        )
        self.trace = Trace(schedule=schedule)
        self._entry_index = 0

    def _entry_walk(self, base, mem_base, mem_stride):  # noqa: D102
        loop = self.loop
        placements = self.schedule.placements
        lrb = self.machine.register_bus.latency
        bounds = self.instance_group_bounds()[0]
        entry = self._entry_index
        self._entry_index += 1
        ready: Dict[Tuple[str, int], int] = {}

        def walk(first: int, last: int, offset: int, n_iterations: int) -> int:
            stall_before = offset
            for nominal, iteration, op_index in self._instances[
                bounds[first]:bounds[last]
            ]:
                name = self._op_names[op_index]
                placement = placements[name]
                op = loop.operation(name)
                issue = base + nominal + offset
                stall_here = 0

                late_producer: Optional[str] = None
                for flow in self._flow_inputs.get(name, ()):
                    src_iter = iteration - flow.distance
                    if src_iter < 0:
                        continue
                    produced = ready.get((flow.producer, src_iter))
                    if produced is None:
                        continue
                    operand_ready = produced + (
                        lrb if flow.cross_cluster else 0
                    )
                    if operand_ready > issue:
                        stall = operand_ready - issue
                        stall_here += stall
                        offset += stall
                        issue += stall
                        late_producer = flow.producer

                level: Optional[str] = None
                if op.is_memory:
                    result = self.memory.access(
                        placement.cluster,
                        mem_base[op_index] + mem_stride[op_index] * iteration,
                        op.is_store,
                        issue,
                    )
                    ready_time = result.ready_time
                    level = result.level
                else:
                    ready_time = issue + self.machine.latency(op.opclass)
                ready[(name, iteration)] = ready_time

                self.trace.events.append(
                    TraceEvent(
                        op=name,
                        iteration=iteration,
                        entry=entry,
                        issue=issue,
                        ready=ready_time,
                        level=level,
                        stall_caused=stall_here,
                        stalled_on=late_producer,
                    )
                )
            self.trace.total_stall += offset - stall_before
            return offset

        return None, walk


def trace_schedule(
    schedule: Schedule,
    n_iterations: Optional[int] = None,
    n_times: Optional[int] = None,
) -> Trace:
    """Replay a schedule and return its execution trace."""
    simulator = _TracingSimulator(
        schedule, n_iterations=n_iterations, n_times=n_times
    )
    simulator.run()
    return simulator.trace
