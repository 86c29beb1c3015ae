"""Tests for the execution tracer."""

from repro.ir import LoopBuilder
from repro.machine import two_cluster, unified
from repro.scheduler import BaselineScheduler
from repro.simulator import simulate
from repro.simulator.trace import trace_schedule
from repro.workloads import kernel_by_name


def _missing_kernel():
    b = LoopBuilder("misses")
    i = b.dim("i", 0, 64)
    a = b.array("A", (512,))
    v = b.load(a, [b.aff(i=8)], name="ld")
    t = b.fmul(v, v, name="mul")
    b.store(a, [b.aff(i=8)], t, name="st")
    return b.build()


class TestTraceSemantics:
    def test_total_stall_matches_simulator(self, saxpy, two_cluster_machine):
        schedule = BaselineScheduler().schedule(saxpy, two_cluster_machine)
        trace = trace_schedule(schedule)
        plain = simulate(schedule)
        assert trace.total_stall == plain.stall_cycles

    def test_total_stall_matches_across_entries(self):
        """Several entries on a clustered machine: each entry starts at
        its own clock and cross-cluster operands pay the register-bus
        latency, in the trace as in the simulation."""
        schedule = BaselineScheduler().schedule(
            kernel_by_name("tomcatv"), two_cluster()
        )
        assert schedule.n_communications > 0
        trace = trace_schedule(schedule, n_iterations=8, n_times=3)
        plain = simulate(schedule, n_iterations=8, n_times=3, steady="off")
        assert trace.total_stall == plain.stall_cycles

    def test_total_stall_matches_on_missing_kernel(self):
        schedule = BaselineScheduler().schedule(_missing_kernel(), unified())
        trace = trace_schedule(schedule)
        plain = simulate(schedule)
        assert trace.total_stall == plain.stall_cycles

    def test_one_event_per_instance(self, saxpy, unified_machine):
        schedule = BaselineScheduler().schedule(saxpy, unified_machine)
        trace = trace_schedule(schedule, n_iterations=10)
        assert len(trace.events) == 10 * len(schedule.placements)

    def test_issue_times_monotonic_per_entry(self, saxpy, unified_machine):
        schedule = BaselineScheduler().schedule(saxpy, unified_machine)
        trace = trace_schedule(schedule, n_iterations=10)
        issues = [e.issue for e in trace.events]
        assert issues == sorted(issues)


class TestAttribution:
    def test_stall_attributed_to_missing_load(self):
        schedule = BaselineScheduler().schedule(_missing_kernel(), unified())
        trace = trace_schedule(schedule)
        by_producer = trace.stall_by_producer()
        assert by_producer
        assert max(by_producer, key=by_producer.get) == "ld"
        assert sum(by_producer.values()) == trace.total_stall

    def test_no_stall_no_attribution(self):
        b = LoopBuilder("hits")
        i = b.dim("i", 0, 32)
        a = b.array("A", (4,))
        v = b.load(a, [b.aff(0)], name="ld")
        t = b.fmul(v, v, name="mul")
        b.store(a, [b.aff(1)], t, name="st")
        kernel = b.build()
        schedule = BaselineScheduler().schedule(kernel, unified())
        trace = trace_schedule(schedule)
        # Only the cold miss can stall.
        assert sum(trace.stall_by_producer().values()) <= 15

    def test_level_histogram(self):
        schedule = BaselineScheduler().schedule(_missing_kernel(), unified())
        trace = trace_schedule(schedule)
        histogram = trace.level_histogram()
        assert sum(histogram.values()) == 2 * 64  # one load + one store
        assert histogram.get("main", 0) >= 60

    def test_events_for(self, saxpy, unified_machine):
        schedule = BaselineScheduler().schedule(saxpy, unified_machine)
        trace = trace_schedule(schedule, n_iterations=8)
        events = trace.events_for("mul")
        assert len(events) == 8
        assert all(e.op == "mul" for e in events)

    def test_report_renders(self):
        schedule = BaselineScheduler().schedule(_missing_kernel(), unified())
        trace = trace_schedule(schedule)
        report = trace.report()
        assert "stall cycles" in report
        assert "ld" in report

    def test_memory_events_have_levels(self, saxpy, unified_machine):
        schedule = BaselineScheduler().schedule(saxpy, unified_machine)
        trace = trace_schedule(schedule, n_iterations=4)
        for event in trace.events:
            op = saxpy.loop.operation(event.op)
            if op.is_memory:
                assert event.level is not None
            else:
                assert event.level is None
