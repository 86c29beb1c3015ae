"""Tests for the assign-and-schedule engine (both schedulers share it)."""

import pytest

from repro.ir import LoopBuilder
from repro.machine import BusConfig, two_cluster, unified
from repro.scheduler import (
    BaselineScheduler,
    SchedulerConfig,
    SchedulingError,
)
from repro.scheduler.lifetimes import cluster_pressures


def _wide_kernel(n_loads=6):
    b = LoopBuilder("wide")
    i = b.dim("i", 0, 64)
    a = b.array("A", (128,))
    out = b.array("OUT", (128,))
    values = [b.load(a, [b.aff(k, i=1)], name=f"ld{k}") for k in range(n_loads)]
    total = values[0]
    for v in values[1:]:
        total = b.fadd(total, v)
    b.store(out, [b.aff(i=1)], total, name="st")
    return b.build()


class TestBasicScheduling:
    def test_achieves_mii_when_unconstrained(self, saxpy, unified_machine):
        schedule = BaselineScheduler().schedule(saxpy, unified_machine)
        assert schedule.ii == schedule.mii

    def test_valid_on_all_machines(
        self, saxpy, unified_machine, two_cluster_machine, four_cluster_machine
    ):
        for machine in (unified_machine, two_cluster_machine, four_cluster_machine):
            schedule = BaselineScheduler().schedule(saxpy, machine)
            schedule.validate()

    def test_all_ops_placed(self, stencil, two_cluster_machine):
        schedule = BaselineScheduler().schedule(stencil, two_cluster_machine)
        assert set(schedule.placements) == {
            op.name for op in stencil.loop.operations
        }

    def test_earliest_time_is_zero(self, stencil, two_cluster_machine):
        schedule = BaselineScheduler().schedule(stencil, two_cluster_machine)
        assert min(p.time for p in schedule.placements.values()) == 0

    def test_recurrence_respected(self, recurrence, unified_machine):
        schedule = BaselineScheduler().schedule(recurrence, unified_machine)
        schedule.validate()
        assert schedule.ii >= 2  # FADD latency over distance 1

    def test_single_cluster_has_no_comms(self, stencil, unified_machine):
        schedule = BaselineScheduler().schedule(stencil, unified_machine)
        assert schedule.communications == []


class TestCommunicationAllocation:
    def test_cross_cluster_edges_have_comms(self, stencil, two_cluster_machine):
        schedule = BaselineScheduler().schedule(stencil, two_cluster_machine)
        schedule.validate()  # validate() checks comm timeliness per edge

    def test_comm_value_reuse_single_transfer(self):
        """A value consumed twice in the same remote cluster crosses once."""
        b = LoopBuilder("reuse")
        i = b.dim("i", 0, 32)
        a = b.array("A", (64,))
        v = b.load(a, [b.aff(i=1)], name="ld")
        x = b.fadd(v, v, name="use1")
        y = b.fmul(v, v, name="use2")
        z = b.fsub(x, y, name="join")
        b.store(a, [b.aff(i=1)], z, name="st")
        kernel = b.build()
        machine = two_cluster()
        schedule = BaselineScheduler().schedule(kernel, machine)
        schedule.validate()
        by_pair = {}
        for comm in schedule.communications:
            key = (comm.producer, comm.dst_cluster)
            by_pair[key] = by_pair.get(key, 0) + 1
        # At most one transfer per (producer, destination cluster): the
        # engine reuses an in-flight communication when the deadline allows.
        assert all(count == 1 for count in by_pair.values())

    def test_saturated_bus_raises_ii(self):
        """With a single 4-cycle register bus, every communication blocks
        the bus for 4 cycles, so a schedule that needs two comms cannot
        keep II below 8 unless it avoids communications altogether."""
        kernel = _wide_kernel(6)
        slow_bus = two_cluster(register_bus=BusConfig(count=1, latency=4))
        fast_bus = two_cluster(register_bus=BusConfig(count=None, latency=1))
        slow = BaselineScheduler().schedule(kernel, slow_bus)
        fast = BaselineScheduler().schedule(kernel, fast_bus)
        slow.validate()
        fast.validate()
        assert slow.ii >= fast.ii

    def test_unbounded_bus_always_schedulable(self, stencil):
        machine = two_cluster(register_bus=BusConfig(count=None, latency=2))
        schedule = BaselineScheduler().schedule(stencil, machine)
        schedule.validate()


class TestRegisterPressure:
    def test_pressure_within_register_files(self, stencil, four_cluster_machine):
        schedule = BaselineScheduler().schedule(stencil, four_cluster_machine)
        for cluster, pressure in cluster_pressures(schedule).items():
            assert pressure <= four_cluster_machine.cluster(cluster).n_registers

    def test_pressure_check_can_be_disabled(self, saxpy, unified_machine):
        config = SchedulerConfig(check_register_pressure=False)
        schedule = BaselineScheduler(config).schedule(saxpy, unified_machine)
        schedule.validate()


class TestFailureModes:
    def test_max_ii_exhaustion(self, stencil, two_cluster_machine):
        config = SchedulerConfig(max_ii=1)
        # The stencil needs II >= 2 on the 2-cluster machine (5 loads on
        # 4 memory units), so capping II at 1 must fail.
        with pytest.raises(SchedulingError, match="no schedule"):
            BaselineScheduler(config).schedule(stencil, two_cluster_machine)


class TestBindingPrefetch:
    def _streaming(self):
        b = LoopBuilder("stream")
        i = b.dim("i", 0, 256)
        a = b.array("A", (2048,))
        v = b.load(a, [b.aff(i=8)], name="ld")  # always misses
        t = b.fmul(v, v, name="mul")
        b.store(a, [b.aff(i=8)], t, name="st")
        return b.build()

    def test_threshold_one_never_prefetches(self, sampling_cme):
        kernel = self._streaming()
        config = SchedulerConfig(threshold=1.0)
        schedule = BaselineScheduler(config, locality=sampling_cme).schedule(
            kernel, unified()
        )
        assert schedule.prefetched_loads() == []

    def test_low_threshold_prefetches_missing_load(self, sampling_cme):
        kernel = self._streaming()
        config = SchedulerConfig(threshold=0.5)
        schedule = BaselineScheduler(config, locality=sampling_cme).schedule(
            kernel, unified()
        )
        assert "ld" in schedule.prefetched_loads()
        placement = schedule.placements["ld"]
        assert placement.assumed_latency == unified().miss_latency

    def test_no_locality_means_no_prefetch(self):
        kernel = self._streaming()
        config = SchedulerConfig(threshold=0.0)
        schedule = BaselineScheduler(config, locality=None).schedule(
            kernel, unified()
        )
        assert schedule.prefetched_loads() == []

    def test_hitting_load_not_prefetched(self, sampling_cme):
        b = LoopBuilder("hits")
        i = b.dim("i", 0, 64)
        a = b.array("A", (8,))
        v = b.load(a, [b.aff(0)], name="ld_inv")  # temporal: never misses
        t = b.fmul(v, v, name="mul")
        b.store(a, [b.aff(0)], t, name="st")
        kernel = b.build()
        config = SchedulerConfig(threshold=0.5)
        schedule = BaselineScheduler(config, locality=sampling_cme).schedule(
            kernel, unified()
        )
        assert schedule.prefetched_loads() == []

    def test_recurrence_guard_blocks_prefetch(self, sampling_cme):
        """A missing load inside a recurrence keeps the hit latency when
        the miss latency would raise the II."""
        b = LoopBuilder("recload")
        i = b.dim("i", 0, 128)
        a = b.array("A", (2048,))
        v = b.load(a, [b.aff(i=8)], name="ld")
        acc = b.fadd(b.prev_value("acc", 1), v, dest="acc", name="accum")
        b.store(a, [b.aff(i=8)], acc, name="st")
        kernel = b.build()
        kernel.ddg.add_edge(
            __import__("repro.ir.ddg", fromlist=["DepEdge"]).DepEdge(
                "accum", "ld", "flow", 1
            )
        )
        config = SchedulerConfig(threshold=0.0)
        schedule = BaselineScheduler(config, locality=sampling_cme).schedule(
            kernel, unified()
        )
        # The recurrence through ld (latency 2) + accum (2) over distance 1
        # gives RecMII 4; prefetching ld at 13 would force II >= 15.
        assert "ld" not in schedule.prefetched_loads()
        assert schedule.ii < unified().miss_latency


class TestOrderingFallback:
    """The SMS ordering can sandwich a node between an already-placed
    predecessor and successor on distance-0 flow edges; the empty window
    then fails at *every* II (distance-0 bounds do not relax with II).
    The engine must fall back to program order instead of raising."""

    def test_sandwiched_node_schedules_via_program_order_fallback(self):
        # random_kernel(3327) is the hypothesis-discovered witness: the
        # SMS order emits iadd6 after both load3 (its producer) and
        # fmul7 (its consumer), whose greedy placements leave no slot.
        from repro.workloads import GeneratorConfig, random_kernel

        kernel = random_kernel(
            3327,
            GeneratorConfig(
                max_extent=24, min_extent=6, max_loads=4, max_arith=5
            ),
        )
        schedule = BaselineScheduler().schedule(kernel, two_cluster())
        schedule.validate()
        assert schedule.ii >= schedule.mii

    def test_program_order_only_config_still_raises_when_infeasible(self):
        """The fallback must not mask genuine infeasibility."""
        b = LoopBuilder("tiny")
        i = b.dim("i", 0, 8)
        a = b.array("A", (16,))
        v = b.load(a, [b.aff(i=1)], name="ld")
        b.store(a, [b.aff(i=1)], v, name="st")
        kernel = b.build()
        config = SchedulerConfig(max_ii=0)  # empty II search space
        with pytest.raises(SchedulingError):
            BaselineScheduler(config).schedule(kernel, two_cluster())
