"""Unit tests for the modulo reservation table."""

import pytest

from repro.ir.operations import FUType
from repro.machine import BusConfig, two_cluster
from repro.scheduler.mrt import ModuloReservationTable, Transaction


def _mrt(ii=3, register_bus=None):
    machine = two_cluster(register_bus=register_bus)
    return ModuloReservationTable(machine, ii)


class TestFunctionalUnits:
    def test_reserve_up_to_capacity(self):
        mrt = _mrt()
        txn = Transaction()
        # 2-cluster machine has 2 memory units per cluster.
        assert mrt.reserve_fu(0, 0, FUType.MEMORY, txn)
        assert mrt.reserve_fu(0, 0, FUType.MEMORY, txn)
        assert not mrt.reserve_fu(0, 0, FUType.MEMORY, txn)

    def test_modulo_wrapping(self):
        mrt = _mrt(ii=3)
        txn = Transaction()
        assert mrt.reserve_fu(1, 0, FUType.FP, txn)
        assert mrt.reserve_fu(4, 0, FUType.FP, txn)  # same slot 1
        assert not mrt.reserve_fu(7, 0, FUType.FP, txn)

    def test_negative_times_wrap(self):
        mrt = _mrt(ii=3)
        txn = Transaction()
        assert mrt.reserve_fu(-1, 0, FUType.FP, txn)  # slot 2
        assert mrt.reserve_fu(2, 0, FUType.FP, txn)
        assert not mrt.reserve_fu(5, 0, FUType.FP, txn)

    def test_clusters_independent(self):
        mrt = _mrt()
        txn = Transaction()
        assert mrt.reserve_fu(0, 0, FUType.MEMORY, txn)
        assert mrt.reserve_fu(0, 0, FUType.MEMORY, txn)
        assert mrt.reserve_fu(0, 1, FUType.MEMORY, txn)

    def test_fu_types_independent(self):
        mrt = _mrt()
        txn = Transaction()
        assert mrt.reserve_fu(0, 0, FUType.MEMORY, txn)
        assert mrt.reserve_fu(0, 0, FUType.MEMORY, txn)
        assert mrt.reserve_fu(0, 0, FUType.FP, txn)

    def test_failed_reserve_has_no_side_effect(self):
        mrt = _mrt()
        txn = Transaction()
        mrt.reserve_fu(0, 0, FUType.MEMORY, txn)
        mrt.reserve_fu(0, 0, FUType.MEMORY, txn)
        before = len(txn.fu_slots)
        assert not mrt.reserve_fu(0, 0, FUType.MEMORY, txn)
        assert len(txn.fu_slots) == before


class TestRegisterBuses:
    def test_bounded_pool_exhausts(self):
        mrt = _mrt(ii=2, register_bus=BusConfig(count=1, latency=1))
        txn = Transaction()
        assert mrt.reserve_bus(0, txn) is not None
        assert mrt.reserve_bus(1, txn) is not None
        assert mrt.reserve_bus(0, txn) is None

    def test_multi_cycle_transfer_occupies_consecutive_slots(self):
        mrt = _mrt(ii=4, register_bus=BusConfig(count=1, latency=2))
        txn = Transaction()
        reservation = mrt.reserve_bus(1, txn)
        assert reservation is not None
        assert reservation.latency == 2
        # Slots 1 and 2 are now busy.
        assert mrt.reserve_bus(1, txn) is None
        assert mrt.reserve_bus(2, txn) is None
        # Slot 3 + wrap to 0 is free.
        assert mrt.reserve_bus(3, txn) is not None

    def test_latency_longer_than_ii_unschedulable(self):
        mrt = _mrt(ii=2, register_bus=BusConfig(count=1, latency=3))
        txn = Transaction()
        assert mrt.reserve_bus(0, txn) is None

    def test_second_bus_used_when_first_busy(self):
        mrt = _mrt(ii=2, register_bus=BusConfig(count=2, latency=1))
        txn = Transaction()
        first = mrt.reserve_bus(0, txn)
        second = mrt.reserve_bus(0, txn)
        assert first.bus != second.bus

    def test_unbounded_never_fails(self):
        mrt = _mrt(ii=1, register_bus=BusConfig(count=None, latency=2))
        txn = Transaction()
        for _ in range(20):
            reservation = mrt.reserve_bus(0, txn)
            assert reservation is not None
            assert reservation.bus == -1

    def test_unbounded_tracks_peak_usage(self):
        mrt = _mrt(ii=2, register_bus=BusConfig(count=None, latency=1))
        txn = Transaction()
        mrt.reserve_bus(0, txn)
        mrt.reserve_bus(0, txn)
        mrt.reserve_bus(1, txn)
        assert mrt.peak_bus_usage() == 2


class TestRollback:
    def test_fu_rollback(self):
        mrt = _mrt()
        txn = Transaction()
        mrt.reserve_fu(0, 0, FUType.MEMORY, txn)
        mrt.reserve_fu(0, 0, FUType.MEMORY, txn)
        mrt.rollback(txn)
        fresh = Transaction()
        assert mrt.reserve_fu(0, 0, FUType.MEMORY, fresh)
        assert mrt.reserve_fu(0, 0, FUType.MEMORY, fresh)

    def test_bus_rollback(self):
        mrt = _mrt(ii=2, register_bus=BusConfig(count=1, latency=2))
        txn = Transaction()
        assert mrt.reserve_bus(0, txn) is not None
        mrt.rollback(txn)
        fresh = Transaction()
        assert mrt.reserve_bus(0, fresh) is not None

    def test_unbounded_rollback(self):
        mrt = _mrt(ii=2, register_bus=BusConfig(count=None, latency=1))
        txn = Transaction()
        mrt.reserve_bus(0, txn)
        mrt.rollback(txn)
        assert mrt.peak_bus_usage() == 0

    def test_rollback_clears_transaction(self):
        mrt = _mrt()
        txn = Transaction()
        mrt.reserve_fu(0, 0, FUType.FP, txn)
        mrt.rollback(txn)
        assert not txn.fu_slots
        assert not txn.bus_slots


class TestValidation:
    def test_ii_must_be_positive(self):
        with pytest.raises(ValueError):
            ModuloReservationTable(two_cluster(), 0)


# ----------------------------------------------------------------------
# Property tests: no reservation-table conflicts on real schedules
# ----------------------------------------------------------------------
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cme import SamplingCME
from repro.machine import four_cluster, unified
from repro.workloads import kernel_by_name

from reference_cells import reference_cell

_PROPERTY_ANALYZER = SamplingCME(max_points=64)

_MACHINES = {
    "unified": unified(),
    "2-cluster": two_cluster(),
    "2-cluster-1bus": two_cluster(
        register_bus=BusConfig(count=1, latency=2)
    ),
    "4-cluster": four_cluster(),
}

cell_strategy = st.tuples(
    st.sampled_from(("su2cor", "applu")),
    st.sampled_from(sorted(_MACHINES)),
    st.sampled_from(("baseline", "rmca")),
    st.sampled_from((0.0, 0.25, 0.5, 0.75, 1.0)),
)


class TestScheduleResourceProperties:
    """Random cells never oversubscribe FUs or register buses."""

    @given(cell=cell_strategy)
    @settings(max_examples=12, deadline=None)
    def test_no_mrt_resource_conflicts(self, cell):
        kernel_name, machine_name, scheduler, threshold = cell
        machine = _MACHINES[machine_name]
        result = reference_cell(
            kernel_by_name(kernel_name),
            machine,
            scheduler,
            threshold,
            _PROPERTY_ANALYZER,
        )
        schedule = result.schedule
        # validate() re-checks dependences, FU capacity per modulo slot
        # and bounded register-bus occupancy; any conflict raises.
        schedule.validate()
        # Re-derive FU usage directly against cluster capacity.
        usage = {}
        loop = schedule.kernel.loop
        for name, placement in schedule.placements.items():
            op = loop.operation(name)
            key = (
                placement.time % schedule.ii,
                placement.cluster,
                op.fu_type,
            )
            usage[key] = usage.get(key, 0) + 1
        for (slot, cluster, fu), used in usage.items():
            assert used <= machine.cluster(cluster).n_units(fu), (
                f"slot {slot} cluster {cluster} {fu} oversubscribed"
            )
        # Bounded buses: every communication fits the pool.
        if machine.register_bus.count is not None:
            assert all(
                0 <= c.bus < machine.register_bus.count
                for c in schedule.communications
            )
