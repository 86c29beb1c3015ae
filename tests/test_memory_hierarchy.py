"""Integration tests for the distributed memory system timing model."""

import random

import pytest

from repro.machine import BusConfig, four_cluster, two_cluster
from repro.memory import AccessLevel, DistributedMemorySystem, LineState


def _system(machine=None):
    return DistributedMemorySystem(machine or two_cluster(
        memory_bus=BusConfig(count=1, latency=1)
    ))


class TestBasicAccess:
    def test_cold_miss_goes_to_main_memory(self):
        system = _system()
        result = system.access(0, 0, is_store=False, time=0)
        assert result.level == AccessLevel.MAIN
        # detect (2) + bus (1) + main memory (10)
        assert result.ready_time == 13
        assert system.stats.main_memory == 1

    def test_second_access_hits_locally(self):
        system = _system()
        first = system.access(0, 0, is_store=False, time=0)
        result = system.access(0, 0, is_store=False, time=first.ready_time)
        assert result.level == AccessLevel.LOCAL
        assert result.ready_time == first.ready_time + 2
        assert system.stats.local_hits == 1

    def test_same_line_hit(self):
        system = _system()
        first = system.access(0, 0, is_store=False, time=0)
        result = system.access(0, 24, is_store=False, time=first.ready_time)
        assert result.level == AccessLevel.LOCAL

    def test_remote_hit_cheaper_than_main(self):
        system = _system()
        fill = system.access(0, 0, is_store=False, time=0)
        remote = system.access(1, 0, is_store=False, time=fill.ready_time)
        assert remote.level == AccessLevel.REMOTE
        # detect (2) + bus (1) + remote cache (2)
        assert remote.ready_time == fill.ready_time + 5
        assert system.stats.remote_hits == 1


class TestStores:
    def test_store_miss_takes_exclusive(self):
        system = _system()
        result = system.access(0, 0, is_store=True, time=0)
        assert result.level == AccessLevel.MAIN
        assert system.caches[0].state_of(0) is LineState.MODIFIED

    def test_store_to_shared_upgrades(self):
        system = _system()
        t = system.access(0, 0, is_store=False, time=0).ready_time
        result = system.access(0, 0, is_store=True, time=t)
        assert result.level == AccessLevel.LOCAL
        assert system.stats.coherence_upgrades == 1
        assert system.caches[0].state_of(0) is LineState.MODIFIED

    def test_store_invalidates_remote_copies(self):
        system = _system()
        t = system.access(1, 0, is_store=False, time=0).ready_time
        system.access(0, 0, is_store=True, time=t)
        assert system.caches[1].state_of(0) is LineState.INVALID

    def test_remote_dirty_supplier_writes_back(self):
        system = _system()
        t = system.access(0, 0, is_store=True, time=0).ready_time
        result = system.access(1, 0, is_store=False, time=t)
        assert result.level == AccessLevel.REMOTE
        assert system.stats.writebacks >= 1
        assert system.caches[0].state_of(0) is LineState.SHARED


class TestContention:
    def test_bus_wait_accumulates(self):
        system = _system()
        system.access(0, 0, is_store=False, time=0)
        result = system.access(1, 4096, is_store=False, time=0)
        assert result.bus_wait > 0
        assert system.stats.bus_wait_cycles > 0

    def test_unbounded_bus_no_wait(self):
        machine = two_cluster(memory_bus=BusConfig(count=None, latency=1))
        system = DistributedMemorySystem(machine)
        system.access(0, 0, is_store=False, time=0)
        result = system.access(1, 4096, is_store=False, time=0)
        assert result.bus_wait == 0

    def test_mshr_full_delays(self):
        """More concurrent misses than MSHR entries forces waiting."""
        machine = two_cluster(memory_bus=BusConfig(count=None, latency=1))
        system = DistributedMemorySystem(machine)
        # 10 MSHR entries per cluster; issue 12 distinct-line misses at t=0.
        waits = [
            system.access(0, 8192 * k, is_store=False, time=0).mshr_wait
            for k in range(12)
        ]
        assert waits[-1] > 0
        assert system.stats.mshr_wait_cycles > 0


class TestMerging:
    def test_secondary_miss_merges(self):
        system = _system()
        first = system.access(0, 0, is_store=False, time=0)
        merged = system.access(0, 8, is_store=False, time=1)
        assert merged.merged
        assert merged.ready_time <= first.ready_time
        assert system.stats.merged == 1

    def test_cross_cluster_inflight_merge(self):
        """A second cluster missing on an in-flight line completes early."""
        machine = two_cluster(memory_bus=BusConfig(count=None, latency=1))
        system = DistributedMemorySystem(machine)
        first = system.access(0, 0, is_store=False, time=0)
        second = system.access(1, 0, is_store=False, time=1)
        full_cost = 1 + 2 + 1 + 10
        assert second.ready_time < full_cost
        assert system.stats.merged >= 1


class TestFillCompletionBoundary:
    """Boundary-cycle semantics of in-flight fills (PR 5 audit).

    The repo-wide convention is that anything completing at cycle ``T``
    is available to a request issued *at* ``T``: consumer stalls require
    ``operand_ready > issue``, MSHR entries released at ``T`` do not
    block a ``T`` allocation, and a fill completing at ``T`` no longer
    merges a ``T`` access.  These tests pin each boundary so an
    accidental ``<`` / ``<=`` flip in any of the four checks
    (:mod:`repro.memory.hierarchy` lines around ``pending <= time``,
    ``supplier_pending > bus_grant``, ``pending > bus_grant``;
    :meth:`repro.memory.cache.MSHR.allocate`'s ``t > time``) fails
    loudly instead of silently shifting figures.
    """

    def test_access_one_cycle_before_fill_merges(self):
        system = _system()
        first = system.access(0, 0, is_store=False, time=0)
        fill = first.ready_time  # 13: detect 2 + bus 1 + main 10
        result = system.access(0, 0, is_store=False, time=fill - 1)
        assert result.merged
        # Data arrives with the fill, not before.
        assert result.ready_time == max(fill - 1 + 2, fill)
        assert system.stats.merged == 1

    def test_access_at_fill_cycle_is_a_plain_hit(self):
        system = _system()
        first = system.access(0, 0, is_store=False, time=0)
        fill = first.ready_time
        result = system.access(0, 0, is_store=False, time=fill)
        assert not result.merged
        assert result.ready_time == fill + 2
        assert system.stats.merged == 0

    def test_supplier_with_fill_pending_at_grant_supplies(self):
        """A remote holder whose fill completes exactly at the bus grant
        can supply the line (available-at-T convention)."""
        system = _system()
        first = system.access(0, 0, is_store=False, time=0)
        fill = first.ready_time  # cluster 0's in-flight completes here
        # Issue so the second miss's bus grant lands exactly on ``fill``:
        # detect = time + 2, bus free well before, so grant = time + 2.
        result = system.access(1, 0, is_store=False, time=fill - 2)
        assert result.level == AccessLevel.REMOTE
        assert system.stats.remote_hits == 1

    def test_supplier_with_fill_pending_after_grant_merges_into_main(self):
        system = _system()
        first = system.access(0, 0, is_store=False, time=0)
        fill = first.ready_time
        # One cycle earlier the supplier's fill is still in flight at the
        # grant; the request resolves through main memory, merging with
        # the fill already under way.
        result = system.access(1, 0, is_store=False, time=fill - 3)
        assert result.level == AccessLevel.MAIN
        assert result.merged
        assert result.ready_time == fill
        assert system.stats.remote_hits == 0

    def test_main_fill_completing_at_grant_pays_full_latency(self):
        system = _system()
        # White-box: a main-memory fill completing exactly at this miss's
        # bus grant (detect 2 + idle bus = grant 2) cannot serve it.
        system._main_in_flight[0] = 2
        result = system.access(0, 0, is_store=False, time=0)
        assert not result.merged
        assert result.ready_time == 2 + 1 + 10

    def test_main_fill_completing_after_grant_merges(self):
        system = _system()
        system._main_in_flight[0] = 3
        result = system.access(0, 0, is_store=False, time=0)
        assert result.merged
        # No earlier than the transfer, no later than the in-flight fill.
        assert result.ready_time == 3

    def test_mshr_entry_released_at_allocation_time_frees(self):
        from repro.memory.cache import MSHR

        mshr = MSHR(1)
        mshr.hold(5)
        assert mshr.allocate(5) == 5  # released at 5, usable at 5
        mshr2 = MSHR(1)
        mshr2.hold(6)
        assert mshr2.allocate(5) == 6  # still held at 5, wait one cycle


class TestCoherenceIntegration:
    def test_invariants_hold_after_mixed_traffic(self):
        system = DistributedMemorySystem(four_cluster(
            memory_bus=BusConfig(count=None, latency=1)
        ))
        time = 0
        for step, (cluster, addr, store) in enumerate([
            (0, 0, False), (1, 0, False), (2, 0, True), (3, 0, False),
            (0, 64, True), (1, 64, True), (2, 64, False), (0, 0, True),
        ]):
            result = system.access(cluster, addr, store, time)
            time = result.ready_time
            system.check_coherence([0, 64])

    def test_reset_clears_everything(self):
        system = _system()
        system.access(0, 0, is_store=False, time=0)
        system.reset()
        assert system.stats.accesses == 0
        assert system.caches[0].resident_lines() == 0
        result = system.access(0, 0, is_store=False, time=0)
        assert result.level == AccessLevel.MAIN

    def test_reset_is_a_cold_start(self):
        """Driven, reset and driven again, a system behaves access for
        access like a fresh one: reset also frees every MSHR entry and
        idles the buses."""
        rng = random.Random(5)
        machine = two_cluster(memory_bus=BusConfig(count=1, latency=4))
        stream = []
        time = 0
        for _ in range(300):
            time += rng.randrange(0, 3)
            stream.append(
                (rng.randrange(2), rng.randrange(0, 512) * 32,
                 rng.random() < 0.3, time)
            )
        used = DistributedMemorySystem(machine)
        for request in stream:
            used.access(*request)
        used.reset()
        fresh = DistributedMemorySystem(machine)
        for request in stream:
            assert used.access(*request) == fresh.access(*request)
        assert used.snapshot() == fresh.snapshot()


class TestStatsAccounting:
    def test_accesses_counted(self):
        system = _system()
        t = 0
        for _ in range(5):
            t = system.access(0, 0, is_store=False, time=t).ready_time
        assert system.stats.accesses == 5
        assert system.stats.local_hits == 4
        assert system.stats.local_miss_ratio == pytest.approx(0.2)

    def test_as_dict_keys(self):
        stats = _system().stats.as_dict()
        for key in ("accesses", "local_hits", "remote_hits", "main_memory",
                    "bus_wait_cycles", "mshr_wait_cycles"):
            assert key in stats
