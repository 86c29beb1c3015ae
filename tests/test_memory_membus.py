"""Unit tests for the memory-bus pool."""

from repro.machine.config import BusConfig
from repro.memory.membus import MemoryBusPool


class TestBoundedPool:
    def test_immediate_grant_when_idle(self):
        pool = MemoryBusPool(BusConfig(count=1, latency=2))
        assert pool.acquire(10) == 10

    def test_queues_when_busy(self):
        pool = MemoryBusPool(BusConfig(count=1, latency=2))
        assert pool.acquire(0) == 0     # busy until 2
        assert pool.acquire(0) == 2     # waits
        assert pool.total_wait_cycles == 2

    def test_two_buses_in_parallel(self):
        pool = MemoryBusPool(BusConfig(count=2, latency=4))
        assert pool.acquire(0) == 0
        assert pool.acquire(0) == 0     # second bus
        assert pool.acquire(0) == 4     # now both busy

    def test_custom_duration(self):
        pool = MemoryBusPool(BusConfig(count=1, latency=1))
        pool.acquire(0, duration=10)
        assert pool.acquire(0) == 10

    def test_later_request_no_wait(self):
        pool = MemoryBusPool(BusConfig(count=1, latency=2))
        pool.acquire(0)
        assert pool.acquire(5) == 5
        assert pool.total_wait_cycles == 0

    def test_stats(self):
        pool = MemoryBusPool(BusConfig(count=1, latency=3))
        pool.acquire(0)
        pool.acquire(0)
        assert pool.total_transactions == 2
        assert pool.total_busy_cycles == 6
        pool.reset_stats()
        assert pool.total_transactions == 0
        assert pool.total_wait_cycles == 0


class TestUnboundedPool:
    def test_never_waits(self):
        pool = MemoryBusPool(BusConfig(count=None, latency=4))
        for k in range(32):
            assert pool.acquire(0) == 0
        assert pool.total_wait_cycles == 0
        assert pool.total_transactions == 32

    def test_latency_property(self):
        assert MemoryBusPool(BusConfig(count=None, latency=4)).latency == 4
