"""The vectorized engine's own contracts.

``DistributedMemorySystem.access_batch`` must match ``access`` call for
call, down to raw container state, on randomized access streams; the
default engine must batch its accesses, and its scalar fallback must
stay bit-identical; every cell on both engines is the ``vectorized``
column of ``tests/test_differential.py``.
"""

import random
from dataclasses import replace

import pytest

from repro.cme import IncrementalCME
from repro.engine.stages import make_scheduler
from repro.machine import BusConfig, four_cluster, heterogeneous, two_cluster
from repro.memory.cache import LineState
from repro.memory.hierarchy import DistributedMemorySystem
from repro.simulator import LockstepSimulator, VectorizedSimulator
from repro.workloads import spec_suite

MAX_POINTS = 512


@pytest.fixture(scope="module")
def analyzer():
    return IncrementalCME(max_points=MAX_POINTS)


class TestAccessBatch:
    """access_batch vs access: identical results AND identical raw state."""

    @staticmethod
    def _state_dump(memory):
        return (
            [
                {k: [(l.tag, l.state) for l in v] for k, v in c._sets.items() if v}
                for c in memory.caches
            ],
            [dict(c.in_flight) for c in memory.caches],
            [sorted(c.mshr._release_times) for c in memory.caches],
            [c.mshr.total_wait_cycles for c in memory.caches],
            [c.mshr.peak_occupancy for c in memory.caches],
            memory.bus._busy_until,
            memory.bus.total_wait_cycles,
            memory.bus.total_transactions,
            memory.bus.total_busy_cycles,
            memory.msi.n_invalidations,
            memory.msi.n_interventions,
            memory.msi.n_writebacks,
            dict(memory._main_in_flight),
            memory.stats.as_dict(),
        )

    def _replay(self, rng, machine, n, max_step, address):
        """One random stream through :meth:`access` and, in random
        chunks with random slacks, through :meth:`access_batch`: every
        ready time and the raw state must agree.  Returns the batched
        system."""
        infinite = 1 << 60
        scalar = DistributedMemorySystem(machine)
        batched = DistributedMemorySystem(machine)
        n_clusters = len(machine.clusters)
        time = 0
        clusters, addresses, stores, nominals = [], [], [], []
        for _ in range(n):
            time += rng.randrange(0, max_step)
            clusters.append(rng.randrange(n_clusters))
            addresses.append(address())
            stores.append(rng.random() < 0.35)
            nominals.append(time)
        want = [
            scalar.access(
                clusters[i], addresses[i], stores[i], nominals[i]
            ).ready_time
            for i in range(n)
        ]
        got = [None] * n
        slacks = [rng.choice([0, 2, 5, infinite]) for _ in range(n)]
        index = 0
        while index < n:
            end = min(n, index + rng.randrange(1, n + 1))
            consumed = batched.access_batch(
                clusters, addresses, stores, nominals, 0, slacks,
                got, index, end,
            )
            assert consumed >= 1
            # Hazard-stop contract: every consumed access except
            # possibly the last stayed within its slack.
            for j in range(index, index + consumed - 1):
                assert got[j] <= nominals[j] + slacks[j]
            index += consumed
        assert want == got
        assert self._state_dump(scalar) == self._state_dump(batched)
        return batched

    def test_randomized_streams_bit_identical(self):
        rng = random.Random(1234)
        for trial in range(150):
            machine = rng.choice([two_cluster, four_cluster, heterogeneous])()
            self._replay(
                rng, machine, rng.randrange(1, 60), 6,
                lambda: rng.randrange(0, 4096) * rng.choice([1, 4, 8]),
            )

    def test_randomized_odd_machines_bit_identical(self):
        """The set shapes and queues the presets never reach: 2- and
        4-way sets (mixed across clusters, so snoops cross geometries),
        1-3 MSHR entries, one, two or unbounded memory buses, and long
        streams over a footprint several times the cache, half of them
        on a small shared region, so invalid lines sit beside live ones,
        dirty victims are written back and the MSHR grants late."""
        rng = random.Random(4321)
        seen = dict.fromkeys(
            ("writebacks", "mshr_wait_cycles", "msi_invalidations",
             "invalid_beside_live"), 0
        )
        for _trial in range(60):
            preset = rng.choice([two_cluster, four_cluster, heterogeneous])
            base = preset(
                memory_bus=BusConfig(
                    count=rng.choice([1, 2, None]),
                    latency=rng.choice([1, 2]),
                )
            )
            machine = replace(
                base,
                clusters=tuple(
                    replace(
                        cluster,
                        cache=replace(
                            cluster.cache,
                            associativity=rng.choice([2, 4]),
                            mshr_entries=rng.randrange(1, 4),
                        ),
                    )
                    for cluster in base.clusters
                ),
            )
            batched = self._replay(
                rng, machine, rng.randrange(200, 601), 4,
                lambda: (
                    rng.randrange(0, 2048)
                    if rng.random() < 0.5
                    else rng.randrange(0, 32768)
                ),
            )
            seen["writebacks"] += batched.stats.writebacks
            seen["mshr_wait_cycles"] += batched.stats.mshr_wait_cycles
            seen["msi_invalidations"] += batched.msi.n_invalidations
            seen["invalid_beside_live"] += sum(
                1
                for cache in batched.caches
                for ways in cache._sets.values()
                if len({line.state is LineState.INVALID for line in ways}) == 2
            )
        assert all(seen.values()), seen

    def test_hazard_stop_returns_early(self):
        system = DistributedMemorySystem(
            two_cluster(memory_bus=BusConfig(count=1, latency=1))
        )
        ready = [None, None]
        # Two cold misses: slack 0 makes the first one a hazard.
        consumed = system.access_batch(
            [0, 0], [0, 64], [False, False], [0, 1], 0, [0, 0], ready, 0, 2
        )
        assert consumed == 1
        assert ready[0] is not None and ready[1] is None


class TestEngineTelemetry:
    def test_default_engine_batches_its_accesses(self, analyzer):
        schedule = make_scheduler("baseline", 1.0, analyzer).schedule(
            spec_suite()[0], two_cluster()
        )
        simulator = VectorizedSimulator(schedule)
        assert simulator._vector_ok
        batched = []
        access_batch = simulator.memory.access_batch

        def counting(*args):
            batched.append(access_batch(*args))
            return batched[-1]

        simulator.memory.access_batch = counting
        simulator.run()
        assert batched and sum(batched) > len(batched)

    def test_forced_fallback_stays_bit_identical(self, analyzer):
        """The scalar fallback path (statically unsafe schedules) runs
        the reference walk and must agree with it."""
        kernel = next(k for k in spec_suite() if k.name == "turb3d")
        schedule = make_scheduler("rmca", 1.0, analyzer).schedule(
            kernel, two_cluster()
        )
        scalar = LockstepSimulator(schedule, steady="auto")
        vector = VectorizedSimulator(schedule, steady="auto")
        vector._vector_ok = False  # force the escape hatch
        assert vector.run().as_dict() == scalar.run().as_dict()
        assert vector.memory.counters() == scalar.memory.counters()
