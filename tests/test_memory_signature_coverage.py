"""Guardrail: every piece of mutable memory-system state must be covered
by ``state_signature`` or ``counters``.

Steady-state replay is exact only because
:meth:`DistributedMemorySystem.state_signature` captures *all*
behaviour-relevant state and :meth:`DistributedMemorySystem.counters`
captures *all* additive statistics.  A new attribute added to the memory
system (or its caches, MSHRs, buses or coherence controller) that is
covered by neither would silently break that exactness — replayed runs
would drift from exact ones without any test noticing until a golden
figure moved.  This module makes the omission loud:

* the *inventory* tests walk every ``__dict__`` and fail on any
  attribute that has not been explicitly classified into
  ``signature`` / ``counters`` / ``config`` / ``derived`` /
  ``excluded``;
* the *sensitivity* tests mutate each classified piece of live state and
  assert the claimed channel actually reacts.

When adding memory-system state: wire it into ``state_signature`` (if
it can affect future timing) or, if it is an additive statistic, into
the ``COUNTERS`` names table and the ``counters`` reader in the same
position (the table drives ``add_counters``, snapshots and these
tests), extend ``translate``, then classify it here.
"""

import dataclasses

import pytest

from repro.machine import BusConfig, four_cluster, two_cluster
from repro.memory.cache import MSHR, CacheLine, ClusterCache, LineState
from repro.memory.coherence import MSIController
from repro.memory.hierarchy import (
    COUNTERS,
    DistributedMemorySystem,
    MemoryStats,
)
from repro.memory.membus import MemoryBusPool

# ----------------------------------------------------------------------
# The classification.  "signature": covered by state_signature (future
# behaviour); "counters": covered by counters()/add_counters (additive
# statistics, named in the COUNTERS table); "config": immutable
# configuration; "recurse": a child component with its own
# classification; "derived": a view computed from classified state,
# with no behavioural state of its own (the comment says how it is kept
# in step); "excluded": deliberately outside both channels, with the
# justification in the comment.
# ----------------------------------------------------------------------
COVERAGE = {
    DistributedMemorySystem: {
        "machine": "config",
        "caches": "recurse",
        "bus": "recurse",
        "msi": "recurse",
        "stats": "counters",
        "_main_in_flight": "signature",
        # Pure aliasing: lazily built reference tables for access_batch
        # (every entry points at a component classified above) that are
        # invalidated whenever translate()/reset() rebind a container.
        "_batch_tables": "derived",
    },
    ClusterCache: {
        "config": "config",
        "cluster_id": "config",
        "_sets": "signature",
        "mshr": "recurse",
        "in_flight": "signature",
        # Derived views of _sets for incremental signatures: cached
        # per-set fragments plus the set indices mutated since they were
        # built.  Every mutator marks its set dirty, wholesale rebinds
        # funnel through invalidate_fragments(), and the
        # incremental-signature property tests pin fragment-served
        # signatures to the from-scratch walk.
        "_set_frags": "derived",
        "_dirty_sets": "derived",
        # The state_probe digests: sums of per-fragment terms, patched
        # by the same refresh that rebuilds a dirty fragment and zeroed
        # with the fragments by invalidate_fragments().  The property
        # tests pin equal signatures to equal probe keys.
        "_digest": "derived",
        "_live_digest": "derived",
        # Digest weights: a per-index table computed from config.n_sets
        # and a per-tag memo of a pure function of the tag.  Neither
        # depends on the cache's contents.
        "_weights": "derived",
        "_tag_weights": "derived",
    },
    MSHR: {
        "n_entries": "config",
        "_release_times": "signature",
        "total_wait_cycles": "counters",
        # A maximum, not an additive statistic: a replayed steady-state
        # unit repeats behaviour already observed, so the peak cannot
        # move (documented in DistributedMemorySystem.add_counters).
        "peak_occupancy": "excluded",
    },
    MemoryBusPool: {
        "config": "config",
        "_busy_until": "signature",
        "total_wait_cycles": "counters",
        "total_transactions": "counters",
        "total_busy_cycles": "counters",
    },
    MSIController: {
        "caches": "recurse",  # the same ClusterCache objects
        "n_invalidations": "counters",
        "n_interventions": "counters",
        "n_writebacks": "counters",
    },
}

#: The counter-vector positions of the 4-cluster machine
#: ``_warmed_memory`` builds, named for the test ids.
POSITIONS = [
    f"{component}.{attribute}" for component, attribute in COUNTERS
] + [f"caches[{index}].mshr.total_wait_cycles" for index in range(4)]


def _memory(machine=None):
    return DistributedMemorySystem(machine or two_cluster())


def _warmed_memory():
    """A memory system with non-trivial live state in every component."""
    memory = _memory(four_cluster())
    time = 0
    for address in range(0, 4096, 64):
        memory.access(0, address, False, time)
        memory.access(1, address, True, time + 3)
        memory.access(2, address + 8192, False, time + 5)
        time += 11
    return memory, time


class TestInventory:
    """Every mutable attribute must be classified — new state fails here."""

    def test_hierarchy_attributes_classified(self):
        memory, _time = _warmed_memory()
        objects = [
            memory,
            memory.bus,
            memory.msi,
            *memory.caches,
            *(cache.mshr for cache in memory.caches),
        ]
        for obj in objects:
            table = COVERAGE[type(obj)]
            for attribute in vars(obj):
                assert attribute in table, (
                    f"{type(obj).__name__}.{attribute} is not classified in "
                    f"tests/test_memory_signature_coverage.py: wire it into "
                    f"state_signature/counters/translate (or justify an "
                    f"exclusion) before adding memory-system state"
                )

    def test_counters_table_matches_classification(self):
        """The names table holds exactly the attributes classified
        "counters" above, plus every MemoryStats field."""
        memory, _time = _warmed_memory()
        named = [
            (type(owner), attribute)
            for owner, attribute in memory.counter_fields()
        ]
        classified = {
            (cls, attribute)
            for cls, table in COVERAGE.items()
            for attribute, kind in table.items()
            if kind == "counters" and cls is not DistributedMemorySystem
        } | {
            (MemoryStats, stat.name)
            for stat in dataclasses.fields(MemoryStats)
        }
        assert set(named) == classified
        # One MSHR entry per cluster, every other name once.
        assert len(named) == len(classified) + len(memory.caches) - 1

    def test_add_counters_inverts_deltas(self):
        memory, time = _warmed_memory()
        before = memory.counters()
        memory.access(0, 65536, False, time)
        after = memory.counters()
        delta = tuple(a - b for a, b in zip(after, before))
        assert any(delta)
        memory.add_counters(delta, 3)
        assert memory.counters() == tuple(
            a + 3 * d for a, d in zip(after, delta)
        )


class TestSignatureSensitivity:
    """Each "signature" attribute must actually move the signature."""

    def _signature(self, memory, base=10_000):
        return memory.state_signature(base)

    def test_cache_lines(self):
        memory, time = _warmed_memory()
        before = self._signature(memory, time)
        memory.caches[0].fill(1 << 20, LineState.SHARED)
        assert self._signature(memory, time) != before

    def test_line_state_changes(self):
        memory, time = _warmed_memory()
        cache = memory.caches[1]
        address = next(
            cache._line_address(index, line.tag)
            for index, ways in cache._sets.items()
            for line in ways
            if line.state is LineState.MODIFIED
        )
        before = self._signature(memory, time)
        cache.set_state(address, LineState.SHARED)
        assert self._signature(memory, time) != before

    def test_invalid_lines_are_state(self):
        memory, time = _warmed_memory()
        before = self._signature(memory, time)
        # Direct _sets surgery bypasses the mutator hooks, so the
        # fragment cache must be dropped by hand (the hook for exactly
        # this kind of test).
        memory.caches[0]._sets.setdefault(3, []).append(
            CacheLine(tag=999, state=LineState.INVALID)
        )
        memory.caches[0].invalidate_fragments()
        assert self._signature(memory, time) != before

    def test_invalid_lines_strippable(self):
        memory, time = _warmed_memory()
        ghosts = []
        stripped = memory.state_signature(time, invalid_out=ghosts)
        memory.caches[0]._sets.setdefault(3, []).append(
            CacheLine(tag=999, state=LineState.INVALID)
        )
        memory.caches[0].invalidate_fragments()
        ghosts2 = []
        assert memory.state_signature(time, invalid_out=ghosts2) == stripped
        assert len(ghosts2) == len(ghosts) + 1

    def test_cache_in_flight(self):
        memory, time = _warmed_memory()
        before = self._signature(memory, time)
        memory.caches[0].in_flight[1 << 20] = time + 500
        assert self._signature(memory, time) != before

    def test_expired_in_flight_is_not_state(self):
        memory, time = _warmed_memory()
        before = self._signature(memory, time)
        memory.caches[0].in_flight[1 << 20] = time - 1
        assert self._signature(memory, time) == before

    def test_mshr_pending(self):
        memory, time = _warmed_memory()
        before = self._signature(memory, time)
        memory.caches[0].mshr.hold(time + 123)
        assert self._signature(memory, time) != before

    def test_bus_horizon(self):
        machine = two_cluster(memory_bus=BusConfig(count=1, latency=4))
        memory = _memory(machine)
        memory.access(0, 0, False, 0)
        time = 1
        before = self._signature(memory, time)
        memory.bus.acquire(time + 50)
        assert self._signature(memory, time) != before

    def test_main_in_flight(self):
        memory, time = _warmed_memory()
        before = self._signature(memory, time)
        memory._main_in_flight[1 << 20] = time + 77
        assert self._signature(memory, time) != before

    def test_statistics_are_not_signature(self):
        """Counters record the past: bumping them must not move the
        signature (they are replayed through add_counters instead)."""
        memory, time = _warmed_memory()
        before = self._signature(memory, time)
        memory.stats.accesses += 100
        memory.bus.total_wait_cycles += 5
        memory.msi.n_invalidations += 2
        memory.caches[0].mshr.total_wait_cycles += 9
        assert self._signature(memory, time) == before


class TestCounterSensitivity:
    """The hand-written ``counters()`` reader is bound to the names
    table: bumping each named field moves exactly its own position."""

    @pytest.mark.parametrize(
        "position", range(len(POSITIONS)), ids=POSITIONS
    )
    def test_each_field_moves_its_own_position(self, position):
        memory, _time = _warmed_memory()
        fields = memory.counter_fields()
        assert len(fields) == len(memory.counters()) == len(POSITIONS)
        owner, attribute = fields[position]
        before = memory.counters()
        setattr(owner, attribute, getattr(owner, attribute) + 1)
        moved = [a - b for a, b in zip(memory.counters(), before)]
        assert moved == [int(i == position) for i in range(len(fields))]


class TestTranslate:
    """translate() must be the exact physical counterpart of the
    signature normalization: translating by (dt, da) and re-reading the
    signature at the translated anchor reproduces the original."""

    def test_signature_preserved(self):
        memory, time = _warmed_memory()
        unit = memory.signature_shift_unit()
        before = memory.state_signature(time)
        dt, da = 12_345, 16 * unit
        memory.translate(dt, da)
        assert memory.state_signature(time + dt, da) == before

    def test_counters_untouched(self):
        memory, time = _warmed_memory()
        unit = memory.signature_shift_unit()
        counters = memory.counters()
        memory.translate(1000, unit)
        assert memory.counters() == counters

    def test_unaligned_shift_rejected(self):
        memory, time = _warmed_memory()
        unit = memory.signature_shift_unit()
        with pytest.raises(ValueError, match="shift unit"):
            memory.translate(0, unit + 1)

    def test_behavioural_equivalence(self):
        """The same access stream, shifted in time and space, produces
        identical outcomes on the translated system."""
        machine = four_cluster()
        reference, _ = _warmed_memory()
        translated, time = _warmed_memory()
        unit = translated.signature_shift_unit()
        dt, da = 4096, 8 * unit
        translated.translate(dt, da)
        stream = [
            (0, 128, False), (1, 128, True), (2, 8192 + 256, False),
            (3, 1 << 16, True), (0, 160, False),
        ]
        clock = time + 7
        for cluster, address, is_store in stream:
            plain = reference.access(cluster, address, is_store, clock)
            shifted = translated.access(
                cluster, address + da, is_store, clock + dt
            )
            assert shifted.ready_time == plain.ready_time + dt
            assert shifted.level == plain.level
            assert shifted.mshr_wait == plain.mshr_wait
            assert shifted.bus_wait == plain.bus_wait
            assert shifted.merged == plain.merged
            clock += 13
