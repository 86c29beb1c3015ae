"""Incremental state-signature equivalence.

The per-set fragment cache behind ``state_probe`` and
``state_signature`` must be *exactly* transparent: after any
interleaving of mutations — scalar accesses, batched accesses (whose
inlined hit/fill/snoop paths mark dirtiness separately), translations
and resets — the fragment-served signature must equal both

* the from-scratch ``_signature_walk`` over the same state, and
* a recomputation with every fragment dropped (``invalidate_fragments``).

Order matters: the fast path is probed FIRST, so a mutation hook missed
anywhere would leave a stale fragment behind and show up as a mismatch
here.  A never-probed twin system receiving the identical stream pins
the other direction: probing (which prunes expired in-flight entries in
place) must never change observable behaviour.
"""

import operator
import random
from dataclasses import replace

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.machine import four_cluster, heterogeneous, two_cluster
from repro.memory.hierarchy import DistributedMemorySystem


def _two_way():
    """The 2-cluster machine with 2-way caches: the presets are all
    direct-mapped, so only this one puts several live lines in a set."""
    machine = two_cluster()
    cluster = machine.clusters[0]
    two_way = replace(cluster, cache=replace(cluster.cache, associativity=2))
    return replace(machine, name="2-cluster-2way", clusters=(two_way,) * 2)


_MACHINES = [two_cluster, four_cluster, heterogeneous, _two_way]
_INFINITE = 1 << 60


def _drive(memory, rng, n_ops, probe=None):
    """Random mutation stream; calls ``probe(time)`` now and then."""
    n_clusters = len(memory.caches)
    time = 0
    unit = memory.signature_shift_unit()
    for _ in range(n_ops):
        action = rng.choices(
            ["access", "batch", "translate", "reset", "probe"],
            weights=[6, 4, 1, 1, 3],
        )[0]
        if action == "access":
            time += rng.randrange(0, 4)
            memory.access(
                rng.randrange(n_clusters),
                rng.randrange(0, 4096) * rng.choice([1, 4, 8]),
                rng.random() < 0.35,
                time,
            )
        elif action == "batch":
            k = rng.randrange(1, 12)
            clusters, addresses, stores, nominals = [], [], [], []
            for _ in range(k):
                time += rng.randrange(0, 3)
                clusters.append(rng.randrange(n_clusters))
                addresses.append(rng.randrange(0, 4096) * rng.choice([1, 8]))
                stores.append(rng.random() < 0.35)
                nominals.append(time)
            ready = [None] * k
            slacks = [rng.choice([0, 3, _INFINITE]) for _ in range(k)]
            index = 0
            while index < k:
                consumed = memory.access_batch(
                    clusters, addresses, stores, nominals, 0, slacks,
                    ready, index, k,
                )
                assert consumed >= 1
                index += consumed
        elif action == "translate":
            delta_t = rng.randrange(0, 50)
            delta_a = rng.randrange(-4, 5) * unit
            memory.translate(delta_t, delta_a)
            time += delta_t
        elif action == "reset":
            memory.reset()
            time = 0
        elif probe is not None:
            probe(time)
    return time


class TestIncrementalSignature:
    @given(seed=st.integers(0, 100_000))
    @settings(
        max_examples=40, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_fast_path_equals_from_scratch(self, seed):
        rng = random.Random(seed)
        memory = DistributedMemorySystem(rng.choice(_MACHINES)())
        unit = memory.signature_shift_unit()

        def probe(time):
            base = time - rng.randrange(0, 8)
            shift = rng.randrange(-2, 3) * unit
            # Non-destructive reference walk first, then the
            # fragment-served fast path (which prunes and caches), then
            # a full recomputation with every fragment dropped.
            walks = tuple(
                cache._signature_walk(base, shift)
                for cache in memory.caches
            )
            fast = memory.state_signature(base, shift)
            assert fast[0] == walks, seed
            for cache in memory.caches:
                cache.invalidate_fragments()
            assert memory.state_signature(base, shift) == fast, seed

        _drive(memory, rng, n_ops=60, probe=probe)
        probe(_drive(memory, rng, n_ops=5))

    @given(seed=st.integers(0, 100_000))
    @settings(
        max_examples=25, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_probing_is_behaviour_invisible(self, seed):
        """A system probed throughout must stay bit-identical to a twin
        running the same stream unprobed.

        Probes prune in-flight entries expired relative to their base,
        so — like the steady-state detectors — they query at the current
        simulation time (monotone between resets; a reset clears the
        in-flight tables in both systems).  The final signatures, the
        counters, and the behaviour of a shared continuation stream must
        all be unaffected by the extra probes."""
        machine = random.Random(seed).choice(_MACHINES)()
        probed = DistributedMemorySystem(machine)
        silent = DistributedMemorySystem(machine)
        end = _drive(
            probed, random.Random(seed), n_ops=60,
            probe=lambda time: probed.state_signature(time),
        )
        silent_end = _drive(
            silent, random.Random(seed), n_ops=60, probe=lambda time: None
        )
        assert end == silent_end
        assert probed.counters() == silent.counters()
        assert probed.state_signature(end) == silent.state_signature(end)
        # The pruned system must keep *behaving* identically too:
        rng = random.Random(seed + 1)
        n_clusters = len(machine.clusters)
        for step in range(40):
            cluster = rng.randrange(n_clusters)
            address = rng.randrange(0, 4096) * rng.choice([1, 4, 8])
            store = rng.random() < 0.35
            end += rng.randrange(0, 4)
            a = probed.access(cluster, address, store, end)
            b = silent.access(cluster, address, store, end)
            assert (a.ready_time, a.level, a.merged) == (
                b.ready_time, b.level, b.merged
            ), (seed, step)
        assert probed.counters() == silent.counters()
        assert probed.state_signature(end) == silent.state_signature(end)

    @given(seed=st.integers(0, 100_000))
    @settings(
        max_examples=15, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_invalid_strip_path_agrees(self, seed):
        """The invalid-stripping probe (served from the same fragments)
        must match a from-scratch walk with the same escape hatch."""
        rng = random.Random(seed)
        memory = DistributedMemorySystem(rng.choice(_MACHINES)())
        time = _drive(memory, rng, n_ops=50)
        walk_invalid, walks = [], []
        for cache in memory.caches:
            collected = []
            walks.append(cache._signature_walk(time, 0, collected))
            walk_invalid.append(collected)
        fast_invalid = []
        fast = memory.state_signature(time, 0, invalid_out=fast_invalid)
        assert fast[0] == tuple(walks), seed
        # Ghost lists are used as sets: the fragments list them in
        # fragment order, the walk in set order.
        assert sorted(fast_invalid) == sorted(
            (index, address)
            for index, collected in enumerate(walk_invalid)
            for address in collected
        ), seed


class TestStateProbe:
    """``state_probe`` stands for ``state_signature`` without assembling
    it: the detectors compare probe keys at every boundary and rebuild
    signatures from the witnesses only when keys match.  These tests pin
    the proof obligations that makes sound, on the same mutation
    streams: equal signatures give equal keys (both forms, under any
    shift), ``same_state`` is exactly signature equality, the witness
    keeps the probed state however the cache moves on, its ghost lines
    are the ``invalid_out`` lines, and its pruned walk is the reference
    walk's."""

    @staticmethod
    def _twin(memory, time, unit, rng):
        """A copy of ``memory`` translated by a random (time, address)
        step, with the probe arguments that see it as the same state."""
        twin = DistributedMemorySystem(memory.machine)
        twin.restore(memory.snapshot())
        delta_t = rng.randrange(0, 100)
        delta_a = rng.randrange(-3, 4) * unit
        twin.translate(delta_t, delta_a)
        return twin, delta_t, delta_a

    @given(seed=st.integers(0, 100_000))
    @settings(
        max_examples=30, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_keys_and_same_state_follow_signatures(self, seed):
        rng = random.Random(seed)
        memory = DistributedMemorySystem(rng.choice(_MACHINES)())
        unit = memory.signature_shift_unit()
        seen = []  # (live, signature, probe) of every probe so far

        def probe(time):
            base = time - rng.randrange(0, 8)
            shift = rng.randrange(-2, 3) * unit
            twin, delta_t, delta_a = self._twin(memory, time, unit, rng)
            for live in (False, True):
                form = [] if live else None
                signature = memory.state_signature(base, shift, form)
                mine = memory.state_probe(base, shift, live)
                theirs = twin.state_probe(base + delta_t, shift + delta_a, live)
                assert mine[0] == theirs[0], seed
                assert memory.same_state(mine, theirs), seed
                assert memory.probe_signature(mine) == signature, seed
                for other_live, other_signature, other in seen[-6:]:
                    if other_live == live:
                        assert memory.same_state(mine, other) == (
                            signature == other_signature
                        ), seed
                seen.append((live, signature, mine))

        _drive(memory, rng, n_ops=60, probe=probe)
        # The witnesses are snapshots: every earlier probe still rebuilds
        # the signature taken when it was probed.
        for _live, signature, earlier in seen:
            assert memory.probe_signature(earlier) == signature, seed
        # Equal signatures give equal keys across the whole stream too;
        # distinct ones get distinct keys, bar a 2**-61 digest
        # collision, so a digest that stopped discriminating states
        # would fail here.
        for live in (False, True):
            keys = {}
            for probe_live, signature, probed in seen:
                if probe_live == live:
                    keys.setdefault(signature, set()).add(probed[0])
            assert all(len(found) == 1 for found in keys.values()), seed
            assert len(set().union(*keys.values())) == len(keys), seed

    @given(seed=st.integers(0, 100_000))
    @settings(
        max_examples=30, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_witness_ghosts_and_pruned_walk(self, seed):
        rng = random.Random(seed)
        memory = DistributedMemorySystem(rng.choice(_MACHINES)())
        unit = memory.signature_shift_unit()

        def probe(time):
            base = time - rng.randrange(0, 8)
            shift = rng.randrange(-2, 3) * unit
            live_probe = memory.state_probe(base, shift, live=True)
            ghosts = []
            memory.state_signature(base, shift, invalid_out=ghosts)
            witness_ghosts = []
            memory.probe_signature(live_probe, invalid_out=witness_ghosts)
            assert sorted(witness_ghosts) == sorted(ghosts), seed
            # A random prune predicate: any set of live lines.
            pruned = {
                (cache.cluster_id, cache._line_address(index, line.tag))
                for cache in memory.caches
                for index, ways in cache._sets.items()
                for line in ways
                if rng.random() < 0.4
            }

            def live_prune(cluster, address):
                return (cluster, address) in pruned

            walk_out, witness_out = [], []
            walks = tuple(
                cache._signature_walk(base, shift, [], live_prune, walk_out)
                for cache in memory.caches
            )
            signature = memory.probe_signature(
                live_probe, live_prune=live_prune, live_out=witness_out
            )
            assert signature[0] == walks, seed
            assert sorted(witness_out) == sorted(walk_out), seed

        _drive(memory, rng, n_ops=60, probe=probe)


class TestOccupiedSets:
    """``occupied_sets`` (each cache's count of non-empty sets) lets the
    entry detector skip its probe wherever the count grew.  That is
    exact only because no way list is ever left empty: the count is
    then each set map's size and the length of each cache's set list in
    the whole-set signature, and no mutation but a reset removes a
    set."""

    @given(seed=st.integers(0, 100_000))
    @settings(
        max_examples=25, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_no_way_list_is_left_empty(self, seed):
        rng = random.Random(seed)
        machine = rng.choice(_MACHINES)()
        memory = DistributedMemorySystem(machine)
        # A reset replaces the statistics object; between two resets no
        # count may fall.
        seen = {"stats": memory.stats, "occupied": memory.occupied_sets()}

        def check(system, time):
            for cache in system.caches:
                assert all(cache._sets.values())
            occupied = system.occupied_sets()
            caches = system.state_signature(time)[0]
            assert occupied == tuple(
                len(sets) for sets, _fills, _mshr in caches
            )
            if system.stats is seen["stats"]:
                assert all(map(operator.ge, occupied, seen["occupied"]))
            seen.update(stats=system.stats, occupied=occupied)

        time = _drive(memory, rng, 200, lambda t: check(memory, t))
        check(memory, time)
        occupied = memory.occupied_sets()
        memory.translate(7, 3 * memory.signature_shift_unit())
        assert memory.occupied_sets() == occupied
        check(memory, time + 7)
        restored = DistributedMemorySystem(machine)
        restored.restore(memory.snapshot())
        assert restored.occupied_sets() == occupied
        check(restored, time + 7)
