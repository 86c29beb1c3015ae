"""The distributed memory system: timing model tying caches, MSHRs,
buses, coherence and main memory together.

Implements the access-latency formula of Section 2.2:

    LAT = LAT_cache                                  (always)
        + MISS_LC * ( NC_waiting_entry               (MSHR full)
                    + NC_waiting_bus                 (bus arbitration)
                    + LAT_memory_bus                 (transfer)
                    + (remote-hit ? LAT_cache : LAT_main_memory) )

with two refinements the paper also models: a bus can be busy with
coherence traffic, and a main-memory access completes earlier when an
earlier miss already started loading the same line (in-flight merging).
"""

from __future__ import annotations

from bisect import bisect_right, insort
from dataclasses import dataclass, field, fields
from math import gcd as _gcd
from typing import Dict, List, Optional, Tuple

from ..machine.config import MachineConfig
from .cache import CacheLine, ClusterCache, LineState
from .coherence import BusOp, MSIController
from .membus import MemoryBusPool

__all__ = [
    "COUNTERS",
    "AccessLevel",
    "AccessResult",
    "MemoryStats",
    "DistributedMemorySystem",
]

# Module-level aliases keep the enum descriptor lookups out of
# access_batch's per-access loop.
_MODIFIED = LineState.MODIFIED
_SHARED = LineState.SHARED
_INVALID = LineState.INVALID
#: ``state -> state.value``: a dict lookup costs less than the enum's
#: ``value`` descriptor, which :meth:`DistributedMemorySystem.snapshot`
#: would call once per resident line.
_STATE_VALUE = {state: state.value for state in LineState}


class AccessLevel:
    """Where an access was satisfied (string constants, not an enum, so
    results aggregate cheaply into dictionaries)."""

    LOCAL = "local"
    REMOTE = "remote"
    MAIN = "main"


@dataclass(frozen=True)
class AccessResult:
    """Timing outcome of one load/store."""

    ready_time: int  # when the data is available to consumers
    level: str  # AccessLevel constant
    mshr_wait: int = 0
    bus_wait: int = 0
    merged: bool = False  # satisfied by an in-flight fill


@dataclass
class MemoryStats:
    """Aggregate counters for one simulation run."""

    accesses: int = 0
    local_hits: int = 0
    remote_hits: int = 0
    main_memory: int = 0
    merged: int = 0
    mshr_wait_cycles: int = 0
    bus_wait_cycles: int = 0
    coherence_upgrades: int = 0
    writebacks: int = 0

    @property
    def local_miss_ratio(self) -> float:
        if self.accesses == 0:
            return 0.0
        return 1.0 - self.local_hits / self.accesses

    def as_dict(self) -> Dict[str, float]:
        return {
            "accesses": self.accesses,
            "local_hits": self.local_hits,
            "remote_hits": self.remote_hits,
            "main_memory": self.main_memory,
            "merged": self.merged,
            "mshr_wait_cycles": self.mshr_wait_cycles,
            "bus_wait_cycles": self.bus_wait_cycles,
            "coherence_upgrades": self.coherence_upgrades,
            "writebacks": self.writebacks,
            "local_miss_ratio": self.local_miss_ratio,
        }


#: Every additive statistic, in counter-vector order, as ``(component,
#: attribute)`` with ``component`` an attribute of
#: :class:`DistributedMemorySystem`: the :class:`MemoryStats` fields,
#: then the memory buses' and the coherence controller's totals.  Each
#: cluster's MSHR wait total follows them
#: (:meth:`DistributedMemorySystem.counter_fields`).  Replay, snapshots
#: and the coverage test all read this one table.
COUNTERS: Tuple[Tuple[str, str], ...] = tuple(
    ("stats", stat.name) for stat in fields(MemoryStats)
) + (
    ("bus", "total_wait_cycles"),
    ("bus", "total_transactions"),
    ("bus", "total_busy_cycles"),
    ("msi", "n_invalidations"),
    ("msi", "n_interventions"),
    ("msi", "n_writebacks"),
)


class DistributedMemorySystem:
    """N local caches + shared memory buses + main memory."""

    def __init__(self, machine: MachineConfig):
        self.machine = machine
        self.caches = [
            ClusterCache(cluster.cache, index)
            for index, cluster in enumerate(machine.clusters)
        ]
        self.bus = MemoryBusPool(machine.memory_bus)
        self.msi = MSIController(self.caches)
        self.stats = MemoryStats()
        # line address -> completion time of an in-flight main-memory fill
        self._main_in_flight: Dict[int, int] = {}
        # Lazily built reference tables for access_batch (no state of its
        # own: every entry aliases a component above).  Invalidated
        # whenever translate()/reset() rebind the underlying containers.
        self._batch_tables: Optional[Tuple] = None

    # ------------------------------------------------------------------
    def access(self, cluster: int, address: int, is_store: bool, time: int) -> AccessResult:
        """Perform one memory access issued by ``cluster`` at ``time``."""
        cache = self.caches[cluster]
        config = cache.config
        line_addr = config.line_address(address)
        self.stats.accesses += 1
        hit_latency = config.hit_latency

        # A line whose fill is still in flight is present in the tags but
        # its data has not arrived; dependent accesses complete no earlier
        # than the fill (secondary misses merge into the MSHR entry).
        # Boundary audit (PR 5): ``<=`` is the correct comparison — the
        # model-wide convention is that anything completing at cycle T is
        # available to a request issued *at* T (consumer stalls require
        # ``operand_ready > issue``, MSHR releases at T satisfy a T
        # allocation, and the supplier/main merge checks below mirror it
        # with ``> bus_grant``).  tests/test_memory_hierarchy.py pins
        # every one of these boundary cycles.
        pending = cache.in_flight.get(line_addr)
        if pending is not None and pending <= time:
            pending = None

        if cache.is_hit(address, is_store):
            cache.touch(address)
            self.stats.local_hits += 1
            ready = time + hit_latency
            if pending is not None:
                self.stats.merged += 1
                return AccessResult(
                    ready_time=max(ready, pending),
                    level=AccessLevel.LOCAL,
                    merged=True,
                )
            return AccessResult(ready_time=ready, level=AccessLevel.LOCAL)

        # Write hit on a Shared line: upgrade (BusUpgr), no data transfer.
        if is_store and cache.state_of(address) is LineState.SHARED:
            request = time + hit_latency
            if pending is not None and pending > request:
                request = pending
            grant = self.bus.acquire(request)
            bus_wait = grant - request
            self.msi.snoop(cluster, line_addr, BusOp.BUS_UPGR)
            cache.set_state(address, LineState.MODIFIED)
            self.stats.local_hits += 1  # data was local; only permission moved
            self.stats.coherence_upgrades += 1
            self.stats.bus_wait_cycles += bus_wait
            return AccessResult(
                ready_time=grant + self.bus.latency,
                level=AccessLevel.LOCAL,
                bus_wait=bus_wait,
            )

        detect = time + hit_latency  # the local lookup that discovers the miss
        mshr_grant = cache.mshr.allocate(detect)
        mshr_wait = mshr_grant - detect
        bus_grant = self.bus.acquire(mshr_grant)
        bus_wait = bus_grant - mshr_grant
        transfer_done = bus_grant + self.bus.latency

        op = BusOp.BUS_RDX if is_store else BusOp.BUS_RD
        snoop = self.msi.snoop(cluster, line_addr, op)

        # A remote holder whose own fill has not completed cannot supply
        # the data yet; such requests resolve through the main-memory path
        # below, merging with the fill already in flight.
        supplier = snoop.supplier
        if supplier is not None:
            supplier_pending = self.caches[supplier].in_flight.get(line_addr)
            if supplier_pending is not None and supplier_pending > bus_grant:
                supplier = None

        merged = False
        if supplier is not None:
            # Remote cache supplies the line: one remote-cache access.
            remote_latency = self.caches[supplier].config.hit_latency
            complete = transfer_done + remote_latency
            level = AccessLevel.REMOTE
            self.stats.remote_hits += 1
        else:
            # Main memory, with in-flight merging across clusters.
            pending = self._main_in_flight.get(line_addr)
            full = transfer_done + self.machine.main_memory_latency
            if pending is not None and pending > bus_grant:
                complete = max(pending, transfer_done)
                self.stats.merged += 1
                merged = True
            else:
                complete = full
            self._main_in_flight[line_addr] = complete
            level = AccessLevel.MAIN
            self.stats.main_memory += 1

        new_state = LineState.MODIFIED if is_store else LineState.SHARED
        victim = cache.fill(line_addr, new_state)
        if victim is not None and victim[1] is LineState.MODIFIED:
            # Dirty eviction: the writeback occupies a bus slot later but
            # does not delay the requester.
            self.bus.acquire(complete)
            self.stats.writebacks += 1
        if snoop.writeback:
            self.stats.writebacks += 1

        cache.mshr.hold(complete)
        cache.in_flight[line_addr] = complete
        self.stats.mshr_wait_cycles += mshr_wait
        self.stats.bus_wait_cycles += bus_wait
        return AccessResult(
            ready_time=complete,
            level=level,
            mshr_wait=mshr_wait,
            bus_wait=bus_wait,
            merged=merged,
        )

    # ------------------------------------------------------------------
    def access_batch(
        self,
        clusters: List[int],
        addresses: List[int],
        stores: List[bool],
        nominals: List[int],
        time_base: int,
        slacks: List[int],
        ready_out: List[Optional[int]],
        start: int,
        end: int,
    ) -> int:
        """Run accesses ``start..end`` of the parallel request lists.

        The batched counterpart of :meth:`access`, built for the
        vectorized simulate engine: one Python call resolves a whole run
        of accesses, with every per-access lookup (cache geometry, tag
        scan, MSHR, bus, snoop) inlined and all statistics accumulated
        locally and flushed once.  Semantics are line-for-line those of
        :meth:`access` — the scalar method stays the reference, and
        ``tests/test_simulator_vectorized.py`` proves bit-identical
        results *and* state.
        Two shortcuts keep a miss free of sorts and allocations without
        changing any state the scalar walk would reach: the MSHR's
        release list is sorted (the :class:`~repro.memory.cache.MSHR`
        invariant), so a grant is a prefix drop and an index; and a
        direct-mapped set holding one line is refilled by rewriting
        that line's tag and state in place, which leaves the set equal
        to the scalar fill's evict-and-append.

        Access ``i`` issues at ``time_base + nominals[i]``; issue times
        must be non-decreasing across the batch (the caller's stall
        offset is frozen at ``time_base`` — that is what makes the batch
        valid).  ``ready_out[i]`` receives each access's ready time.

        Returns the number of accesses consumed.  The batch stops early
        — after recording the access — when an access's ready time
        exceeds ``issue + slacks[i]``: such a result may stall a
        downstream consumer, which changes later issue times, so the
        caller must re-anchor before continuing.
        """
        tables = self._batch_tables
        if tables is None:
            tables = self._batch_tables = self._build_batch_tables()
        rows, bus_busy, bus_latency, main_latency = tables
        main_in_flight = self._main_in_flight
        modified = _MODIFIED
        shared = _SHARED
        invalid = _INVALID

        # Locally accumulated statistics, flushed before the return.
        d_local = d_merged = d_remote = d_main = 0
        d_mshr_wait = d_bus_wait = d_wb_wait = d_upgrades = d_writebacks = 0
        d_bus_txn = d_inval = d_interv = d_msi_wb = 0

        index = start
        while index < end:
            (
                sets, in_flight, mshr, release, n_entries, line_size,
                n_sets, hit_latency, assoc, dirty, others,
            ) = rows[clusters[index]]
            time = time_base + nominals[index]
            line_index = addresses[index] // line_size
            set_index = line_index % n_sets
            tag = line_index // n_sets
            line_addr = line_index * line_size

            pending = in_flight.get(line_addr)
            if pending is not None and pending <= time:
                pending = None

            ways = sets.get(set_index)
            found = None
            if ways:
                for line in ways:
                    if line.tag == tag and line.state is not invalid:
                        found = line
                        break
            is_store = stores[index]

            if found is not None:
                if found.state is modified or not is_store:
                    # Local hit (same condition as ClusterCache.is_hit).
                    if ways[-1] is not found:
                        ways.append(ways.pop(ways.index(found)))  # LRU
                        dirty.add(set_index)
                    d_local += 1
                    ready = time + hit_latency
                    if pending is not None:
                        d_merged += 1
                        if pending > ready:
                            ready = pending
                    ready_out[index] = ready
                    index += 1
                    if ready > time + slacks[index - 1]:
                        break
                    continue

                # Write hit on a Shared line: upgrade, no data transfer.
                request = time + hit_latency
                if pending is not None and pending > request:
                    request = pending
                d_bus_txn += 1
                if bus_busy is None:
                    grant = request
                else:
                    best_time = min(bus_busy)
                    grant = request if request > best_time else best_time
                    bus_busy[bus_busy.index(best_time)] = grant + bus_latency
                    d_bus_wait += grant - request
                # Snoop BusUpgr: invalidate every remote copy.
                supplied = False
                for o_sets, o_dirty, same, o_ls, o_n_sets, _, _ in others:
                    if same:
                        o_set = set_index
                        o_tag = tag
                    else:
                        o_line_index = line_addr // o_ls
                        o_set = o_line_index % o_n_sets
                        o_tag = o_line_index // o_n_sets
                    o_ways = o_sets.get(o_set)
                    if not o_ways:
                        continue
                    for o_line in o_ways:
                        if o_line.tag == o_tag and o_line.state is not invalid:
                            if o_line.state is modified:
                                d_msi_wb += 1
                                supplied = True
                            o_line.state = invalid
                            d_inval += 1
                            o_dirty.add(o_set)
                            break
                if supplied:
                    d_interv += 1
                found.state = modified
                dirty.add(set_index)
                d_local += 1  # data was local; only permission moved
                d_upgrades += 1
                ready = grant + bus_latency
                ready_out[index] = ready
                index += 1
                if ready > time + slacks[index - 1]:
                    break
                continue

            # Miss: MSHR allocation, bus, snoop, fill — the full path.
            detect = time + hit_latency
            if release and release[0] <= detect:
                del release[: bisect_right(release, detect)]
            held = len(release)
            if held < n_entries:
                mshr_grant = detect
            else:
                mshr_grant = release[held - n_entries]
                mshr.total_wait_cycles += mshr_grant - detect
                d_mshr_wait += mshr_grant - detect

            d_bus_txn += 1
            if bus_busy is None:
                bus_grant = mshr_grant
            else:
                best_time = min(bus_busy)
                bus_grant = mshr_grant if mshr_grant > best_time else best_time
                bus_busy[bus_busy.index(best_time)] = bus_grant + bus_latency
                d_bus_wait += bus_grant - mshr_grant
            transfer_done = bus_grant + bus_latency

            # Snoop BusRd / BusRdX across the other caches.
            supplier = None
            snoop_writeback = False
            for other in others:
                o_sets, o_dirty, same, o_ls, o_n_sets, _, _ = other
                if same:
                    o_set = set_index
                    o_tag = tag
                else:
                    o_line_index = line_addr // o_ls
                    o_set = o_line_index % o_n_sets
                    o_tag = o_line_index // o_n_sets
                o_ways = o_sets.get(o_set)
                if not o_ways:
                    continue
                for o_line in o_ways:
                    if o_line.tag == o_tag and o_line.state is not invalid:
                        if not is_store:  # BUS_RD
                            if supplier is None:
                                supplier = other
                            if o_line.state is modified:
                                snoop_writeback = True
                                d_msi_wb += 1
                            o_line.state = shared
                        else:  # BUS_RDX
                            if o_line.state is modified:
                                snoop_writeback = True
                                d_msi_wb += 1
                            if supplier is None:
                                supplier = other
                            o_line.state = invalid
                            d_inval += 1
                        o_dirty.add(o_set)
                        break
            if supplier is not None:
                d_interv += 1
                # supplier[5] is its in-flight fills, [6] its hit latency.
                supplier_pending = supplier[5].get(line_addr)
                if (
                    supplier_pending is not None
                    and supplier_pending > bus_grant
                ):
                    supplier = None

            if supplier is not None:
                complete = transfer_done + supplier[6]
                d_remote += 1
            else:
                pending_main = main_in_flight.get(line_addr)
                if pending_main is not None and pending_main > bus_grant:
                    complete = (
                        pending_main
                        if pending_main > transfer_done
                        else transfer_done
                    )
                    d_merged += 1
                else:
                    complete = transfer_done + main_latency
                main_in_flight[line_addr] = complete
                d_main += 1

            # Fill (inline ClusterCache.fill).
            new_state = modified if is_store else shared
            dirty.add(set_index)
            evicted = None
            if ways is None:
                sets[set_index] = [CacheLine(tag, new_state)]
            elif assoc == 1 and len(ways) == 1 and (
                ways[0].tag == tag or ways[0].state is not invalid
            ):
                # One line in a direct-mapped set: revive it, or evict it
                # by rewriting it as the new line.
                line = ways[0]
                if line.tag != tag:
                    evicted = line.state
                    line.tag = tag
                line.state = new_state
            else:
                revived = None
                for line in ways:
                    if line.tag == tag:
                        revived = line
                        break
                if revived is not None:
                    revived.state = new_state
                    ways.append(ways.pop(ways.index(revived)))  # touch
                else:
                    live = [l for l in ways if l.state is not invalid]
                    if len(live) >= assoc:
                        ways.remove(live[0])
                        evicted = live[0].state
                    ways.append(CacheLine(tag, new_state))
            if evicted is modified:
                # Dirty eviction: the writeback occupies a bus slot later
                # but does not delay the requester.
                d_bus_txn += 1
                if bus_busy is not None:
                    best_time = min(bus_busy)
                    grant = complete if complete > best_time else best_time
                    bus_busy[bus_busy.index(best_time)] = grant + bus_latency
                    d_wb_wait += grant - complete
                d_writebacks += 1
            if snoop_writeback:
                d_writebacks += 1

            # MSHR hold: keep the release list sorted.
            if release and complete < release[-1]:
                insort(release, complete)
            else:
                release.append(complete)
            if len(release) > mshr.peak_occupancy:
                mshr.peak_occupancy = len(release)
            in_flight[line_addr] = complete
            ready_out[index] = complete
            index += 1
            if complete > time + slacks[index - 1]:
                break

        stats = self.stats
        stats.accesses += index - start
        stats.local_hits += d_local
        stats.merged += d_merged
        if d_bus_txn:
            stats.remote_hits += d_remote
            stats.main_memory += d_main
            stats.mshr_wait_cycles += d_mshr_wait
            stats.bus_wait_cycles += d_bus_wait
            stats.coherence_upgrades += d_upgrades
            stats.writebacks += d_writebacks
            bus = self.bus
            bus.total_transactions += d_bus_txn
            bus.total_busy_cycles += d_bus_txn * bus_latency
            bus.total_wait_cycles += d_bus_wait + d_wb_wait
            msi = self.msi
            msi.n_invalidations += d_inval
            msi.n_interventions += d_interv
            msi.n_writebacks += d_msi_wb
        return index - start

    def _build_batch_tables(self) -> tuple:
        """access_batch's reference tables: one row per cluster, then
        the bus horizons (``None`` when unbounded), bus latency and
        main-memory latency.

        A row is the cache's sets, in-flight fills, MSHR, sorted release
        list, MSHR size, line size, set count, hit latency,
        associativity, dirty sets and the other caches in cluster
        order.  Each other cache is its sets, dirty sets, whether its
        geometry matches the row's (then a snoop reuses the requester's
        set index and tag), line size, set count, in-flight fills and
        hit latency.  Every container is an alias, so nothing here is
        state of its own.
        """
        rows = []
        for cache in self.caches:
            config = cache.config
            others = tuple(
                (
                    other._sets,
                    other._dirty_sets,
                    other.config.line_size == config.line_size
                    and other.config.n_sets == config.n_sets,
                    other.config.line_size,
                    other.config.n_sets,
                    other.in_flight,
                    other.config.hit_latency,
                )
                for other in self.caches
                if other is not cache
            )
            rows.append(
                (
                    cache._sets,
                    cache.in_flight,
                    cache.mshr,
                    cache.mshr._release_times,
                    cache.mshr.n_entries,
                    config.line_size,
                    config.n_sets,
                    config.hit_latency,
                    config.associativity,
                    cache._dirty_sets,
                    others,
                )
            )
        return (
            rows,
            self.bus._busy_until,
            self.bus.config.latency,
            self.machine.main_memory_latency,
        )

    # ------------------------------------------------------------------
    # Steady-state support: translation-normalized signatures + counters
    # ------------------------------------------------------------------
    def signature_shift_unit(self) -> int:
        """Address-shift unit under which signatures are exact.

        A uniform shift of the whole address stream commutes with line
        and set mapping only when it is a multiple of every cache's line
        size; shifts passed to :meth:`state_signature` must be multiples
        of this value.
        """
        unit = 1
        for cache in self.caches:
            line = cache.config.line_size
            unit = unit * line // _gcd(unit, line)
        return unit

    def state_signature(
        self,
        base: int,
        addr_shift: int = 0,
        invalid_out: Optional[List[Tuple[int, int]]] = None,
    ) -> Tuple[object, ...]:
        """Hashable canonical form of all timing-relevant state.

        Two memory systems with equal signatures behave identically on
        any future access stream issued at times ``>= base`` whose
        addresses differ by ``addr_shift``: tags/MSI/LRU state, pending
        fills, MSHR occupancy, bus horizons and in-flight main-memory
        fills are all covered, each normalized to ``base``-relative time
        and shifted down by ``addr_shift`` (which must be a multiple of
        :meth:`signature_shift_unit`).  Aggregate statistics are *not*
        part of the signature — they record the past, not the future.

        ``invalid_out`` (a list) strips INVALID cache lines from the
        signature, collecting ``(cluster index, absolute line address)``
        pairs instead — the cluster index preserves cache identity, so
        same-address scars in different caches never collapse or cancel
        in a caller's set arithmetic; the behavioural guarantee then
        holds only for streams that never touch those addresses (see
        :meth:`~repro.memory.cache.ClusterCache.frag_sets`).

        This is the signature a :meth:`state_probe` stands for, rebuilt
        at once; the steady-state detectors compare the cheaper probes.
        """
        return self.probe_signature(
            self.state_probe(base, addr_shift, invalid_out is not None),
            invalid_out,
        )

    def state_probe(
        self, base: int, addr_shift: int = 0, live: bool = False
    ) -> Tuple[tuple, tuple]:
        """Two-level form of :meth:`state_signature`: ``(key, witness)``.

        ``key`` is hashable and cheap: each cache's set-list digest,
        normalized by ``addr_shift``, plus the signature's exact fills,
        MSHR, bus and main-memory parts.  ``witness`` holds a shallow
        copy of every cache's immutable per-set fragments, so
        :meth:`probe_signature` can rebuild the signature exactly at any
        later time.  ``live`` selects the ``invalid_out`` form (live
        lines only).  Equal signatures always give equal keys; equal
        keys give equal signatures unless two digests collide, which
        :meth:`same_state` rules out.  Costs O(sets touched since the
        previous probe) plus one dict copy per cache, where a signature
        assembles and sorts every resident set.
        """
        digests, exact, frags = zip(
            *(cache.state_probe(base, addr_shift, live) for cache in self.caches)
        )
        key = (
            digests,
            exact,
            self.bus.state_signature(base),
            self._main_fills(base, addr_shift),
        )
        return key, (addr_shift, live, frags)

    def probe_signature(
        self,
        probe: Tuple[tuple, tuple],
        invalid_out: Optional[List[Tuple[int, int]]] = None,
        live_prune: Optional[object] = None,
        live_out: Optional[List[Tuple[int, int, str]]] = None,
    ) -> Tuple[object, ...]:
        """The :meth:`state_signature` a :meth:`state_probe` stands for,
        rebuilt from its witness (the ``invalid_out`` form for a live
        probe).

        ``invalid_out`` collects ``(cluster index, line address)`` for
        every invalid line, in fragment order (callers use it as a set).
        On a live probe, ``live_prune``/``live_out`` also strip
        provably unreachable live lines under the per-line proof
        documented on
        :meth:`~repro.memory.cache.ClusterCache.frag_sets`: the
        predicate must certify the line's address is unreachable by any
        cluster *and* its set is unreachable by its own cluster for the
        whole remaining access stream.
        """
        (_digests, exact, bus, main), (addr_shift, live, frags) = probe
        signatures = []
        for index, cache in enumerate(self.caches):
            collected: Optional[List[int]] = (
                [] if invalid_out is not None else None
            )
            sets = cache.frag_sets(
                frags[index].items(), addr_shift, live, collected,
                live_prune, live_out,
            )
            signatures.append((sets,) + exact[index])
            if collected:
                invalid_out.extend((index, address) for address in collected)
        return (tuple(signatures), bus, main)

    def same_state(
        self, probe_a: Tuple[tuple, tuple], probe_b: Tuple[tuple, tuple]
    ) -> bool:
        """True exactly when two probes' signatures are equal: equal keys
        first, then the set lists rebuilt from both witnesses."""
        return probe_a[0] == probe_b[0] and (
            self.probe_signature(probe_a) == self.probe_signature(probe_b)
        )

    def _main_fills(self, base: int, addr_shift: int) -> tuple:
        """The signature's main-memory part: in-flight main-memory fills
        completing after ``base``, shifted and made ``base``-relative."""
        main_in_flight = self._main_in_flight
        if main_in_flight:
            # Same pruning as the per-cache fills: completions at or
            # before ``base`` can never merge with a future miss, so the
            # probe drops them in place (preserving batch-table aliases)
            # instead of re-filtering an ever-growing dict every probe.
            expired = [a for a, t in main_in_flight.items() if t <= base]
            for address in expired:
                del main_in_flight[address]
        return tuple(
            sorted(
                (address - addr_shift, t - base)
                for address, t in main_in_flight.items()
            )
        )

    def occupied_sets(self) -> Tuple[int, ...]:
        """Each cache's count of non-empty sets: the length of its set
        list in the whole-set signature.  No access, translation or
        restore leaves a set's way list empty, so this is the size of
        each set map, and it never falls between two resets."""
        return tuple(len(cache._sets) for cache in self.caches)

    def counters(self) -> Tuple[int, ...]:
        """The counter vector: every additive statistic, in
        :meth:`counter_fields` order (for delta replay).

        The detectors read one at every boundary they observe, so the
        fields are read by hand here rather than through the table;
        ``tests/test_memory_signature_coverage.py`` binds each position
        to its :meth:`counter_fields` entry.
        """
        stats = self.stats
        bus = self.bus
        msi = self.msi
        return (
            stats.accesses,
            stats.local_hits,
            stats.remote_hits,
            stats.main_memory,
            stats.merged,
            stats.mshr_wait_cycles,
            stats.bus_wait_cycles,
            stats.coherence_upgrades,
            stats.writebacks,
            bus.total_wait_cycles,
            bus.total_transactions,
            bus.total_busy_cycles,
            msi.n_invalidations,
            msi.n_interventions,
            msi.n_writebacks,
        ) + tuple(cache.mshr.total_wait_cycles for cache in self.caches)

    def counter_fields(self) -> List[Tuple[object, str]]:
        """``(owner, attribute)`` of each counter-vector position: the
        :data:`COUNTERS` table, then each cluster's MSHR wait total."""
        return [
            (getattr(self, component), attribute)
            for component, attribute in COUNTERS
        ] + [(cache.mshr, "total_wait_cycles") for cache in self.caches]

    def translate(self, time_delta: int, addr_shift: int) -> None:
        """Physically shift all live state by ``(time_delta, addr_shift)``.

        The concrete counterpart of :meth:`state_signature`'s
        normalization: after translation, an access stream issued
        ``time_delta`` cycles later at addresses ``addr_shift`` bytes
        higher behaves exactly as the original stream would have before.
        The steady-state machinery uses this to re-anchor the memory
        system after fast-forwarding a detected periodic phase, so that
        whatever executes next (the tail of the loop entry, or further
        entries) sees the state full simulation would have produced.
        ``addr_shift`` must be a multiple of
        :meth:`signature_shift_unit`; aggregate statistics are not
        touched (replayed deltas are applied via :meth:`add_counters`).
        """
        unit = self.signature_shift_unit()
        if addr_shift % unit != 0:
            raise ValueError(
                f"addr_shift {addr_shift} is not a multiple of the "
                f"signature shift unit {unit}"
            )
        for cache in self.caches:
            cache.translate(time_delta, addr_shift)
        self.bus.translate(time_delta)
        if addr_shift or time_delta:
            self._main_in_flight = {
                address + addr_shift: t + time_delta
                for address, t in self._main_in_flight.items()
            }
        self._invalidate_derived()

    def _invalidate_derived(self) -> None:
        """Drop every lazily derived view of the live state, in one place.

        Two such views exist: access_batch's reference tables (which
        alias containers that :meth:`translate`/:meth:`reset` rebind)
        and the per-set signature fragments cached by each
        :class:`ClusterCache`.  Any operation that rewrites state behind
        the mutator hooks — translation, reset, warm-state restore —
        must funnel through here so neither view can go stale.
        """
        self._batch_tables = None
        for cache in self.caches:
            cache.invalidate_fragments()

    def add_counters(self, delta: Tuple[int, ...], times: int = 1) -> None:
        """Apply ``times`` repetitions of a counter-vector delta.

        The inverse of two :meth:`counters` snapshots: replaying ``n``
        memoized steady-state entries adds ``n`` deltas so aggregate
        statistics match a full simulation exactly.  ``peak_occupancy``
        is deliberately untouched — it is a maximum, and a replayed
        steady-state entry repeats behaviour already observed.
        """
        for (owner, attribute), step in zip(self.counter_fields(), delta):
            setattr(owner, attribute, getattr(owner, attribute) + step * times)

    # ------------------------------------------------------------------
    def check_coherence(self, addresses: List[int]) -> None:
        """Assert MSI invariants for a set of line addresses (tests)."""
        for address in addresses:
            self.msi.check_invariants(address)

    def reset(self) -> None:
        """Clear all cache state and statistics: a cold start, equal to
        a freshly built system."""
        for cache in self.caches:
            cache.clear()
            cache.mshr.reset_stats()
        busy = self.bus._busy_until
        if busy is not None:
            busy[:] = [0] * len(busy)
        self.bus.reset_stats()
        self.msi.reset_stats()
        self.stats = MemoryStats()
        self._main_in_flight.clear()
        self._invalidate_derived()

    # ------------------------------------------------------------------
    # Warm-state support: deep, picklable state snapshots
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Deep, picklable copy of all live state *and* statistics.

        The warm-state store content-addresses these snapshots so that
        cells sharing a schedule skip re-simulating warm-up; restoring
        one must therefore reproduce the source system bit for bit —
        including aggregate counters, which the snapshotted run had
        already accumulated by the capture point.  Only plain ints,
        strings, tuples, dicts and lists appear in the result, so it
        pickles compactly and loads without importing simulator state.
        """
        busy = self.bus._busy_until
        value = _STATE_VALUE
        return {
            "caches": [
                {
                    "sets": {
                        index: [(line.tag, value[line.state]) for line in ways]
                        for index, ways in cache._sets.items()
                    },
                    "in_flight": dict(cache.in_flight),
                    "mshr": (
                        list(cache.mshr._release_times),
                        cache.mshr.peak_occupancy,
                    ),
                }
                for cache in self.caches
            ],
            "bus": None if busy is None else list(busy),
            "counters": self.counters(),
            "main_in_flight": dict(self._main_in_flight),
        }

    def restore(self, snap: dict) -> None:
        """Rebuild the exact state captured by :meth:`snapshot`.

        Valid only on a system built from the same machine
        configuration (the warm-state store keys snapshots so this
        holds by construction).  Dict insertion order is part of the
        copy, so signatures and batch walks iterate identically to the
        source system's.
        """
        for cache, data in zip(self.caches, snap["caches"]):
            cache._sets = {
                index: [
                    CacheLine(tag=tag, state=LineState(state))
                    for tag, state in ways
                ]
                for index, ways in data["sets"].items()
            }
            cache.in_flight = dict(data["in_flight"])
            release_times, peak = data["mshr"]
            # Copied, so the snapshot can be restored again; already
            # sorted, since the MSHR keeps its release list sorted.
            cache.mshr._release_times = list(release_times)
            cache.mshr.peak_occupancy = peak
        busy = snap["bus"]
        self.bus._busy_until = None if busy is None else list(busy)
        self.stats = MemoryStats()
        for (owner, attribute), value in zip(
            self.counter_fields(), snap["counters"]
        ):
            setattr(owner, attribute, value)
        self._main_in_flight = dict(snap["main_in_flight"])
        self._invalidate_derived()
