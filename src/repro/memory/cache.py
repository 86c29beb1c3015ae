"""Per-cluster L1 data cache: MSI line states plus a non-blocking MSHR.

Each cluster owns one of these (Section 2.1): direct-mapped (the model
also supports set-associativity), non-blocking with a fixed number of
MSHR entries, kept coherent with the other clusters through the snoopy
MSI protocol implemented by :mod:`repro.memory.coherence`.
"""

from __future__ import annotations

import enum
from bisect import bisect_right, insort
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from ..machine.config import CacheConfig

__all__ = ["LineState", "CacheLine", "MSHR", "ClusterCache"]


class LineState(enum.Enum):
    """MSI coherence states."""

    MODIFIED = "M"
    SHARED = "S"
    INVALID = "I"


@dataclass
class CacheLine:
    """One resident cache line."""

    tag: int
    state: LineState


class MSHR:
    """Miss information/status holding registers (lockup-free cache [12]).

    Each outstanding miss holds one entry from allocation until the fill
    completes.  When all entries are busy a new miss must wait — the
    NC_WaitingEntry term of the paper's latency formula.

    ``_release_times`` is kept sorted and is changed in place, so
    :meth:`~repro.memory.hierarchy.DistributedMemorySystem.access_batch`
    can alias it: only :meth:`translate` and a warm-state restore touch
    it wholesale.
    """

    def __init__(self, n_entries: int):
        if n_entries < 1:
            raise ValueError("MSHR needs at least one entry")
        self.n_entries = n_entries
        self._release_times: List[int] = []
        self.total_wait_cycles = 0
        self.peak_occupancy = 0

    def occupancy(self, time: int) -> int:
        """Entries still held at ``time``."""
        release = self._release_times
        del release[: bisect_right(release, time)]
        return len(release)

    def allocate(self, time: int) -> int:
        """Allocate an entry; returns the time the allocation succeeds."""
        release = self._release_times
        # Entries released at or before ``time`` can never constrain this
        # or any later allocation (issue times are non-decreasing), so
        # drop them — the list stays at MSHR size instead of growing with
        # every miss of the run.
        del release[: bisect_right(release, time)]
        held = len(release)
        if held < self.n_entries:
            grant = time
        else:
            # Wait for the earliest entry to free up (repeatedly, in case
            # several waiters pile up — conservatively take the k-th).
            grant = release[held - self.n_entries]
        self.total_wait_cycles += grant - time
        return grant

    def hold(self, until: int) -> None:
        """Record that the just-allocated entry is held until ``until``."""
        release = self._release_times
        if release and until < release[-1]:
            insort(release, until)
        else:
            release.append(until)
        if len(release) > self.peak_occupancy:
            self.peak_occupancy = len(release)

    def reset_stats(self) -> None:
        self.total_wait_cycles = 0
        self.peak_occupancy = 0

    def pending_signature(self, base: int) -> Tuple[int, ...]:
        """Entries still held after ``base``, as base-relative times.

        Releases at or before ``base`` can never delay an allocation
        issued at ``base`` or later, so they are behaviourally absent.
        """
        release = self._release_times
        return tuple(
            t - base for t in release[bisect_right(release, base):]
        )

    def translate(self, time_delta: int) -> None:
        """Shift every pending release by ``time_delta`` cycles."""
        if time_delta:
            self._release_times = [t + time_delta for t in self._release_times]


#: Digest arithmetic.  A set whose anchor is line ``n`` (line address
#: divided by the line size) contributes ``hash(rel) * _R**n`` modulo the
#: Mersenne prime ``_P``, so translating every line by ``d`` multiplies
#: the whole digest by ``_R**d``: a probe undoes an address shift with
#: one modular power instead of re-reading any set.  ``hash`` of the
#: state strings is salted per process, so digests compare only within
#: one process, and only exact signatures ever decide a replay.
_P = (1 << 61) - 1
_R = 0x2E5BF271E2A5C4D

# Module-level aliases keep the enum descriptor lookups out of the
# per-set refresh loop.
_INVALID = LineState.INVALID

#: ``state -> (rel, hash(rel) mod _P)`` of a set holding one line.  On
#: the direct-mapped presets nearly every set a refresh rebuilds holds
#: one line (66,624 of the 66,945 over a cold ``fig6-2cluster`` pass).
#: Reading this table instead of walking the ways cut perfbench's
#: ``fig6-cold`` ``cold_s`` from 2.85 s to 2.44 s (medians of 10
#: alternating pairs, 2-core x86-64, Python 3.11).
_ONE_LINE = {
    state: (((0, state.value),), hash(((0, state.value),)) % _P)
    for state in LineState
}


@lru_cache(maxsize=None)
def _digest_weights(n_sets: int) -> Tuple[Tuple[int, ...], int]:
    """``(_R**index for every set index, _R**n_sets)``: line ``n`` of tag
    ``t`` and set ``i`` weighs ``(_R**n_sets)**t * _R**i``.  Built once
    per set count and shared by every cache of that size."""
    weights = []
    weight = 1
    for _ in range(n_sets):
        weights.append(weight)
        weight = weight * _R % _P
    return tuple(weights), weight


class ClusterCache:
    """Functional cache state (tags + MSI) of one cluster.

    Timing is orchestrated by the hierarchy; this class answers state
    queries and applies state transitions.
    """

    def __init__(self, config: CacheConfig, cluster_id: int):
        self.config = config
        self.cluster_id = cluster_id
        # set index -> ways (most recently used last)
        self._sets: Dict[int, List[CacheLine]] = {}
        self.mshr = MSHR(config.mshr_entries)
        # line address -> fill completion time (for secondary-miss merging)
        self.in_flight: Dict[int, int] = {}
        # Incremental-signature support: per-set fragments in
        # shift-invariant (anchor-relative) form, the set indices mutated
        # since they were built, and two digests of the fragments (whole
        # sets and live lines only) patched as each fragment is rebuilt.
        # A refresh costs O(sets touched since the previous one); a probe
        # adds one modular power and a dict copy, and only a full
        # signature assembles and sorts every resident set.
        self._set_frags: Dict[int, Optional[tuple]] = {}
        self._dirty_sets: set = set()
        self._digest = 0
        self._live_digest = 0
        self._weights = _digest_weights(config.n_sets)
        self._tag_weights: Dict[int, int] = {}  # tag -> (_R**n_sets)**tag

    # ------------------------------------------------------------------
    def _lookup(self, address: int) -> Optional[CacheLine]:
        index = self.config.set_index(address)
        tag = self.config.tag(address)
        for line in self._sets.get(index, []):
            if line.tag == tag and line.state is not LineState.INVALID:
                return line
        return None

    def state_of(self, address: int) -> LineState:
        line = self._lookup(address)
        return line.state if line else LineState.INVALID

    def is_hit(self, address: int, is_store: bool) -> bool:
        """Can this access complete locally without a bus transaction?"""
        state = self.state_of(address)
        if is_store:
            return state is LineState.MODIFIED
        return state in (LineState.MODIFIED, LineState.SHARED)

    def touch(self, address: int) -> None:
        """Refresh LRU position of a resident line."""
        index = self.config.set_index(address)
        tag = self.config.tag(address)
        ways = self._sets.get(index, [])
        for pos, line in enumerate(ways):
            if line.tag == tag:
                if pos != len(ways) - 1:
                    ways.append(ways.pop(pos))
                    self._dirty_sets.add(index)
                return

    # ------------------------------------------------------------------
    def fill(
        self, address: int, state: LineState
    ) -> Optional[Tuple[int, LineState]]:
        """Install a line; returns ``(victim_line_address, victim_state)``
        when a valid line was evicted (dirty victims need a writeback)."""
        index = self.config.set_index(address)
        tag = self.config.tag(address)
        ways = self._sets.setdefault(index, [])
        self._dirty_sets.add(index)
        for line in ways:
            if line.tag == tag:
                line.state = state
                self.touch(address)
                return None
        victim: Optional[Tuple[int, LineState]] = None
        live = [l for l in ways if l.state is not LineState.INVALID]
        if len(live) >= self.config.associativity:
            evicted = live[0]
            ways.remove(evicted)
            victim_addr = self._line_address(index, evicted.tag)
            victim = (victim_addr, evicted.state)
        ways.append(CacheLine(tag=tag, state=state))
        return victim

    def set_state(self, address: int, state: LineState) -> None:
        """Coherence transition on a resident line (no-op when absent)."""
        line = self._lookup(address)
        if line is not None:
            line.state = state
            self._dirty_sets.add(self.config.set_index(address))

    def invalidate(self, address: int) -> bool:
        """Drop a line (snoop-invalidate); returns True when it was M."""
        line = self._lookup(address)
        if line is None:
            return False
        was_dirty = line.state is LineState.MODIFIED
        line.state = LineState.INVALID
        self._dirty_sets.add(self.config.set_index(address))
        return was_dirty

    def _line_address(self, set_index: int, tag: int) -> int:
        return (
            tag * self.config.n_sets + set_index
        ) * self.config.line_size

    # ------------------------------------------------------------------
    def state_probe(
        self, base: int, addr_shift: int, live: bool
    ) -> Tuple[int, tuple, Dict[int, Optional[tuple]]]:
        """``(digest, exact part, fragments)`` of this cache's state: its
        share of
        :meth:`~repro.memory.hierarchy.DistributedMemorySystem.state_probe`.

        The state probed is everything that can affect a future access,
        normalized for time and address translation.  Times are made
        relative to ``base`` (completions at or before it are dropped:
        the hierarchy ignores them).  Line addresses are shifted down by
        ``addr_shift`` and set indices rotated by the matching amount,
        so two states reached by executions whose whole address stream
        differs by ``addr_shift`` compare equal.  The caller must ensure
        ``addr_shift`` is a multiple of the line size (otherwise the
        shift does not commute with line/set mapping).

        The digest stands for the sorted set list :meth:`frag_sets`
        reads from the fragments (the live-lines form when ``live``):
        equal set lists give equal digests, and unequal ones almost
        never do.  The exact part is the fills and MSHR components; the
        fragments are a shallow copy of the immutable per-set fragments,
        from which :meth:`frag_sets` rebuilds the set list exactly.  A
        probe costs the sets mutated since the previous refresh, one
        modular power and one dict copy.
        """
        self._refresh()
        digest = self._live_digest if live else self._digest
        lines = addr_shift // self.config.line_size
        if lines:
            digest = digest * pow(_R, -lines, _P) % _P
        return (
            digest,
            (
                self._pending_fills(base, addr_shift),
                self.mshr.pending_signature(base),
            ),
            dict(self._set_frags),
        )

    def frag_sets(
        self,
        frags,
        addr_shift: int,
        live: bool,
        invalid_out: Optional[List[int]] = None,
        live_prune: Optional[object] = None,
        live_out: Optional[List[Tuple[int, int, str]]] = None,
    ) -> Tuple[tuple, ...]:
        """Sorted set list of a signature, read from ``(set index,
        fragment)`` pairs: the whole sets, or their live lines only when
        ``live``.

        Each set contributes one ``(rotated index, shifted anchor
        address, relative ways)`` triple, where the anchor is the first
        emitted line and the other ways are recorded as whole-image tag
        deltas against it.  Two states compare equal under this encoding
        exactly when they do under a per-line shifted-address walk
        (:meth:`_signature_walk`: the anchor pins the set's absolute
        position modulo the shift; the deltas pin everything else), but
        the relative part is shift-invariant — which is what lets
        fragments be cached across probes with different
        ``addr_shift``.

        INVALID lines belong to the whole-set form: a matching tag in
        state I is revived by :meth:`fill` without an eviction, so
        presence of such lines is genuine state.  That is also their
        *only* effect — lookups skip them, eviction only considers live
        lines, and their list position is never read — so a caller that
        proves the future access stream never touches an invalid line's
        address may compare the live form instead.  ``invalid_out``
        collects every invalid line's absolute (unshifted) address; the
        proof obligation is the caller's.

        Live (M/S) lines carry more behaviour than invalid ones — they
        can be hit, supply snoops, and participate in eviction choices
        within their set — so they may only be stripped under a stronger
        proof: ``live_prune(cluster_id, line_address)`` (live form only)
        must return True only when the future access stream provably
        (a) never touches the line's address from *any* cluster and (b)
        never maps an access from *this* cluster into the line's set (so
        the line can never be hit, snooped, or weighed in an eviction).
        Matching lines are stripped from the set list and appended to
        ``live_out`` as ``(cluster id, absolute line address, state)``;
        the proof obligation is entirely the caller's.
        """
        n_sets = self.config.n_sets
        line_size = self.config.line_size
        image = n_sets * line_size
        rotation = (addr_shift // line_size) % n_sets
        cluster = self.cluster_id
        sets = []
        for index, frag in frags:
            if frag is None:
                continue
            if invalid_out is not None and frag[4]:
                invalid_out.extend(frag[4])
            if not live:
                anchor, rel = frag[0], frag[1]
            else:
                anchor, rel = frag[2], frag[3]
                if anchor is None:
                    continue
                if live_prune is not None:
                    kept = []
                    for delta, state in rel:
                        address = anchor + delta * image
                        if live_prune(cluster, address):
                            if live_out is not None:
                                live_out.append((cluster, address, state))
                        else:
                            kept.append((address, state))
                    if not kept:
                        continue
                    anchor = kept[0][0]
                    rel = tuple(
                        ((address - anchor) // image, state)
                        for address, state in kept
                    )
            sets.append(((index - rotation) % n_sets, anchor - addr_shift, rel))
        sets.sort()
        return tuple(sets)

    def _refresh(self) -> None:
        """Rebuild the fragments of the sets mutated since the last
        refresh and patch both digests by the difference.

        A fragment is ``(anchor line address, relative ways, live anchor
        line address or None, relative live ways, invalid line
        addresses, digest term, live digest term)``; ``None`` stands for
        an empty set.  The anchor is the set's first line and the
        relative ways are ``(tag delta, state)`` pairs against it; the
        live variants do the same over the M/S lines only.  A digest
        term is ``hash(rel) * _R**n`` for anchor line ``n``, the weight
        read from the per-index table times the per-tag memo.  One-line
        sets read their ``rel`` and hash from :data:`_ONE_LINE`; the
        others go through :meth:`_fragment`.
        """
        dirty = self._dirty_sets
        if not dirty:
            return
        frags = self._set_frags
        sets = self._sets
        n_sets = self.config.n_sets
        line_size = self.config.line_size
        index_weights, tag_base = self._weights
        tag_weights = self._tag_weights
        digest = self._digest
        live_digest = self._live_digest
        for index in dirty:
            old = frags.get(index)
            if old is not None:
                digest -= old[5]
                live_digest -= old[6]
            ways = sets.get(index)
            if not ways:
                frags[index] = None
                continue
            tag = ways[0].tag
            weight = tag_weights.get(tag)
            if weight is None:
                weight = tag_weights[tag] = pow(tag_base, tag, _P)
            anchor = (tag * n_sets + index) * line_size
            if len(ways) == 1:
                state = ways[0].state
                rel, term = _ONE_LINE[state]
                term = term * weight * index_weights[index] % _P
                if state is _INVALID:
                    frag = (anchor, rel, None, (), (anchor,), term, 0)
                else:
                    frag = (anchor, rel, anchor, rel, (), term, term)
            else:
                frag = self._fragment(index, ways, anchor, weight)
            frags[index] = frag
            digest += frag[5]
            live_digest += frag[6]
        dirty.clear()
        self._digest = digest % _P
        self._live_digest = live_digest % _P

    def _fragment(
        self, index: int, ways: List[CacheLine], anchor: int, weight: int
    ) -> tuple:
        """The :meth:`_refresh` fragment of a set holding several lines,
        ``anchor`` being the first line's address and ``weight`` its
        tag's digest weight."""
        n_sets = self.config.n_sets
        line_size = self.config.line_size
        index_weight = self._weights[0][index]
        anchor_tag = ways[0].tag
        rel = tuple((line.tag - anchor_tag, line.state.value) for line in ways)
        term = hash(rel) * weight * index_weight % _P
        live = [line for line in ways if line.state is not _INVALID]
        invalid = tuple(
            (line.tag * n_sets + index) * line_size
            for line in ways
            if line.state is _INVALID
        )
        if not live:
            return (anchor, rel, None, (), invalid, term, 0)
        live_tag = live[0].tag
        live_rel = tuple(
            (line.tag - live_tag, line.state.value) for line in live
        )
        live_weight = self._tag_weights.get(live_tag)
        if live_weight is None:
            live_weight = self._tag_weights[live_tag] = pow(
                self._weights[1], live_tag, _P
            )
        return (
            anchor,
            rel,
            (live_tag * n_sets + index) * line_size,
            live_rel,
            invalid,
            term,
            hash(live_rel) * live_weight * index_weight % _P,
        )

    def _pending_fills(self, base: int, addr_shift: int) -> tuple:
        """The signature's fills part: in-flight fills completing after
        ``base``, shifted and made ``base``-relative."""
        in_flight = self.in_flight
        if in_flight:
            # Completions at or before ``base`` are behaviourally absent
            # (issue times are non-decreasing and the hierarchy treats a
            # stale completion as no completion), so drop them for good:
            # the dict would otherwise grow with every miss of the run.
            # Deleting in place keeps access_batch's table aliases valid.
            expired = [a for a, t in in_flight.items() if t <= base]
            for address in expired:
                del in_flight[address]
        return tuple(
            sorted(
                (address - addr_shift, t - base)
                for address, t in in_flight.items()
            )
        )

    def _signature_walk(
        self,
        base: int,
        addr_shift: int = 0,
        invalid_out: Optional[List[int]] = None,
        live_prune: Optional[object] = None,
        live_out: Optional[List[Tuple[int, int, str]]] = None,
    ) -> Tuple[object, ...]:
        """From-scratch signature walk: the set list, fills and MSHR
        parts over the live cache state, with ``invalid_out`` selecting
        the live form as in
        :meth:`~repro.memory.hierarchy.DistributedMemorySystem.state_signature`.

        A test oracle: the incremental-signature property tests pin the
        fragment-served signature to it, and the fragment walk's
        ``live_prune`` form (:meth:`frag_sets`) to its own.
        """
        config = self.config
        n_sets = config.n_sets
        image = n_sets * config.line_size
        rotation = (addr_shift // config.line_size) % n_sets
        sets = []
        for index, ways in self._sets.items():
            if not ways:
                continue
            kept = []
            for line in ways:
                address = self._line_address(index, line.tag)
                if invalid_out is not None and line.state is LineState.INVALID:
                    invalid_out.append(address)
                    continue
                if (
                    live_prune is not None
                    and line.state is not LineState.INVALID
                    and live_prune(self.cluster_id, address)
                ):
                    if live_out is not None:
                        live_out.append(
                            (self.cluster_id, address, line.state.value)
                        )
                    continue
                kept.append((address, line.state.value))
            if not kept:
                continue
            anchor = kept[0][0]
            rel = tuple(
                ((address - anchor) // image, state) for address, state in kept
            )
            sets.append(((index - rotation) % n_sets, anchor - addr_shift, rel))
        sets.sort()
        fills = tuple(
            sorted(
                (address - addr_shift, t - base)
                for address, t in self.in_flight.items()
                if t > base
            )
        )
        return (tuple(sets), fills, self.mshr.pending_signature(base))

    def invalidate_fragments(self) -> None:
        """Drop every cached signature fragment and both digests (full
        recompute next probe).

        The one hook for wholesale-rebinding mutations (``translate``,
        ``clear``, warm-state restore) and for tests that poke ``_sets``
        directly.  The dirty set is refilled in place, so access_batch's
        table aliases stay valid.
        """
        self._set_frags.clear()
        self._digest = self._live_digest = 0
        self._dirty_sets.clear()
        self._dirty_sets.update(self._sets)

    def translate(self, time_delta: int, addr_shift: int) -> None:
        """Shift the whole cache state by ``addr_shift`` bytes and
        ``time_delta`` cycles.

        The inverse-direction companion of :meth:`state_probe`'s
        normalization: after translation the cache behaves, for accesses
        issued ``time_delta`` later at addresses ``addr_shift`` higher,
        exactly as it would have before for the unshifted stream.
        ``addr_shift`` must be a multiple of the line size so the shift
        commutes with line/set mapping; LRU order and MSI states are
        preserved (lines of one set move to one set together, because
        their addresses differ by whole numbers of cache images).
        """
        if addr_shift:
            if addr_shift % self.config.line_size != 0:
                raise ValueError(
                    f"addr_shift {addr_shift} is not a multiple of the "
                    f"{self.config.line_size}-byte line size"
                )
            config = self.config
            new_sets: Dict[int, List[CacheLine]] = {}
            for index, ways in self._sets.items():
                if not ways:
                    continue
                shifted = [
                    self._line_address(index, line.tag) + addr_shift
                    for line in ways
                ]
                new_index = config.set_index(shifted[0])
                new_sets[new_index] = [
                    CacheLine(tag=config.tag(address), state=line.state)
                    for address, line in zip(shifted, ways)
                ]
            self._sets = new_sets
            self.invalidate_fragments()
        if addr_shift or time_delta:
            self.in_flight = {
                address + addr_shift: t + time_delta
                for address, t in self.in_flight.items()
            }
        self.mshr.translate(time_delta)

    def resident_lines(self) -> int:
        """Number of valid lines (test/debug helper)."""
        return sum(
            1
            for ways in self._sets.values()
            for line in ways
            if line.state is not LineState.INVALID
        )

    def clear(self) -> None:
        """Empty the cache: no lines, no fills in flight, every MSHR
        entry free (a cold start; statistics are the caller's)."""
        self._sets.clear()
        self.in_flight.clear()
        self.mshr._release_times.clear()
        self.invalidate_fragments()
