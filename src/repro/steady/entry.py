"""Entry-level steady-state memoization.

``NTIMES`` entries of the innermost loop mostly repeat each other: after
a warm-up transient the memory system settles into a per-entry pattern
and re-walking all ``NITER × ops`` instances is redundant.  The detector
exploits this without changing a single bit of the results:

* before each entry it takes a *normalized probe* of the memory system
  (:meth:`DistributedMemorySystem.state_probe`) — relative in time to
  the entry's start and shifted in address space by the cumulative
  per-entry address delta, so a stencil sweeping rows hashes equal once
  its relative cache contents stop changing.  The probe's key is a
  digest, cheap to take at every entry; an entry whose key repeats is
  compared exactly (:meth:`DistributedMemorySystem.same_state`) before
  anything is replayed;
* entry execution is a pure function of that signature plus the entry's
  address stream, so when a signature repeats (same outer-point phase,
  same normalized state) the detector proves the remaining entries
  replay the recorded cycle — it verifies the future address deltas
  match the shift under which the states compared equal — and replays
  their (stall, statistics-delta) records instead of re-simulating;
* entries whose address stream is not a uniform, line-aligned shift of
  the previous one act as barriers: detection restarts after them, and
  kernels that never converge (cache thrashing, irregular outer strides)
  simply run every entry exactly as before.
"""

from __future__ import annotations

from operator import sub
from typing import Dict, List, Optional, Tuple

from .base import Replay, SteadyState, SteadyStateDetector

__all__ = ["EntrySteadyDetector"]


class EntrySteadyDetector(SteadyStateDetector):
    """Signature-keyed memoizer over whole loop entries.

    A friend of :class:`~repro.simulator.executor.LockstepSimulator`: it
    reads the simulator's precomputed instance tables and memory system
    but never mutates anything besides applying replayed counter deltas.
    """

    def __init__(self, simulator, outer_points: List[Dict[str, int]]):
        self.sim = simulator
        self.outer_points = outer_points
        self.addresses = self._entry_base_addresses(outer_points)
        self.shift_table = self._entry_shift_table()
        self.shift_unit = simulator.memory.signature_shift_unit()
        # (sub-line remainder, probe key) -> [(entry index, cumulative
        # shift at that entry, probe)], one slot per distinct state: a
        # bucket holds more than one only when two digests collide.
        self.history: Dict[
            Tuple[object, ...], List[Tuple[int, int, tuple]]
        ] = {}
        self.records: List[Tuple[int, Tuple[int, ...]]] = []
        self.cumulative_shift = 0
        self._counters_before: Optional[Tuple[int, ...]] = None
        self._occupied: Optional[Tuple[int, ...]] = None
        # Optional warm-state capture hook: called as (match_start,
        # entry) right before a confirmed detection replays its deltas,
        # i.e. while the memory system still holds the pristine
        # boundary state worth snapshotting.
        self.warm_sink = None

    # ------------------------------------------------------------------
    # Signature capture + period detection (protocol steps 1 and 2)
    # ------------------------------------------------------------------
    def boundary(self, index: int, time: int) -> Optional[Replay]:
        memory = self.sim.memory
        if index > 0:
            delta = self.shift_table[(index - 1) % len(self.outer_points)]
            if delta is None:
                # Non-uniform address step: states on either side are
                # incomparable, restart detection here.
                self.history.clear()
                self.cumulative_shift = 0
            else:
                self.cumulative_shift += delta
        # Each cache's count of non-empty sets never falls within a run
        # and is part of the whole-set signature, so a boundary that
        # raised it cannot equal any earlier one and is not probed.  A
        # state first reached here is then matched one entry later.
        occupied = memory.occupied_sets()
        grew = self._occupied is not None and occupied != self._occupied
        self._occupied = occupied
        if grew:
            self._counters_before = memory.counters()
            return None
        # Signatures normalize only by line-aligned shifts; the sub-line
        # remainder is keyed alongside, so two entries compare iff their
        # cumulative shifts differ by a whole number of shift units
        # (e.g. a 328-byte row stride on 32-byte lines matches every 4th
        # entry: 4*328 % 32 == 0).
        remainder = self.cumulative_shift % self.shift_unit
        probe = memory.state_probe(time, self.cumulative_shift - remainder)
        bucket = self.history.setdefault((remainder, probe[0]), [])
        slot = (index, self.cumulative_shift, probe)
        for position, (start, shift, earlier) in enumerate(bucket):
            if not memory.same_state(earlier, probe):
                continue
            if self._replay_is_sound(
                (start, shift), index, self.cumulative_shift - shift
            ):
                if self.warm_sink is not None:
                    self.warm_sink(start, index)
                return self._replay(start, index)
            bucket[position] = slot  # the newest entry in this state
            break
        else:
            bucket.append(slot)
        self._counters_before = memory.counters()
        return None

    def commit(self, index: int, stall: int) -> None:
        after = self.sim.memory.counters()
        self.records.append(
            (stall, tuple(map(sub, after, self._counters_before)))
        )

    # ------------------------------------------------------------------
    # Warm-state adoption: seed this detector from a recorded prefix
    # ------------------------------------------------------------------
    def adopt(
        self,
        records: List[Tuple[int, Tuple[int, ...]]],
        match_start: int,
        entry: int,
    ) -> Optional[Replay]:
        """Resume from a warm-state record instead of simulating.

        The record claims: entries ``0..entry-1`` were simulated with
        the given ``(stall, counters-delta)`` records, and the state
        before ``entry`` matched the state before ``match_start``.  The
        claim is *re-proven here against this run's own address
        tables* — the shift chain must be barrier-free over the match
        window and the remaining streams must be exact translations
        (:meth:`_replay_is_sound`), exactly as on a cold detection.
        Returns the :class:`Replay` on success; ``None`` means the
        record does not prove out for this run and the caller must
        simulate from scratch (the store key makes that unreachable in
        practice, but adoption *verifies* rather than assumes it).

        The caller must have restored the memory system to the record's
        boundary snapshot first: :meth:`_replay` applies the replayed
        counter deltas to it.
        """
        if entry >= self.sim.n_times or len(records) < entry:
            return None
        if not 0 <= match_start < entry:
            return None
        n_points = len(self.outer_points)
        cumulative = 0
        shift_at_match: Optional[int] = 0 if match_start == 0 else None
        for index in range(1, entry + 1):
            delta = self.shift_table[(index - 1) % n_points]
            if delta is None:
                # A barrier inside the match window would have cleared
                # the history before the recorded match could form.
                if index > match_start:
                    return None
                cumulative = 0
            else:
                cumulative += delta
            if index == match_start:
                shift_at_match = cumulative
        if shift_at_match is None:
            return None
        shift = cumulative - shift_at_match
        if shift % self.shift_unit != 0:
            # The recorded signatures can only have compared equal
            # under a whole-shift-unit translation.
            return None
        if not self._replay_is_sound((match_start, shift_at_match), entry, shift):
            return None
        self.records = list(records[:entry])
        self.cumulative_shift = cumulative
        return self._replay(match_start, entry)

    # ------------------------------------------------------------------
    # Exactness proof (protocol step 3)
    # ------------------------------------------------------------------
    def _entry_shift_table(self) -> List[Optional[int]]:
        """Per outer-point phase ``i``: the uniform byte shift every
        memory reference undergoes from the entry at point ``i`` to the
        entry at point ``(i+1) % P`` — or ``None`` when the references
        move by *different* amounts, in which case no shift of the
        memory state can align the two entries and detection must
        restart.  A uniform but non-line-aligned shift is returned as
        is: :meth:`boundary` normalizes signatures by the line-aligned
        part only and keys the sub-line remainder alongside, so such
        entries still match once their cumulative shifts differ by whole
        lines."""
        addresses = self.addresses
        n_points = len(self.outer_points)
        table: List[Optional[int]] = []
        for i in range(n_points):
            here = addresses[i]
            there = addresses[(i + 1) % n_points]
            if not here:  # no memory operations: entries trivially align
                table.append(0)
                continue
            deltas = {b - a for a, b in zip(here, there)}
            table.append(deltas.pop() if len(deltas) == 1 else None)
        return table

    def _entry_base_addresses(
        self, outer_points: List[Dict[str, int]]
    ) -> List[List[int]]:
        """First-iteration address of each memory op at each outer point.

        Affine references move by a constant per inner iteration, so the
        whole address stream of an entry is determined by these bases
        plus the (outer-independent) inner strides.  The bases come from
        the simulator's own entry tables, the arithmetic its simulated
        addresses use."""
        sim = self.sim
        memory_ops = [i for i in range(sim._n_ops) if sim._is_memory[i]]
        result = []
        for outer in outer_points:
            mem_base = sim._entry_tables(outer)[0]
            result.append([mem_base[i] for i in memory_ops])
        return result

    def _replay_is_sound(
        self, match: Tuple[int, int], entry: int, shift: int
    ) -> bool:
        """Prove that entries ``entry..n_times-1`` replay the recorded
        cycle ``match[0]..entry-1``.

        The signature match establishes that the memory state before
        ``entry`` equals the state before ``match[0]`` translated by
        ``shift`` bytes.  Entry execution is a deterministic function of
        (state, address stream), so the replay is exact iff every future
        entry's address stream is the corresponding cycle entry's stream
        translated by that same ``shift`` — checked here against the
        affine reference bases (streams repeat with the outer-point
        period, so only ``min(remaining, P)`` offsets are distinct)."""
        start = match[0]
        addresses = self.addresses
        n_points = len(self.outer_points)
        remaining = self.sim.n_times - entry
        for offset in range(min(remaining, n_points)):
            old = addresses[(start + offset) % n_points]
            new = addresses[(entry + offset) % n_points]
            if any(b - a != shift for a, b in zip(old, new)):
                return False
        return True

    # ------------------------------------------------------------------
    # Counters-delta replay (protocol step 4)
    # ------------------------------------------------------------------
    def _replay(self, start: int, entry: int) -> Replay:
        """Replay entries ``entry..n_times-1`` from the recorded cycle
        ``records[start:entry]``: applies their statistics deltas to the
        memory system and hands the stall cycles back to the driver."""
        period = entry - start
        cycle = self.records[start:entry]
        remaining = self.sim.n_times - entry
        full, partial = divmod(remaining, period)
        memory = self.sim.memory
        stall = 0
        if full:
            stall += full * sum(record[0] for record in cycle)
            for _, delta in cycle:
                memory.add_counters(delta, full)
        for record_stall, delta in cycle[:partial]:
            stall += record_stall
            memory.add_counters(delta, 1)
        record = SteadyState(
            detected_at=entry,
            period=period,
            simulated_entries=entry,
            replayed_entries=remaining,
        )
        return Replay(skipped=remaining, stall_cycles=stall, record=record)
