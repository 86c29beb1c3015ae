"""Iteration-level steady-state detection inside a single loop entry.

The entry-level memoizer can do nothing for ``NTIMES=1`` streaming
kernels (su2cor, applu, turb3d): there is only one entry, so every one
of its ``NITER`` iterations is simulated the slow way even though the
modulo pipeline provably settles into a periodic pattern a few hundred
iterations in.  This detector closes that gap.

How it works
------------
The instance stream of one entry is partitioned into *modulo-pipeline
groups*: group ``k`` holds the instances with nominal issue times in
``[k*II, (k+1)*II)`` — one instance per operation (the iteration
``k - stage(op)`` instance) once the pipeline is full.  At each group
boundary the behaviour of the remaining simulation is a deterministic
function of

* the memory-system state (cache tags/MSI/LRU, pending fills, MSHR and
  bus horizons), captured by the shift/time-normalized
  :meth:`~repro.memory.hierarchy.DistributedMemorySystem.state_signature`;
* the in-flight pipeline state: the relative readiness of the recent
  producer instances that future consumers still read (a window of
  ``max(distance + stage gap)`` groups), plus the running stall offset
  (normalized away by anchoring both snapshots at their own boundary
  time);
* the remaining address stream — affine, hence ``base + stride * i``
  per reference.

Two boundaries ``k`` and ``k + M`` with equal snapshots (the memory
signature compared under an address shift of ``M * stride``) therefore
replay each other exactly, iteration for iteration, as long as every
reference advances by the *same* per-iteration stride (the exactness
proof obligation — the analogue of the entry memoizer's uniform-shift
check, verified once per kernel) and the skipped groups stay inside the
full-pipeline region.  The detector then fast-forwards ``t`` whole
periods: it adds ``t ×`` the cycle's counter deltas and stall cycles,
shrinks the remaining iteration count by ``t*M`` (the tail simulates
identically because the state at the cut *is* the fast-forwarded state
up to a uniform (time, address) translation), and finally re-anchors the
memory system with
:meth:`~repro.memory.hierarchy.DistributedMemorySystem.translate` so
any subsequent loop entry sees exactly the state full simulation would
have produced.

Candidate periods are multiples of the *base period*: the smallest
``q`` with ``q * stride`` a whole number of cache lines, so the
signature shift always commutes with line/set mapping.  A capture and
its confirm are therefore always a multiple of ``q`` groups apart, and
the run observes one boundary per base period — ``k0``, ``k0 + q``,
``k0 + 2q``, ... — where ``k0`` is the first boundary with a full
pipeline and a whole ready window; the executor walks the ``q`` groups
between two of them as one span.

Even a state probe costs more than a base period, so probing at every
boundary would cost more than it saves.  Detection is therefore
two-phase: a cheap record — (stall delta, statistics deltas) — is kept
for every base period, candidate periods are spotted by pure tuple
comparisons, and the memory state is probed only twice per candidate
(capture and confirm) with
:meth:`~repro.memory.hierarchy.DistributedMemorySystem.state_probe`.
A probe costs the sets touched since the previous one plus a dict copy
per cache: its key is a shift-normalized digest of the per-set
fragments plus the small exact parts, and the full signatures are
rebuilt from the probes' witnesses only when the keys match.  The
pruned second tier is lazier still: it runs only once a whole
comparison has failed and only while some live line can be stripped at
all, a capture keeps just its prune predicate, and both pruned
signatures are rebuilt at confirm only when the whole comparison has
failed again.
"""

from __future__ import annotations

from math import gcd
from operator import sub
from typing import List, Optional, Tuple

from .base import IterationSteadyState, Replay, SteadyStateDetector

__all__ = ["IterationSteadyDetector"]

#: Placeholder for a window instance that does not exist (pipeline edge).
_ABSENT = object()


class IterationSteadyDetector:
    """Factory/precomputation half of iteration-level detection.

    Built once per :class:`~repro.simulator.executor.LockstepSimulator`
    (whose precomputed tables it reads as a friend).  This class is
    deliberately *not* the :class:`SteadyStateDetector` implementation:
    iteration-level detection is stateful per loop entry, so
    :meth:`begin_entry` hands out one protocol object (:class:`_EntryRun`)
    per entry, and that is what the executor's group loop drives through
    ``boundary``/``commit``.
    """

    #: How many multiples of the line-aligned base period the cheap
    #: period search tries at each boundary.
    MAX_PERIODS = 16

    def __init__(self, simulator):
        self.sim = simulator
        self.ii: int = simulator.schedule.ii
        self.n_ops: int = simulator._n_ops
        self.stage: List[int] = simulator._op_stage
        # Exactness proof obligation: every memory reference must advance
        # by the same per-iteration stride, or no single address shift
        # can align two boundaries and detection stays off.
        strides = {
            affine[1] for affine in simulator._mem_affine if affine is not None
        }
        self.enabled = len(strides) <= 1
        self.stride: int = strides.pop() if strides else 0
        unit = simulator.memory.signature_shift_unit()
        # Smallest period whose cumulative shift is line-aligned.
        sub = self.stride % unit
        self.q: int = 1 if sub == 0 else unit // gcd(unit, sub)
        # Ready-value window: how many groups back a future consumer can
        # reach (flow distance plus consumer/producer stage gap).
        self.window: int = simulator._ready_window
        # First boundary where the pipeline is full and the whole ready
        # window exists.
        self.k0 = simulator._max_stage + self.window
        self.n_groups: int = simulator.instance_group_bounds()[1]
        self.detections: List[IterationSteadyState] = []

    # ------------------------------------------------------------------
    def begin_entry(
        self,
        entry: int,
        base: int,
        ready,
        mem_base: List[int],
        mem_stride: List[int],
        final_entry: bool = True,
    ):
        """A fresh per-entry detection run, or ``None`` when this kernel
        can never confirm a period (non-uniform strides, or too few
        iterations for capture + confirm + at least one skipped period).

        ``ready`` is any view with a ``get(iteration, op) -> Optional[int]``
        read path onto the entry's per-instance ready times — the scalar
        executor hands its :class:`~repro.simulator.executor.ReadyWindow`
        ring, the vectorized engine a reconstructing view."""
        if not self.enabled:
            return None
        if self.sim.n_iterations < self.k0 + 4 * self.q:
            return None
        return _EntryRun(
            self, entry, base, ready, mem_base, mem_stride, final_entry
        )


class _EntryRun(SteadyStateDetector):
    """The iteration-level :class:`SteadyStateDetector`: detection
    state for the modulo-pipeline groups of one loop entry.

    ``niter`` tracks the *remaining* iteration count of the
    fast-forwarded ("pretend") frame: after a skip the executor keeps
    walking the same group indices with a smaller effective NITER, which
    is exactly a continuation of the smaller-NITER run — so the run
    re-arms and can detect (and skip) again in that frame."""

    def __init__(self, detector: IterationSteadyDetector, entry: int,
                 base: int, ready,
                 mem_base: List[int], mem_stride: List[int],
                 final_entry: bool = True):
        self.det = detector
        self.entry = entry
        self.base = base
        self.ready = ready
        self.mem_base = mem_base
        self.mem_stride = mem_stride
        self.final_entry = final_entry
        self.active = True
        #: Remaining iterations in the current (pretend) frame.
        self.niter = detector.sim.n_iterations
        #: (stall delta, counters delta) per finished base period, at
        #: the index of its last group (``None`` between them).
        self.records: List[Optional[Tuple[int, Tuple[int, ...]]]] = (
            [None] * detector.n_groups
        )
        #: Records below this group index may not be compared (start of
        #: the detection window; bumped past each fast-forward cut).
        self.valid_from = detector.k0
        self.prev_offset = 0
        self.prev_values: Optional[Tuple[int, ...]] = None
        # (k1, M, state probe, ready snapshot, offset, counters, live
        # prune predicate or None) of a cheaply-spotted candidate
        # awaiting state confirmation.
        self.pending = None
        # Confirm-failure backoff: a signature mismatch under a periodic
        # record stream means the state is still developing (cache fill,
        # trailing-edge transients), so retrying every period would burn
        # a full state walk each time on kernels that never settle.
        # Exponential backoff bounds that cost at O(log) walks while the
        # state warms up, capped so a late-settling kernel is still
        # caught reasonably soon after it stabilizes.
        self.next_search = 0
        self.backoff = 2 * detector.q
        self.ff_time_delta = 0
        self.ff_addr_shift = 0
        # The live-scar pruned comparison (second confirm tier) costs two
        # fragment walks, so it is armed only once the whole-state
        # comparison has failed, and even then a capture keeps only its
        # prune predicate: the walks run at confirm, and only when the
        # whole comparison fails again.  Kernels whose states match
        # outright never pay for it.
        self.try_pruned = False

    # ------------------------------------------------------------------
    def boundary(self, k: int, offset: int) -> Optional[Replay]:
        """Observe the boundary before group ``k`` at stall ``offset``.

        The executor calls it at ``k0`` and then once per base period
        (``k0 + m*q``) while the run is active, so each record covers
        the ``q`` groups since the previous boundary."""
        det = self.det
        if k >= self.niter:
            # Pipeline drain of the (possibly fast-forwarded) frame:
            # groups are partial from here on, nothing left to detect.
            self.active = False
            return None
        memory = det.sim.memory
        values = memory.counters()
        if self.prev_values is not None:
            self.records[k - 1] = (
                offset - self.prev_offset,
                tuple(map(sub, values, self.prev_values)),
            )
        self.prev_offset = offset
        self.prev_values = values

        if self.pending is not None:
            k1, period, probe1, snap1, offset1, counters1, prune1 = (
                self.pending
            )
            if self.records[k - 1] != self.records[k - 1 - period]:
                self.pending = None  # cycle broke while waiting
            elif k == k1 + period:
                self.pending = None
                base_k = self.base + k * det.ii + offset
                probe2 = memory.state_probe(
                    base_k, period * det.stride, live=True
                )
                snap2 = self._ready_snapshot(k, base_k)
                if snap2 == snap1 and memory.same_state(probe1, probe2):
                    replay = self._confirm(
                        k1, period, offset1, counters1, k, offset,
                        probe1, probe2,
                    )
                    if replay is not None:
                        return replay
                elif snap2 == snap1 and prune1 is None:
                    # Arm the pruned tier for the next candidate: this
                    # state may carry frozen live warm-up lines that can
                    # only ever match with the reachability proof.
                    self.try_pruned = self.final_entry
                elif snap2 == snap1:
                    # Second tier: the whole-state comparison failed, so
                    # retry with provably-unreachable live lines
                    # stripped (frozen warm-up scars never translate
                    # with the sweep).  Each boundary prunes against its
                    # *own* remaining stream: the store trail grows by
                    # one period between capture and confirm, and only
                    # per-side envelopes keep the kept/pruned frontier
                    # at the same shift-relative position in both
                    # states.  The confirm's predicate is not None:
                    # the capture's was not (see _live_prune_predicate).
                    live2: List[Tuple[int, int, str]] = []
                    pruned2 = memory.probe_signature(
                        probe2,
                        live_prune=self._live_prune_predicate(k),
                        live_out=live2,
                    )
                    if pruned2 == memory.probe_signature(
                        probe1, live_prune=prune1
                    ):
                        replay = self._confirm(
                            k1, period, offset1, counters1, k, offset,
                            probe1, probe2, len(live2),
                        )
                        if replay is not None:
                            return replay
                # State not periodic yet despite periodic statistics:
                # back off before spending another pair of state walks.
                self.next_search = k + self.backoff
                self.backoff = min(self.backoff * 2, 32 * det.q)
            else:
                return None
        if self.pending is None and k >= self.next_search:
            self._search(k, offset)
        return None

    # ------------------------------------------------------------------
    def _search(self, k: int, offset: int) -> None:
        """Cheap period search: spot a candidate from the records alone."""
        det = self.det
        records = self.records
        newest = records[k - 1]
        for j in range(1, det.MAX_PERIODS + 1):
            period = j * det.q
            if k - 2 * period < self.valid_from:
                break
            # The newest record decides most periods on its own; only a
            # period it fits is compared whole.
            if newest == records[k - 1 - period] and (
                records[k - period:k] == records[k - 2 * period:k - period]
            ):
                base_k = self.base + k * det.ii + offset
                memory = det.sim.memory
                # Fallback comparison with provably-unreachable live
                # lines stripped (set-band reachability): frozen live
                # warm-up scars never translate with the sweep, so a
                # state carrying one can only match under this pruned
                # comparison.  Final entries only: translate() would
                # misplace the stripped lines for a later entry's
                # re-sweep.  The capture keeps only the predicate (None
                # when no line could be stripped); its pruned signature
                # is rebuilt from the probe's witness if the confirm
                # ever needs it.
                self.pending = (
                    k,
                    period,
                    memory.state_probe(base_k, 0, live=True),
                    self._ready_snapshot(k, base_k),
                    offset,
                    memory.counters(),
                    self._live_prune_predicate(k) if self.try_pruned else None,
                )
                return

    def _live_prune_predicate(self, k: int):
        """Set-band reachability proof for frozen *live* (M/S) lines.

        Returns a ``(cluster, line address) -> bool`` predicate that is
        True only when the remaining access stream provably never
        interacts with the line: (a) no reference's remaining byte
        envelope — iterations ``max(0, k - k0)..niter-1``, which covers
        the tail *and* every skipped period (the phantom argument of
        :meth:`_scars_unreachable`) — overlaps the line's span from any
        cluster, so it is never hit, revived or snooped; and (b) no
        same-cluster reference's envelope maps into the line's cache
        set, so it can never be weighed in (or evicted by) a fill.  Such
        a line is behaviourally inert and may be stripped from the
        signature comparison, which is what lets kernels whose warm-up
        leaves non-translating live scars (turb3d on 2-cluster) still
        prove their steady period.

        Returns ``None`` when (b) rejects every line: each cluster's own
        envelopes reach every set of its cache.  The predicate would
        strip nothing, so the pruned comparison would repeat the whole
        one, which has already failed.  Envelopes only shrink as ``k``
        grows, so a capture that gets ``None`` never has a confirm that
        does not.
        """
        det = self.det
        sim = det.sim
        caches = sim.memory.caches
        span = sim.memory.signature_shift_unit()
        envelopes: List[Tuple[int, int]] = []
        # (b) per cluster: a flag per set of its cache, set when one of
        # the cluster's own envelopes maps into it.
        reached = [bytearray(cache.config.n_sets) for cache in caches]
        for op, lo, hi in self._remaining_envelopes(k):
            envelopes.append((lo, hi))
            config = caches[sim._cluster[op]].config
            n_sets = config.n_sets
            first = lo // config.line_size
            count = min(hi // config.line_size - first + 1, n_sets)
            s0 = first % n_sets
            head = min(count, n_sets - s0)
            sets = reached[sim._cluster[op]]
            sets[s0:s0 + head] = b"\x01" * head
            sets[:count - head] = b"\x01" * (count - head)
        if all(0 not in sets for sets in reached):
            return None

        def prunable(cluster: int, line_addr: int) -> bool:
            # (b) set reachability from the line's own cluster.
            if reached[cluster][caches[cluster].config.set_index(line_addr)]:
                return False
            # (a) address reachability, widened to a full shift unit so
            # any cache's line span is covered (mirrors the ghost check).
            for lo, hi in envelopes:
                if line_addr <= hi and line_addr + span - 1 >= lo:
                    return False
            return True

        return prunable

    def _remaining_envelopes(self, k: int) -> List[Tuple[int, int, int]]:
        """Per-reference byte envelope of the remaining stream from
        boundary ``k``: ``(op index, lo, hi)`` over iterations
        ``max(0, k - k0)..niter-1``, with ``hi`` widened to the last
        element's final byte.  This is the soundness-critical range both
        stale-state proofs (:meth:`_scars_unreachable` for invalid
        ghosts, :meth:`_live_prune_predicate` for live scars) test
        against — the range already covers every skipped period, which
        is what makes the phantom argument work."""
        det = self.det
        sim = det.sim
        i_min = max(0, k - det.k0)
        i_max = self.niter - 1
        envelopes: List[Tuple[int, int, int]] = []
        for op in range(det.n_ops):
            ref = sim._mem_ref[op]
            if ref is None:
                continue
            a0 = self.mem_base[op] + self.mem_stride[op] * i_min
            a1 = self.mem_base[op] + self.mem_stride[op] * i_max
            lo = min(a0, a1)
            hi = max(a0, a1) + ref.array.element_size - 1
            envelopes.append((op, lo, hi))
        return envelopes

    def _ready_snapshot(self, k: int, base_k: int) -> Tuple[object, ...]:
        """Relative readiness of every instance future consumers can
        still read: the ``window`` groups preceding boundary ``k``,
        anchored at the boundary's own time so two periodic boundaries
        compare equal."""
        det = self.det
        ready = self.ready
        n_ops = det.n_ops
        n_iterations = self.niter
        out: List[object] = []
        for j in range(1, det.window + 1):
            group = k - j
            for op in range(n_ops):
                iteration = group - det.stage[op]
                if 0 <= iteration < n_iterations:
                    value = ready.get(iteration, op)
                    out.append(None if value is None else value - base_k)
                else:
                    out.append(_ABSENT)
        return tuple(out)

    def _scars_unreachable(self, divergent: set, k2: int) -> bool:
        """True when no divergent ghost line can ever be touched again.

        The two matched states were compared with their INVALID lines
        stripped (``divergent`` holds ``(cluster, line address)`` pairs);
        lines present in only one of them (typically frozen warm-up
        scars, whose absolute addresses never move with the sweep) are
        behaviourally inert *unless* a future access maps to one of
        their exact line addresses and revives it.  A plain
        overlap test against each reference's remaining byte envelope
        suffices for any number of skipped periods: the scars' ideal
        "phantom" images advance by exactly the per-period shift — the
        same rate the access front advances — so a scar outside the
        envelope now keeps its relative distance to the stream forever.
        Each scar is conservatively widened to a full shift unit, which
        covers any cache's line span."""
        span = self.det.sim.memory.signature_shift_unit()
        for _op, lo, hi in self._remaining_envelopes(k2):
            for _cluster, d in divergent:
                if d <= hi and d + span - 1 >= lo:
                    return False
        return True

    def _confirm(
        self,
        k1: int,
        period: int,
        offset1: int,
        counters1: Tuple[int, ...],
        k2: int,
        offset2: int,
        probe1: Tuple[tuple, tuple],
        probe2: Tuple[tuple, tuple],
        pruned_live: int = 0,
    ) -> Optional[Replay]:
        """State + window matched: fast-forward whole periods."""
        det = self.det
        sim = det.sim
        shift_per_period = period * det.stride
        # Skipped groups must stay inside the full-pipeline region
        # (groups 0..NITER-1 of the current frame); the tail — partial
        # period plus pipeline drain — is simulated for real.
        t = (self.niter - k2) // period
        # Ghosts — the invalid lines both live probes left out — are
        # (cluster, absolute line address) pairs: cache identity
        # matters — a scar at the same address in another cluster's
        # cache is different state and must not cancel.
        ghosts1: List[Tuple[int, int]] = []
        ghosts2: List[Tuple[int, int]] = []
        sim.memory.probe_signature(probe1, invalid_out=ghosts1)
        sim.memory.probe_signature(probe2, invalid_out=ghosts2)
        divergent = {
            (cluster, g + shift_per_period) for cluster, g in ghosts1
        }.symmetric_difference(ghosts2)
        if divergent:
            # The scar-unreachability proof only covers THIS entry's
            # remaining (forward-moving) stream; a later entry re-sweeps
            # the whole address range and would touch the divergent
            # scars, so the end-of-entry state translation would no
            # longer be exact.
            if not self.final_entry:
                return None
            if not self._scars_unreachable(divergent, k2):
                return None
        if t <= 0:
            return None
        period_stall = offset2 - offset1
        delta = tuple(map(sub, sim.memory.counters(), counters1))
        sim.memory.add_counters(delta, t)
        self.ff_time_delta += t * (period * det.ii + period_stall)
        self.ff_addr_shift += t * shift_per_period
        self.niter -= t * period
        record = IterationSteadyState(
            entry=self.entry,
            detected_at=k2,
            period=period,
            simulated_iterations=self.niter,
            replayed_iterations=t * period,
            pruned_live_lines=pruned_live,
        )
        det.detections.append(record)
        # Re-arm in the fast-forwarded frame: detection may fire again
        # (a capped skip leaves more periodic groups behind the next,
        # now-closer scar horizon).
        self.prev_values = None
        self.valid_from = k2 + 1
        self.next_search = 0
        self.backoff = 2 * det.q
        return Replay(
            skipped=t * period,
            stall_cycles=t * period_stall,
            record=record,
        )

    def finish(self) -> None:
        """Re-anchor the memory system after a fast-forwarded entry.

        The tail was simulated in the fast-forwarded ("pretend") frame;
        translating by the skipped (time, address) span turns the final
        state into exactly what full simulation would have left behind,
        so entry-level memoization — or anything else — can run on top."""
        if self.ff_time_delta or self.ff_addr_shift:
            self.det.sim.memory.translate(
                self.ff_time_delta, self.ff_addr_shift
            )
