"""Vectorized lockstep simulate engine.

The scalar :class:`~repro.simulator.executor.LockstepSimulator` walks
every ``NITER × ops`` instance in Python, paying one interpreted loop
body per instance and one :meth:`~repro.memory.hierarchy
.DistributedMemorySystem.access` call per memory instance.  This engine
executes the same lockstep model array-at-a-time:

* per-entry instance tables (nominal times, iterations, op indices,
  addresses) are materialized with numpy in a handful of array ops;
* non-memory instances are never visited at all — a static per-schedule
  proof shows their flow operands can never stall (the scheduler placed
  every consumer at least ``latency + bus`` slots after its producer,
  and the lockstep offset is monotone), so their ready times are a pure
  function ``base + nominal + offset + latency`` reconstructed on
  demand from the offset changepoint log;
* memory instances run through
  :meth:`~repro.memory.hierarchy.DistributedMemorySystem.access_batch`:
  whole hazard-free runs — every access whose result provably cannot
  stall a consumer — resolve in one Python call with all per-access
  machinery inlined, and the batch stops exactly at results that might;
* the only instances simulated individually are *hazard checks*: the
  consumers of late memory results, replayed in exact instance order
  through a position-keyed heap so the stall offset evolves bit for bit
  as in the scalar walk.

Results are **bit-identical** to the scalar engine — same
:class:`~repro.simulator.stats.SimulationResult`, same memory-system
state and statistics, same steady-state reports — proven by
``tests/test_simulator_vectorized.py`` across every scenario cell and
both steady detectors.  Schedules that violate the static no-stall
proof (none of the repository's schedulers produce them) fall back to
the scalar walk for the whole cell (``_vector_ok`` is false).

Steady-state detectors plug in unchanged: the entry detector observes
entry boundaries exactly as before, and the iteration detector drives
the group walk both engines share (:meth:`LockstepSimulator._run_once`)
— this engine supplies a reconstructing ready view instead of the scalar
ring buffer, and its own span walk.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from heapq import heappop, heappush
from typing import Iterable, List, Optional

import numpy as np

from ..scheduler.result import Schedule
from .executor import LockstepSimulator
from .stats import SimulationResult

__all__ = ["VectorizedSimulator", "simulate"]

#: Slack for memory results nobody consumes: never a hazard.
_NO_HAZARD = 1 << 60


class _EntryContext:
    """Per-loop-entry walk state of the vectorized engine."""

    __slots__ = (
        "base", "addresses", "ready", "hazards", "cp_pos", "cp_off",
        "frontier",
    )

    def __init__(self, base: int, addresses: List[int], n_mem: int):
        self.base = base
        self.addresses = addresses
        #: Ready time per memory instance (mem-flat order); ``None``
        #: doubles as the not-yet-executed tag the detectors expect.
        self.ready: List[Optional[int]] = [None] * n_mem
        #: Pending consumer stall checks: (position, nominal, iteration,
        #: required ready time) heap, ordered by instance position.
        self.hazards: List[tuple] = []
        #: Offset changepoint log: offset becomes ``cp_off[i]`` at
        #: instance position ``cp_pos[i]`` (inclusive).
        self.cp_pos: List[int] = [-1]
        self.cp_off: List[int] = [0]
        #: First instance position not yet walked.
        self.frontier = 0


class _ReadyView:
    """The detector-facing ``get(iteration, op)`` ready view.

    Memory results come from the entry's stored batch outputs; the
    never-visited non-memory instances are reconstructed from the offset
    changepoint log — exactly the value the scalar walk would have
    stored, because their issue time is ``base + nominal + offset`` by
    the no-stall proof.
    """

    __slots__ = ("sim", "ctx")

    def __init__(self, sim: "VectorizedSimulator", ctx: _EntryContext):
        self.sim = sim
        self.ctx = ctx

    def get(self, iteration: int, op_index: int) -> Optional[int]:
        sim = self.sim
        ctx = self.ctx
        flat = iteration * sim._n_ops + op_index
        if sim._is_memory[op_index]:
            mem_index = sim._vm_index_of[flat]
            return None if mem_index < 0 else ctx.ready[mem_index]
        position = sim._vm_pos_of[flat]
        if position >= ctx.frontier:
            return None
        offset = ctx.cp_off[bisect_right(ctx.cp_pos, position) - 1]
        nominal = iteration * sim.schedule.ii + sim._op_time[op_index]
        return ctx.base + nominal + offset + sim._fu_latency[op_index]


class VectorizedSimulator(LockstepSimulator):
    """Array-at-a-time lockstep execution, bit-identical to the scalar
    reference (see module docstring for the how and the proof sketch)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._build_vector_tables()

    # ------------------------------------------------------------------
    def _build_vector_tables(self) -> None:
        ii = self.schedule.ii
        n_ops = self._n_ops
        times = self._op_time
        # Static no-stall proof for non-memory flow edges, and consumer
        # tables for memory producers.  An edge is *live* when its
        # producer instance executes before its consumer in the sorted
        # order (dead edges read an unwritten slot in the scalar walk
        # and are skipped there, so they are simply dropped here).
        self._vector_ok = True
        consumers: List[List[tuple]] = [[] for _ in range(n_ops)]
        slack = [_NO_HAZARD] * n_ops
        names = self._op_names
        rank = {name: position for position, name in enumerate(sorted(names))}
        for dst in range(n_ops):
            for src, distance, extra in self._flows[dst]:
                gap = distance * ii + times[dst] - times[src]
                if gap < 0:
                    continue  # producer nominally later: dead edge
                if gap == 0:
                    # Nominal tie: the tuple sort breaks it by
                    # (iteration, name); the producer runs first only
                    # when it wins that comparison.
                    if distance == 0 and rank[names[src]] > rank[names[dst]]:
                        continue
                if self._is_memory[src]:
                    consumers[src].append(
                        (dst, distance, extra, times[dst])
                    )
                    if gap - extra < slack[src]:
                        slack[src] = gap - extra
                elif self._fu_latency[src] + extra > gap:
                    # A non-memory producer could stall this consumer:
                    # the vectorized walk's core assumption fails for
                    # the whole schedule — use the scalar reference.
                    self._vector_ok = False
        self._vm_consumers = consumers
        if not self._vector_ok:
            return

        is_memory = np.fromiter(self._is_memory, dtype=bool, count=n_ops)
        mem_mask = is_memory[self._inst_op]
        mem_positions = np.nonzero(mem_mask)[0]
        self._vm_iter_np = self._inst_iter[mem_positions]
        self._vm_op_np = self._inst_op[mem_positions]
        vm_nominal_np = self._inst_nominal[mem_positions]
        self._vm_pos = mem_positions.tolist()
        self._vm_iter = self._vm_iter_np.tolist()
        self._vm_op = self._vm_op_np.tolist()
        self._vm_nominal = vm_nominal_np.tolist()
        n_mem = len(self._vm_pos)
        self._vm_n = n_mem
        cluster = np.fromiter(self._cluster, dtype=np.int64, count=n_ops)
        store = np.fromiter(self._is_store, dtype=bool, count=n_ops)
        slack_arr = np.fromiter(slack, dtype=np.int64, count=n_ops)
        self._vm_cluster = cluster[self._vm_op_np].tolist()
        self._vm_store = store[self._vm_op_np].tolist()
        self._vm_slack = slack_arr[self._vm_op_np].tolist()
        # (iteration, op) -> instance position / memory-flat index.
        flat = self._inst_iter * n_ops + self._inst_op
        pos_of = np.empty(flat.size, dtype=np.int64)
        pos_of[flat] = np.arange(flat.size, dtype=np.int64)
        self._vm_pos_of = pos_of.tolist()
        index_of = np.full(flat.size, -1, dtype=np.int64)
        index_of[self._vm_iter_np * n_ops + self._vm_op_np] = np.arange(
            n_mem, dtype=np.int64
        )
        self._vm_index_of = index_of.tolist()
        # Start of each modulo-pipeline group in the memory-instance list.
        n_groups = self.instance_group_bounds()[1]
        self._vm_group_bounds = np.searchsorted(
            vm_nominal_np // ii, np.arange(n_groups + 1, dtype=np.int64)
        ).tolist()
        self._vm_mem_base = np.zeros(n_ops, dtype=np.int64)
        self._vm_mem_stride = np.zeros(n_ops, dtype=np.int64)

    # ------------------------------------------------------------------
    def _entry_walk(self, base, mem_base, mem_stride):
        if not self._vector_ok:
            return super()._entry_walk(base, mem_base, mem_stride)
        bases = self._vm_mem_base
        strides = self._vm_mem_stride
        for op, value in enumerate(mem_base):
            bases[op] = value
            strides[op] = mem_stride[op]
        addresses = (
            bases[self._vm_op_np] + strides[self._vm_op_np] * self._vm_iter_np
        ).tolist()
        ctx = _EntryContext(base, addresses, self._vm_n)
        bounds = self.instance_group_bounds()[0]
        mem_bounds = self._vm_group_bounds

        def walk(first: int, last: int, offset: int, n_iterations: int) -> int:
            return self._walk_span(
                ctx, bounds[first], bounds[last],
                mem_bounds[first], mem_bounds[last],
                offset, n_iterations,
            )

        return _ReadyView(self, ctx), walk

    # ------------------------------------------------------------------
    @classmethod
    def run_batch(cls, sims: Iterable[LockstepSimulator]) -> list:
        """Run simulators (either engine) one after another, in order.

        ``sims`` may be a generator, so each simulator can be built just
        before it runs and dropped right after.  Results align with
        ``sims`` by index.
        """
        return [sim.run() for sim in sims]

    # ------------------------------------------------------------------
    def _walk_span(
        self,
        ctx: _EntryContext,
        start_pos: int,
        end_pos: int,
        mem_start: int,
        mem_end: int,
        offset: int,
        n_iterations: int,
    ) -> int:
        """Walk instance positions ``start_pos..end_pos``: batched
        memory accesses interleaved, in exact position order, with the
        pending consumer stall checks.  Returns the updated offset."""
        base = ctx.base
        hazards = ctx.hazards
        ready = ctx.ready
        addresses = ctx.addresses
        vm_pos = self._vm_pos
        vm_iter = self._vm_iter
        vm_op = self._vm_op
        vm_nominal = self._vm_nominal
        vm_slack = self._vm_slack
        consumers = self._vm_consumers
        pos_of = self._vm_pos_of
        ii = self.schedule.ii
        n_ops = self._n_ops
        access_batch = self.memory.access_batch
        filtered = n_iterations < self.n_iterations

        mem_index = mem_start
        # Skip leading instances a steady-state fast-forward replayed.
        while (
            filtered
            and mem_index < mem_end
            and vm_iter[mem_index] >= n_iterations
        ):
            mem_index += 1

        while True:
            next_hazard = hazards[0][0] if hazards else None
            if mem_index < mem_end:
                position = vm_pos[mem_index]
                if next_hazard is not None and next_hazard <= position:
                    pass  # fall through to the hazard pop below
                else:
                    # Batch every access before the next pending check.
                    limit = mem_end
                    if next_hazard is not None:
                        limit = bisect_left(
                            vm_pos, next_hazard, mem_index, mem_end
                        )
                    if filtered:
                        # Post-fast-forward tail: stop the contiguous
                        # run at the first replayed iteration.
                        scan = mem_index
                        while (
                            scan < limit and vm_iter[scan] < n_iterations
                        ):
                            scan += 1
                        limit = scan
                    if limit > mem_index:
                        consumed = access_batch(
                            self._vm_cluster, addresses, self._vm_store,
                            vm_nominal, base + offset, vm_slack,
                            ready, mem_index, limit,
                        )
                        last = mem_index + consumed - 1
                        mem_index += consumed
                        result = ready[last]
                        if result > base + offset + vm_nominal[last] + vm_slack[last]:
                            # Late result: queue exact stall checks at
                            # each consumer's instance position.
                            producer_op = vm_op[last]
                            iteration = vm_iter[last]
                            for dst, distance, extra, t_dst in consumers[
                                producer_op
                            ]:
                                cons_iter = iteration + distance
                                if cons_iter >= n_iterations:
                                    continue
                                needed = result + extra
                                cons_nominal = cons_iter * ii + t_dst
                                if needed <= base + cons_nominal + offset:
                                    continue
                                heappush(
                                    hazards,
                                    (
                                        pos_of[cons_iter * n_ops + dst],
                                        cons_nominal,
                                        cons_iter,
                                        needed,
                                    ),
                                )
                    if filtered:
                        while (
                            mem_index < mem_end
                            and vm_iter[mem_index] >= n_iterations
                        ):
                            mem_index += 1
                    continue
            elif next_hazard is None or next_hazard >= end_pos:
                break
            # Replay the earliest pending consumer check in exact order.
            position, cons_nominal, cons_iter, needed = heappop(hazards)
            if cons_iter >= n_iterations:
                continue  # its iteration was replayed by a fast-forward
            lack = needed - (base + cons_nominal + offset)
            if lack > 0:
                offset += lack
                ctx.cp_pos.append(position)
                ctx.cp_off.append(offset)
        ctx.frontier = end_pos
        return offset


def simulate(
    schedule: Schedule,
    n_iterations: Optional[int] = None,
    n_times: Optional[int] = None,
    steady: Optional[str] = None,
    warm_store=None,
) -> SimulationResult:
    """Convenience one-shot simulation on :class:`VectorizedSimulator`.

    Construct the class directly to read its ``steady_report`` after
    ``run()``.  ``warm_store`` optionally shares post-warm-up memory
    state between content-equal runs (bit-identical either way) and
    counts its own hits and stores.
    """
    return VectorizedSimulator(
        schedule, n_iterations, n_times, steady, warm_store
    ).run()
