"""Lockstep execution of a modulo-scheduled loop.

All clusters run in lockstep: any stall in one cluster stalls every
cluster (Section 2.1), so the simulator keeps a single global *stall
offset*.  Operation instances are replayed in nominal schedule order
(iteration ``i`` of operation ``v`` nominally issues at ``i*II + t_v``);
when an instance's operand is not ready at its (offset-adjusted) issue
time the offset grows by the difference — that is exactly the paper's
NCYCLE_stall.

Memory instances run through the full distributed-memory timing model
(:class:`~repro.memory.hierarchy.DistributedMemorySystem`): local MSI
lookup, MSHR allocation, memory-bus arbitration, remote-cache or
main-memory fill, in-flight merging.  The scheduler's *assumed* latency
only influenced where consumers were placed; actual readiness comes from
the memory system, which is how optimistic hit-latency scheduling turns
into stalls when a load misses.

Steady-state detection
----------------------
Simulation is highly repetitive at two granularities, and the
:mod:`repro.steady` subsystem exploits both without changing a single
bit of the results — the simulator only *drives* the detectors, the
detection logic itself lives there:

* :class:`~repro.steady.entry.EntrySteadyDetector` memoizes whole loop
  entries: repeated normalized memory-state signatures prove the
  remaining ``NTIMES`` entries replay a recorded cycle;
* :class:`~repro.steady.iteration.IterationSteadyDetector` detects
  periodic behaviour *within* one entry at modulo-pipeline group
  boundaries and fast-forwards whole periods — this is what covers the
  ``NTIMES=1`` streaming kernels the entry memoizer cannot.

``steady`` selects the detectors (``off``/``entry``/``iteration``/
``auto``).  Results are guaranteed — and tested — to be bit-identical
across every mode.

:class:`LockstepSimulator` is the scalar reference walk: one interpreted
loop body per operation instance.  Runs use the
:class:`~repro.simulator.vectorized.VectorizedSimulator` subclass (and
its :func:`~repro.simulator.vectorized.simulate` one-shot helper); the
scalar class stays as its fallback for statically unsafe schedules and
as the oracle the differential matrix (``tests/test_differential.py``)
holds it to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..ir.loop import Loop
from ..machine.config import MachineConfig
from ..memory.hierarchy import DistributedMemorySystem
from ..scheduler.result import Schedule
from ..steady import (
    EntrySteadyDetector,
    IterationSteadyDetector,
    SteadyState,
    SteadyStateReport,
    resolve_steady_mode,
)
from .stats import SimulationResult

__all__ = ["LockstepSimulator", "ReadyWindow", "SteadyState"]


@dataclass(frozen=True)
class _FlowInput:
    producer: str
    distance: int
    cross_cluster: bool


class ReadyWindow:
    """Ring buffer over the most recent iterations' per-op ready times.

    The lockstep walk only ever looks *back* a bounded number of
    iterations: flow operands reach at most ``max(flow distance +
    consumer stage)`` iterations behind the newest written one, and the
    iteration-level steady detector's ready-window snapshot reaches
    ``window + stage count`` groups back.  Allocating a fresh
    ``NITER × n_ops`` list per loop entry is therefore pure churn — this
    ring keeps exactly the reachable span and is reused across entries.

    A slot is valid only when its tag equals the iteration that wrote
    it, which reproduces the full list's ``None`` (not-yet-executed /
    out-of-window) semantics bit for bit; :meth:`get` is the read path
    detectors use, the executor's hot loop inlines the same indexing.
    """

    __slots__ = ("n_ops", "span", "values", "tags")

    def __init__(self, n_ops: int, span: int):
        self.n_ops = n_ops
        self.span = max(1, span)
        self.values: List[int] = [0] * (self.span * n_ops)
        self.tags: List[int] = [-1] * (self.span * n_ops)

    def reset(self) -> None:
        """Invalidate every slot (fresh loop entry)."""
        self.tags = [-1] * (self.span * self.n_ops)

    def get(self, iteration: int, op_index: int) -> Optional[int]:
        """Ready time of instance ``(iteration, op)``; ``None`` when the
        instance has not executed (or fell out of the ring's span, which
        the span sizing proves no caller can observe)."""
        slot = (iteration % self.span) * self.n_ops + op_index
        if self.tags[slot] != iteration:
            return None
        return self.values[slot]


def _validate_count(name: str, value: Optional[int], default: int) -> int:
    """Resolve an iteration-count override, rejecting non-positive values.

    ``value or default`` would silently swallow an explicit ``0``; the
    override is applied iff it ``is not None``, and whichever count wins
    must be at least 1 — a loop that is never entered has no schedule to
    execute.
    """
    resolved = default if value is None else value
    if not isinstance(resolved, int) or isinstance(resolved, bool):
        raise ValueError(f"{name} must be an int, got {resolved!r}")
    if resolved < 1:
        raise ValueError(f"{name} must be >= 1, got {resolved}")
    return resolved


class LockstepSimulator:
    """Executes one schedule on one machine instance.

    Parameters
    ----------
    schedule:
        The modulo schedule to execute.
    n_iterations:
        Override NITER (defaults to the loop's own trip count).
    n_times:
        Override NTIMES (defaults to the loop's outer trip-count product).
        Cache state persists across executions, as on real hardware.
    steady:
        Detector selection, one of
        :data:`~repro.steady.STEADY_MODES`.  ``auto`` (the default)
        memoizes entries for multi-entry loops and runs the
        iteration-level detector for single-entry streaming loops;
        ``off`` simulates every entry instance by instance.
    """

    def __init__(
        self,
        schedule: Schedule,
        n_iterations: Optional[int] = None,
        n_times: Optional[int] = None,
        steady: Optional[str] = None,
        warm_store=None,
    ):
        self.schedule = schedule
        self.loop: Loop = schedule.kernel.loop
        self.machine: MachineConfig = schedule.machine
        self.n_iterations = _validate_count(
            "n_iterations", n_iterations, self.loop.n_iterations
        )
        self.n_times = _validate_count(
            "n_times", n_times, self.loop.n_times
        )
        self.steady_mode = resolve_steady_mode(steady)
        #: Optional :class:`~repro.simulator.warmstate.WarmStateStore`.
        #: Consulted/fed by :meth:`run`; ignored when the resolved
        #: steady mode is ``off`` (such runs never reuse state).
        self.warm_store = warm_store
        #: Combined steady-state telemetry, populated by :meth:`run`.
        self.steady_report: Optional[SteadyStateReport] = None
        self.memory = DistributedMemorySystem(self.machine)
        self._flow_inputs = self._collect_flow_inputs()
        self._build_fast_tables()
        self._build_instances()

    # ------------------------------------------------------------------
    def _collect_flow_inputs(self) -> Dict[str, List[_FlowInput]]:
        """Flow operands of every operation, with cross-cluster flags."""
        ddg = self.schedule.kernel.ddg
        placements = self.schedule.placements
        inputs: Dict[str, List[_FlowInput]] = {}
        for edge in ddg.edges():
            if edge.kind != "flow":
                continue
            src = placements[edge.src]
            dst = placements[edge.dst]
            inputs.setdefault(edge.dst, []).append(
                _FlowInput(
                    producer=edge.src,
                    distance=edge.distance,
                    cross_cluster=src.cluster != dst.cluster,
                )
            )
        return inputs

    def _build_instances(self) -> None:
        """All ``(nominal time, iteration, op index)`` instances of one
        execution, sorted by nominal time with ties broken exactly like
        the historical ``(nominal, iteration, name)`` tuple sort.

        Built array-at-a-time: the per-instance Python tuple/sort churn
        used to show up in profiles once every other per-cell cost fell.
        The sorted numpy columns stay around for the vectorized engine
        and for :meth:`instance_group_bounds`.
        """
        ii = self.schedule.ii
        n_ops = self._n_ops
        n_iterations = self.n_iterations
        times = np.fromiter(self._op_time, dtype=np.int64, count=n_ops)
        # Name rank reproduces the tuple sort's string comparison.
        rank = np.empty(n_ops, dtype=np.int64)
        for position, name in enumerate(sorted(self._op_names)):
            rank[self._op_names.index(name)] = position
        iterations = np.repeat(
            np.arange(n_iterations, dtype=np.int64), n_ops
        )
        ops = np.tile(np.arange(n_ops, dtype=np.int64), n_iterations)
        nominal = iterations * ii + times[ops]
        order = np.lexsort((rank[ops], iterations, nominal))
        self._inst_nominal = nominal[order]
        self._inst_iter = iterations[order]
        self._inst_op = ops[order]
        self._instances_cache: Optional[List[Tuple[int, int, int]]] = None
        self._group_bounds: Optional[Tuple[List[int], int]] = None

    @property
    def _instances(self) -> List[Tuple[int, int, int]]:
        """The sorted instance list as Python tuples, materialized on
        first use (the vectorized engine reads only the numpy columns,
        so it never pays for this)."""
        cached = self._instances_cache
        if cached is None:
            cached = self._instances_cache = list(
                zip(
                    self._inst_nominal.tolist(),
                    self._inst_iter.tolist(),
                    self._inst_op.tolist(),
                )
            )
        return cached

    def instance_group_bounds(self) -> Tuple[List[int], int]:
        """Start index of each modulo-pipeline group in the sorted
        instance list, and the number of groups; ``bounds[k]..bounds[k+1]``
        is group ``k`` (the instances with nominal issue times in
        ``[k*II, (k+1)*II)``).  Computed once, on first use."""
        if self._group_bounds is None:
            nominal = self._inst_nominal
            ii = self.schedule.ii
            n_groups = int(nominal[-1]) // ii + 1 if nominal.size else 0
            bounds = np.searchsorted(
                nominal, np.arange(n_groups + 1, dtype=np.int64) * ii,
                side="left",
            )
            self._group_bounds = (bounds.tolist(), n_groups)
        return self._group_bounds

    def _build_fast_tables(self) -> None:
        """Index-based mirrors of the per-instance lookups.

        The entry hot loop runs ``NITER × ops`` times per entry; resolving
        operations by name and rebuilding iteration-point dictionaries
        there is pure overhead, so everything that is constant across
        instances is precomputed once: operation indices, clusters,
        functional-unit latencies, flow-operand index lists (with the
        register-bus penalty folded in) and, for memory operations, the
        per-iteration address stride of the affine reference.
        """
        loop = self.loop
        placements = self.schedule.placements
        ii = self.schedule.ii
        lrb = self.machine.register_bus.latency
        names = list(placements)
        index_of = {name: i for i, name in enumerate(names)}
        self._op_names = names
        self._n_ops = len(names)
        self._cluster = [placements[n].cluster for n in names]
        self._op_time = [placements[n].time for n in names]
        self._op_stage = [time // ii for time in self._op_time]
        self._is_memory = []
        self._is_store = []
        self._fu_latency = []
        self._mem_ref = []
        for name in names:
            op = loop.operation(name)
            self._is_memory.append(op.is_memory)
            self._is_store.append(op.is_store)
            self._fu_latency.append(
                0 if op.is_memory else self.machine.latency(op.opclass)
            )
            self._mem_ref.append(loop.ref_of(op) if op.is_memory else None)
        self._flows: List[Tuple[Tuple[int, int, int], ...]] = [
            tuple(
                (
                    index_of[flow.producer],
                    flow.distance,
                    lrb if flow.cross_cluster else 0,
                )
                for flow in self._flow_inputs.get(name, ())
            )
            for name in names
        ]
        # Affine address decomposition per memory op: address(point) =
        # constant + sum(coef[var] * point[var]), extracted once from
        # the row-major linearization so _entry_tables evaluates a small
        # dot product per entry instead of re-walking the subscripts.
        # The second entry is the per-iteration stride.
        inner = loop.inner
        self._mem_affine: List[Optional[Tuple[int, int, Tuple[Tuple[str, int], ...]]]] = []
        for ref in self._mem_ref:
            if ref is None:
                self._mem_affine.append(None)
                continue
            element_size = ref.array.element_size
            weight = element_size
            weights = []
            for extent in reversed(ref.array.shape):
                weights.append(weight)
                weight *= extent
            weights.reverse()
            constant = ref.array.base
            coeffs: Dict[str, int] = {}
            for expr, dim_weight in zip(ref.subscripts, weights):
                constant += expr.constant * dim_weight
                for var, coef in expr.coeffs:
                    coeffs[var] = coeffs.get(var, 0) + coef * dim_weight
            inner_coef = coeffs.pop(inner.var, 0)
            self._mem_affine.append(
                (
                    constant + inner_coef * inner.lower,
                    inner_coef * inner.step,
                    tuple(sorted(coeffs.items())),
                )
            )
        # Ready-ring span: the furthest any reader reaches back, in
        # iterations.  Flow operands reach ``consumer stage + distance``
        # behind the newest written iteration; the iteration detector's
        # ready-window snapshot reaches ``window + max stage - 1``.  The
        # window is the max flow ``distance + stage gap``, the number of
        # groups back a consumer can read (negative only when every
        # flow edge is dead).
        stage = self._op_stage
        self._max_stage = max(stage, default=0)
        flow_lookback = 0
        for dst in range(self._n_ops):
            for _src, distance, _extra in self._flows[dst]:
                flow_lookback = max(flow_lookback, stage[dst] + distance)
        self._ready_window = max(
            (
                distance + stage[dst] - stage[src]
                for dst in range(self._n_ops)
                for src, distance, _extra in self._flows[dst]
            ),
            default=0,
        )
        span = (
            max(flow_lookback, max(self._ready_window, 0) + self._max_stage)
            + 1
        )
        self._ready = ReadyWindow(self._n_ops, span)

    # ------------------------------------------------------------------
    def _make_detectors(self, outer_points):
        """Instantiate the detectors the resolved mode selects."""
        entry_detector = None
        iteration_detector = None
        mode = self.steady_mode
        if mode in ("entry", "auto") and self.n_times > 1:
            entry_detector = EntrySteadyDetector(self, outer_points)
        if mode == "iteration" or (mode == "auto" and self.n_times == 1):
            candidate = IterationSteadyDetector(self)
            if candidate.enabled:
                iteration_detector = candidate
        return entry_detector, iteration_detector

    def run(self) -> SimulationResult:
        """Execute NTIMES entries of the loop and aggregate the cycles."""
        schedule = self.schedule
        total_stall = 0

        outer_points = list(self._outer_points())
        n_points = len(outer_points)
        entry_compute = (self.n_iterations + schedule.stage_count - 1) * schedule.ii
        entry_detector, iteration_detector = self._make_detectors(outer_points)

        warm = self.warm_store if self.steady_mode != "off" else None
        warm_key = None
        # Set early when a warm record finishes the run arithmetically.
        report: Optional[SteadyStateReport] = None
        captured: dict = {}
        if warm is not None:
            warm_key = warm.key(
                schedule.fingerprint(),
                self.steady_mode,
                self.n_iterations,
                self.n_times,
            )
            record = warm.lookup(warm_key)
            if record is not None:
                adopted = self._adopt_warm(
                    record, entry_detector, iteration_detector
                )
                if adopted is not None:
                    total_stall, report = adopted
            if report is None and entry_detector is not None:
                # Capture the boundary state the moment a detection
                # confirms — before its replay deltas are applied.
                def _capture(match_start: int, at_entry: int) -> None:
                    captured["match_start"] = match_start
                    captured["entry"] = at_entry
                    captured["snapshot"] = self.memory.snapshot()

                entry_detector.warm_sink = _capture

        if report is None:
            entry_record: Optional[SteadyState] = None
            clock = 0  # global time: memory-system state spans loop entries
            for entry in range(self.n_times):
                if entry_detector is not None:
                    replay = entry_detector.boundary(entry, clock)
                    if replay is not None:
                        total_stall += replay.stall_cycles
                        entry_record = replay.record
                        break
                outer = outer_points[entry % n_points]
                stall = self._run_once(outer, clock, entry, iteration_detector)
                total_stall += stall
                clock += entry_compute + stall
                if entry_detector is not None:
                    entry_detector.commit(entry, stall)
            if warm is not None:
                self._store_warm(
                    warm, warm_key, entry_detector, iteration_detector,
                    captured, total_stall,
                )
            report = SteadyStateReport(
                mode=self.steady_mode,
                entry=entry_record,
                iterations=(
                    tuple(iteration_detector.detections)
                    if iteration_detector is not None
                    else ()
                ),
            )
        self.steady_report = report

        compute = schedule.compute_cycles(self.n_iterations, self.n_times)
        comms = schedule.n_communications * self.n_iterations * self.n_times
        return SimulationResult(
            kernel=schedule.kernel.name,
            machine=self.machine.name,
            scheduler=schedule.scheduler_name,
            threshold=schedule.threshold,
            ii=schedule.ii,
            stage_count=schedule.stage_count,
            n_times=self.n_times,
            n_iterations=self.n_iterations,
            compute_cycles=compute,
            stall_cycles=total_stall,
            memory=self.memory.stats,
            register_comms=comms,
        )

    # ------------------------------------------------------------------
    # Warm-state store integration (see repro.simulator.warmstate)
    # ------------------------------------------------------------------
    def _adopt_warm(
        self, record, entry_detector, iteration_detector
    ) -> Optional[Tuple[int, SteadyStateReport]]:
        """Try to resume from a warm record; ``None`` falls back to cold.

        Returns ``(total stall, steady-state report)`` on success, with
        the memory system holding the state full simulation would have
        produced.  Adoption never assumes the record fits: the entry
        shape re-proves replay soundness against this run's own address
        tables, and a record that fails any check leaves the system
        reset for an ordinary cold run.
        """
        if record.match_start is None:
            # Iteration shape: the snapshot is the *final* state of a
            # single-entry run whose iteration detector fired.
            if self.n_times != 1 or iteration_detector is None:
                return None
            if not record.iterations:
                return None
            self.memory.restore(record.snapshot)
            return record.entry_stall, SteadyStateReport(
                mode=self.steady_mode, iterations=tuple(record.iterations)
            )
        # Entry shape: restore the detection-boundary state, then let
        # the detector re-prove and replay exactly as on a cold hit.
        if entry_detector is None:
            return None
        self.memory.restore(record.snapshot)
        replay = entry_detector.adopt(
            list(record.records), record.match_start, record.entries_simulated
        )
        if replay is None:
            self.memory.reset()  # pristine cold-start state
            return None
        stall = sum(
            stall for stall, _ in record.records[: record.entries_simulated]
        )
        return stall + replay.stall_cycles, SteadyStateReport(
            mode=self.steady_mode, entry=replay.record
        )

    def _store_warm(
        self, warm, warm_key, entry_detector, iteration_detector,
        captured: dict, total_stall: int,
    ) -> None:
        """Record this run's warm-up prefix, if a detector confirmed one.

        Only detector-confirmed state is stored — "warm" is defined by
        the detectors, so kernels that never converge are never cached
        (their state would be an arbitrary mid-run snapshot with no
        evidence attached).
        """
        from .warmstate import WarmRecord

        if captured:
            at_entry = captured["entry"]
            warm.store(
                warm_key,
                WarmRecord(
                    entries_simulated=at_entry,
                    records=tuple(entry_detector.records[:at_entry]),
                    match_start=captured["match_start"],
                    snapshot=captured["snapshot"],
                ),
            )
        elif (
            self.n_times == 1
            and iteration_detector is not None
            and iteration_detector.detections
        ):
            warm.store(
                warm_key,
                WarmRecord(
                    entries_simulated=1,
                    records=(),
                    match_start=None,
                    snapshot=self.memory.snapshot(),
                    entry_stall=total_stall,
                    iterations=tuple(iteration_detector.detections),
                ),
            )

    # ------------------------------------------------------------------
    def _outer_points(self) -> Iterator[Dict[str, int]]:
        """Iteration points of the outer dims (one per loop entry)."""
        outer = self.loop.outer_dims
        if not outer:
            yield {}
            return

        def walk(depth: int, partial: Dict[str, int]) -> Iterator[Dict[str, int]]:
            if depth == len(outer):
                yield dict(partial)
                return
            for value in outer[depth].values():
                partial[outer[depth].var] = value
                yield from walk(depth + 1, partial)
            partial.pop(outer[depth].var, None)

        yield from walk(0, {})

    def _entry_tables(
        self, outer: Dict[str, int]
    ) -> Tuple[List[int], List[int]]:
        """Per-entry address bases: address(iteration) = base + stride*i."""
        n_ops = self._n_ops
        mem_base: List[int] = [0] * n_ops
        mem_stride: List[int] = [0] * n_ops
        for op_index, affine in enumerate(self._mem_affine):
            if affine is not None:
                constant, stride, coeffs = affine
                for var, coef in coeffs:
                    constant += coef * outer[var]
                mem_base[op_index] = constant
                mem_stride[op_index] = stride
        return mem_base, mem_stride

    def _run_once(
        self,
        outer: Dict[str, int],
        base: int,
        entry: int = 0,
        detector: Optional[IterationSteadyDetector] = None,
    ) -> int:
        """One entry of the innermost loop starting at global time ``base``;
        returns its stall cycles.

        The engine supplies the walk (:meth:`_entry_walk`); this is the
        group walk both engines share.  Without an iteration detector
        the entry is walked as one span.  With one, the walk is split at
        modulo-pipeline group boundaries so the detector can observe
        them.  A fast-forward shrinks the remaining iteration count:
        skipped iterations were proven to repeat the detected cycle, and
        the tail simulates identically in the fast-forwarded frame (the
        run's finish() re-anchors the memory state afterwards)."""
        mem_base, mem_stride = self._entry_tables(outer)
        ready, walk = self._entry_walk(base, mem_base, mem_stride)
        n_groups = self.instance_group_bounds()[1]
        run = (
            detector.begin_entry(
                entry, base, ready, mem_base, mem_stride,
                final_entry=(entry == self.n_times - 1),
            )
            if detector is not None
            else None
        )
        if run is None:
            return walk(0, n_groups, 0, self.n_iterations)

        effective_niter = self.n_iterations
        offset = 0
        extra_stall = 0
        for k in range(n_groups):
            if run.active:
                replay = run.boundary(k, offset)
                if replay is not None:
                    effective_niter -= replay.skipped
                    extra_stall += replay.stall_cycles
            offset = walk(k, k + 1, offset, effective_niter)
            if k + 1 >= effective_niter + self._max_stage:
                break  # every remaining instance is a skipped iteration's
        run.finish()
        return offset + extra_stall

    def _entry_walk(
        self, base: int, mem_base: List[int], mem_stride: List[int]
    ):
        """The engine's half of one entry: the ready view the iteration
        detector reads (any object with ``get(iteration, op)``) and
        ``walk(first, last, offset, n_iterations)``, which executes
        modulo-pipeline groups ``first..last-1`` and returns the updated
        stall offset."""
        ready = self._ready
        ready.reset()
        bounds = self.instance_group_bounds()[0]

        def walk(first: int, last: int, offset: int, n_iterations: int) -> int:
            return self._walk_instances(
                bounds[first], bounds[last], base, offset,
                ready, mem_base, mem_stride, n_iterations,
            )

        return ready, walk

    def _walk_instances(
        self,
        start: int,
        end: int,
        base: int,
        offset: int,
        ready: ReadyWindow,
        mem_base: List[int],
        mem_stride: List[int],
        n_iterations: int,
    ) -> int:
        """Execute instances ``start..end`` of the sorted instance list
        (skipping iterations at or past ``n_iterations``, which a
        steady-state fast-forward has replayed); returns the updated
        stall offset.  This is THE lockstep hot loop — the reference the
        vectorized engine is proven bit-identical against, and the walk
        both the plain path and the detector-partitioned path run, so
        steady modes can never drift from exact simulation."""
        n_ops = self._n_ops
        instances = self._instances
        clusters = self._cluster
        is_memory = self._is_memory
        is_store = self._is_store
        fu_latency = self._fu_latency
        flows = self._flows
        access = self.memory.access
        span = ready.span
        tags = ready.tags
        values = ready.values

        for position in range(start, end):
            nominal, iteration, op_index = instances[position]
            if iteration >= n_iterations:
                continue
            issue = base + nominal + offset

            # Lockstep operand wait.
            for src_index, distance, extra in flows[op_index]:
                src_iter = iteration - distance
                if src_iter < 0:
                    continue  # live-in from before this loop entry
                slot = (src_iter % span) * n_ops + src_index
                if tags[slot] != src_iter:
                    continue
                operand_ready = values[slot] + extra
                if operand_ready > issue:
                    offset += operand_ready - issue
                    issue = operand_ready

            if is_memory[op_index]:
                result = access(
                    clusters[op_index],
                    mem_base[op_index] + mem_stride[op_index] * iteration,
                    is_store[op_index],
                    issue,
                )
                slot = (iteration % span) * n_ops + op_index
                tags[slot] = iteration
                values[slot] = result.ready_time
            else:
                slot = (iteration % span) * n_ops + op_index
                tags[slot] = iteration
                values[slot] = issue + fu_latency[op_index]
        return offset

