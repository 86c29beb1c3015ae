"""Incremental sampled CME: set-decomposed replay over shared traces.

This is the production engine behind :func:`repro.cme.default_analyzer`.
It computes *exactly* the same estimates as the from-scratch reference
(:class:`~repro.cme.sampling.SamplingCME` — the Vera et al. sampled
functional-cache sweep) but answers the scheduler's probe pattern
incrementally instead of re-simulating every reference set from scratch.

Three observations make that possible:

1. **Addresses are probe-invariant.**  The byte addresses an operation
   touches depend only on the loop content and the sampling window, so
   they are precomputed once per ``(loop fingerprint, window)`` in a
   content-addressed :class:`~repro.cme.trace.TraceStore` and shared
   across probes, analyzers, pickling and grid process fan-out.

2. **Cache sets are independent.**  In a set-associative LRU cache each
   set evolves only under the accesses that map to it.  A reference
   set's miss counts therefore decompose per set, and the estimate for
   ``resident + [op]`` differs from the resident's estimate *only* in
   the sets ``op`` touches.  The engine memoizes, per resident set, the
   per-set miss decomposition (a *snapshot*); a probe replays just the
   added operation's sets against the merged streams and patches the
   snapshot — the rest of the resident simulation is reused verbatim.

3. **The schedulers probe in batches.**  RMCA cluster ranking asks for
   every candidate cluster's ``resident + [op]`` probe at once, and the
   binding-prefetch latency test re-asks one of them.
   :meth:`IncrementalCME.probe_clusters` answers the whole sweep in one
   call; the per-probe snapshots it leaves behind turn the follow-up
   ``miss_ratio`` calls of ``_assumed_latency`` into memo hits.

Every memo key is derived from :func:`~repro.cme.trace.loop_fingerprint`
— never ``id(loop)`` — so entries can outlive the loop object, survive
pickling, and be shared across processes without aliasing hazards.

Exactness is enforced by ``tests/test_cme_incremental.py``, which checks
estimates against the from-scratch reference across generated kernels,
op subsets, geometries and probe orders; the ``incremental`` column of
``tests/test_differential.py`` checks that full schedules are
byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..ir.loop import Loop
from ..ir.operations import Operation
from ..machine.config import CacheConfig
from .sampling import MissEstimate
from .trace import GeometryTrace, TraceStore, loop_fingerprint

__all__ = ["IncrementalCME", "replay_set_events"]


def replay_set_events(
    events: Sequence[Tuple[int, int, int, str]], associativity: int
) -> Dict[str, int]:
    """LRU-replay one cache set's access stream; misses per operation.

    ``events`` are ``(point, position, line, op_name)`` tuples in global
    access order (``(point, position)``-ascending).  The replay is the
    per-set restriction of
    :class:`~repro.cme.sampling._FunctionalCache`: within one set,
    distinct lines are distinct tags, so LRU over lines is LRU over
    tags.
    """
    misses: Dict[str, int] = {}
    if associativity == 1:
        # Direct-mapped fast path (the paper's caches): one resident
        # line per set, so an access misses iff the line changed.
        resident = None
        for _point, _position, line, name in events:
            if line != resident:
                misses[name] = misses.get(name, 0) + 1
                resident = line
        return misses
    ways: List[int] = []  # resident lines, most recently used last
    for _point, _position, line, name in events:
        if line in ways:
            ways.remove(line)
            ways.append(line)
            continue
        misses[name] = misses.get(name, 0) + 1
        ways.append(line)
        if len(ways) > associativity:
            ways.pop(0)
    return misses


@dataclass
class _Snapshot:
    """Memoized estimate of one reference set plus its per-set split.

    ``misses_by_set`` maps each touched cache set to that set's per-op
    miss counts — the decomposition a later probe patches when one
    operation is added to the set.
    """

    estimate: MissEstimate
    misses_by_set: Dict[int, Dict[str, int]]


class IncrementalCME:
    """Incremental, batched locality analyzer (sampled CME semantics).

    Bit-identical to :class:`~repro.cme.sampling.SamplingCME` at equal
    ``max_points`` — deliberately so: it shares the ``"sampling"``
    fingerprint, because two analyzers with equal fingerprints must (and
    do) drive the schedulers to identical decisions, which keeps every
    existing grid cache entry and golden recording valid.

    Parameters
    ----------
    max_points:
        Maximum iteration points simulated per query (the sampling
        window of the reference estimator).
    traces:
        Optional shared :class:`~repro.cme.trace.TraceStore`; analyzers
        given the same store share address traces.
    """

    name = "sampling"

    def __init__(
        self, max_points: int = 2048, traces: Optional[TraceStore] = None
    ):
        if max_points < 1:
            raise ValueError("max_points must be positive")
        self.max_points = max_points
        self.traces = traces if traces is not None else TraceStore()
        self._snapshots: Dict[Tuple, _Snapshot] = {}
        self._set_memo: Dict[Tuple, Dict[str, int]] = {}
        # loop_fp -> program positions of its memory ops; the one piece
        # of trace state the memo-hit fast path needs.
        self._positions: Dict[str, Dict[str, int]] = {}
        self._counters: Dict[str, int] = {
            "probes": 0,
            "memo_hits": 0,
            "extensions": 0,
            "full_replays": 0,
            "batched_calls": 0,
            "sets_replayed": 0,
            "set_memo_hits": 0,
        }

    def __getstate__(self):
        # Ship the content-addressed traces (expensive to rebuild, safe
        # to share) but not the probe memos: they grow with every
        # reference set ever probed, and the grid re-pickles the
        # analyzer into every worker at each pool creation — workers
        # rebuild snapshots from the traces in microseconds.
        state = self.__dict__.copy()
        state["_snapshots"] = {}
        state["_set_memo"] = {}
        return state

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def telemetry(self) -> Dict[str, int]:
        """Counter snapshot (probe/memo/replay activity + store sizes)."""
        data = dict(self._counters)
        data["address_traces"] = len(self.traces)
        data["snapshots"] = len(self._snapshots)
        return data

    # ------------------------------------------------------------------
    # Estimation
    # ------------------------------------------------------------------
    def estimate(
        self,
        loop: Loop,
        ops: Sequence[Operation],
        cache: CacheConfig,
    ) -> MissEstimate:
        """Miss statistics for ``ops`` sharing one cache over ``loop``."""
        return self._probe(loop, ops, cache)

    def probe_clusters(
        self,
        loop: Loop,
        op: Operation,
        residents: Sequence[Sequence[Operation]],
        caches: Sequence[CacheConfig],
    ) -> List[MissEstimate]:
        """All clusters' ``resident + [op]`` probes, one batched sweep.

        Returns one estimate per ``(residents[k], caches[k])`` pair.
        The snapshots this leaves behind make the scheduler's follow-up
        ``miss_count``/``miss_ratio`` calls memo hits.
        """
        self._counters["batched_calls"] += 1
        return [
            self._probe(loop, (*resident, op), cluster_cache, hint=op.name)
            for resident, cluster_cache in zip(residents, caches)
        ]

    # ------------------------------------------------------------------
    # LocalityAnalyzer protocol
    # ------------------------------------------------------------------
    def miss_count(
        self,
        loop: Loop,
        ops: Sequence[Operation],
        cache: CacheConfig,
    ) -> float:
        """Estimated misses per simulated window for a reference set."""
        return float(self._probe(loop, ops, cache).total_misses)

    def miss_ratio(
        self,
        loop: Loop,
        op: Operation,
        ops: Sequence[Operation],
        cache: CacheConfig,
    ) -> float:
        """Miss ratio of ``op`` when co-located with ``ops`` in one cache."""
        return self._probe(loop, ops, cache, hint=op.name).miss_ratio(op.name)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _key(
        self, loop_fp: str, names: FrozenSet[str], cache: CacheConfig
    ) -> Tuple:
        return (
            loop_fp,
            names,
            cache.size,
            cache.line_size,
            cache.associativity,
        )

    def _probe(
        self,
        loop: Loop,
        ops: Sequence[Operation],
        cache: CacheConfig,
        hint: Optional[str] = None,
    ) -> MissEstimate:
        """Estimate for ``ops``; ``hint`` names the most recently added
        operation, tried first when searching for a resident snapshot to
        extend."""
        loop_fp = loop_fingerprint(loop)
        # The program positions alone resolve the memo key; traces are
        # only materialized on a miss (memo hits are the scheduler's
        # common case).
        positions = self._positions.get(loop_fp)
        if positions is None:
            positions = self.traces.address_trace(loop, self.max_points).positions
            self._positions[loop_fp] = positions
        # Mirror the reference: only memory ops present in this loop
        # participate.  ``positions`` holds exactly the loop's memory
        # ops (names are unique within a loop), so membership alone is
        # the filter.
        names = frozenset(
            name
            for name in (op.name for op in ops)
            if name in positions
        )
        key = self._key(loop_fp, names, cache)
        snapshot = self._snapshots.get(key)
        if snapshot is not None:
            self._counters["memo_hits"] += 1
            return snapshot.estimate
        self._counters["probes"] += 1
        geometry = self.traces.geometry_trace(loop, self.max_points, cache)
        ordered = sorted(names, key=positions.__getitem__)
        if not names:
            snapshot = _Snapshot(MissEstimate(), {})
        else:
            snapshot = self._extend_or_replay(
                loop_fp, geometry, cache, names, ordered, hint
            )
        self._snapshots[key] = snapshot
        return snapshot.estimate

    def _extend_or_replay(
        self,
        loop_fp: str,
        geometry: GeometryTrace,
        cache: CacheConfig,
        names: FrozenSet[str],
        ordered: List[str],
        hint: Optional[str],
    ) -> _Snapshot:
        """Extend a resident snapshot when one exists, else full replay."""
        candidates = [hint] if hint in names else []
        candidates.extend(name for name in ordered if name != hint)
        for added in candidates:
            rest = names - {added}
            if rest:
                base = self._snapshots.get(self._key(loop_fp, rest, cache))
                if base is None:
                    continue
            else:
                base = _Snapshot(MissEstimate(), {})
            self._counters["extensions"] += 1
            return self._extend(loop_fp, geometry, cache, ordered, base, added)
        self._counters["full_replays"] += 1
        return self._full_replay(loop_fp, geometry, cache, ordered)

    def _extend(
        self,
        loop_fp: str,
        geometry: GeometryTrace,
        cache: CacheConfig,
        ordered: List[str],
        base: _Snapshot,
        added: str,
    ) -> _Snapshot:
        """Patch ``base`` (the snapshot without ``added``) into the full
        estimate: only the sets ``added`` touches are replayed."""
        misses = {name: 0 for name in ordered}
        misses.update(base.estimate.misses)
        misses_by_set = dict(base.misses_by_set)
        for cache_set in geometry.sets_of(added):
            counts = self._replay_set(loop_fp, geometry, cache, cache_set, ordered)
            stale = misses_by_set.get(cache_set)
            if stale is not None:
                for name, count in stale.items():
                    misses[name] -= count
            for name, count in counts.items():
                misses[name] += count
            misses_by_set[cache_set] = counts
        return self._snapshot(geometry, ordered, misses, misses_by_set)

    def _full_replay(
        self,
        loop_fp: str,
        geometry: GeometryTrace,
        cache: CacheConfig,
        ordered: List[str],
    ) -> _Snapshot:
        """Per-set replay of the whole reference set (no usable base)."""
        touched: Dict[int, None] = {}
        for name in ordered:
            for cache_set in geometry.sets_of(name):
                touched.setdefault(cache_set, None)
        misses = {name: 0 for name in ordered}
        misses_by_set: Dict[int, Dict[str, int]] = {}
        for cache_set in touched:
            counts = self._replay_set(loop_fp, geometry, cache, cache_set, ordered)
            misses_by_set[cache_set] = counts
            for name, count in counts.items():
                misses[name] += count
        return self._snapshot(geometry, ordered, misses, misses_by_set)

    def _snapshot(
        self,
        geometry: GeometryTrace,
        ordered: List[str],
        misses: Dict[str, int],
        misses_by_set: Dict[int, Dict[str, int]],
    ) -> _Snapshot:
        n_points = geometry.trace.n_points
        estimate = MissEstimate(
            accesses={name: n_points for name in ordered},
            misses=misses,
        )
        return _Snapshot(estimate=estimate, misses_by_set=misses_by_set)

    def _replay_set(
        self,
        loop_fp: str,
        geometry: GeometryTrace,
        cache: CacheConfig,
        cache_set: int,
        ordered: List[str],
    ) -> Dict[str, int]:
        """Miss counts per op for one cache set under ``ordered``'s
        merged access stream (memoized on the participating subset)."""
        participants = [
            name for name in ordered if cache_set in geometry.sets_of(name)
        ]
        key = (
            loop_fp,
            geometry.line_size,
            geometry.n_sets,
            cache.associativity,
            cache_set,
            frozenset(participants),
        )
        counts = self._set_memo.get(key)
        if counts is not None:
            self._counters["set_memo_hits"] += 1
            return counts
        self._counters["sets_replayed"] += 1
        if len(participants) == 1:
            events = geometry.sets_of(participants[0])[cache_set]
        else:
            events = []
            for name in participants:
                events.extend(geometry.sets_of(name)[cache_set])
            events.sort()
        counts = replay_set_events(events, cache.associativity)
        self._set_memo[key] = counts
        return counts
