"""RMCA — Register and Memory Communication-Aware modulo scheduling.

The paper's contribution (Section 4.3).  Non-memory operations are placed
with the register output-edge heuristic, exactly like the Baseline.  For
**memory operations** the cluster is chosen by *cache-miss profit*: every
cluster is scored with the number of cache misses its memory operations
would incur before and after adding the candidate operation (computed by
the Cache Miss Equations analyzer), and the cluster where the added misses
are smallest wins.  Clusters tied on miss profit fall back to the register
heuristic.

After the cluster is fixed the engine's binding-prefetch step decides
whether to schedule the load with the miss latency (threshold test plus
the recurrence guard) — see
:meth:`repro.scheduler.base.CommunicationAwareScheduler._assumed_latency`.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..ir.operations import Operation
from .base import CommunicationAwareScheduler, SchedulerConfig, _State

__all__ = ["RMCAScheduler"]


class RMCAScheduler(CommunicationAwareScheduler):
    """Register *and memory* communication-aware modulo scheduler."""

    name = "rmca"

    def __init__(
        self,
        locality,
        config: Optional[SchedulerConfig] = None,
    ):
        if locality is None:
            raise ValueError("RMCA requires a locality analyzer")
        super().__init__(config=config, locality=locality)

    def rank_clusters(
        self, state: _State, op: Operation
    ) -> List[int]:
        """Clusters in decreasing miss-profit preference for memory ops.

        When the analyzer exposes the batched probe API every cluster's
        ``resident + [op]`` probe is answered in one sweep — the probes
        share the candidate's address trace, and the snapshots they
        leave behind turn the engine's follow-up ``_assumed_latency``
        miss-ratio query into a memo hit.  The ranking is identical to
        scoring clusters one by one (the ``incremental`` column of
        ``tests/test_differential.py`` holds the two paths together).
        """
        machine = state.machine
        if (
            not op.is_memory
            or machine.n_clusters == 1
            or getattr(self.locality, "probe_clusters", None) is None
        ):
            return super().rank_clusters(state, op)
        loop = state.kernel.loop
        clusters = list(range(machine.n_clusters))
        residents = [state.memory_ops_in(k) for k in clusters]
        caches = [machine.cluster(k).cache for k in clusters]
        probes = self.locality.probe_clusters(loop, op, residents, caches)
        scored = []
        for cluster, resident, cache, after in zip(
            clusters, residents, caches, probes
        ):
            # An empty resident set incurs no misses; skip the probe.
            before = (
                self.locality.miss_count(loop, resident, cache)
                if resident
                else 0.0
            )
            score = (
                before - after.total_misses,  # <= 0; closer to 0 is better
                self.register_affinity(state, op, cluster),
                -state.ops_per_cluster[cluster],
            )
            scored.append((score, cluster))
        scored.sort(key=lambda item: (tuple(-x for x in item[0]), item[1]))
        return [cluster for _, cluster in scored]

    def cluster_score(
        self, state: _State, op: Operation, cluster: int
    ) -> Tuple[float, ...]:
        if not op.is_memory:
            return super().cluster_score(state, op, cluster)
        loop = state.kernel.loop
        cache = state.machine.cluster(cluster).cache
        resident = state.memory_ops_in(cluster)
        before = self.locality.miss_count(loop, resident, cache)
        after = self.locality.miss_count(loop, resident + [op], cache)
        miss_profit = before - after  # <= 0; closer to 0 is better
        return (
            miss_profit,
            self.register_affinity(state, op, cluster),
            -state.ops_per_cluster[cluster],
        )
