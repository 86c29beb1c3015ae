"""Per-stage content-addressed result store.

The work inside an experiment cell is shared far more widely than the
cell itself:

* the **schedule** product depends on kernel × scheduler × threshold ×
  analyzer × the machine's *scheduling view*
  (:attr:`~repro.machine.config.MachineConfig.scheduling_view`: the
  machine with its memory-bus count dropped, which no scheduler reads),
  but *not* on the steady mode or iteration overrides — the four groups
  of ``fig6-steady-ablation`` share their schedules, and so do Figure
  6's NMB=1 and NMB=2 cells;
* the **simulate** product depends only on the schedule *content*
  (``Schedule.fingerprint()`` — scheduler name and threshold
  deliberately excluded, the same key family the warm-state store uses)
  × steady mode × iteration overrides — a fig6 column sweeps thresholds
  that frequently collapse to byte-identical schedules, and every
  duplicate re-simulates a result some other cell already measured.

:class:`StageStore` content-addresses both products, one
:class:`~repro.store.ContentStore` per stage (memory, and disk under
``<cache_dir>/stages/<stage>/``).  The
:class:`~repro.engine.plan.ExecutionPlanner` is its only client: it
consumes the key families *up front* — one task per unique
schedule/simulate key across a whole grid call — so hits are planned
away before anything runs, and it stores every executed task's product
(pool workers only compute; the parent does all store I/O).  A loop's
address trace is no stage-store product: it lives in the analyzer's
:class:`~repro.cme.trace.TraceStore`, where the schedulers read it.

A schedule entry is the schedule's
:class:`~repro.scheduler.result.ScheduleBody`: the key pins the kernel
by content fingerprint and the scheduling view by its canonical
encoding, so the planner attaches its own kernel and the one shared
:func:`machine_from_key` config of each cell machine that shares the
view, instead of unpickling copies of both.

This module is also the canonical home of the grid's content
fingerprints (:func:`kernel_fingerprint`, :func:`machine_key`) and of
:func:`machine_from_key`.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
from pathlib import Path
from typing import Dict, Optional

from ..ir.builder import Kernel
from ..machine.config import MachineConfig
from ..scheduler.result import ScheduleBody
from ..simulator.stats import SimulationResult
from ..store import ContentStore

__all__ = [
    "STAGE_STORE_VERSION",
    "STAGE_STORE_STAGES",
    "StageStore",
    "kernel_fingerprint",
    "machine_from_key",
    "machine_key",
]

#: Bump when a key schema or value layout changes: the keys change, so
#: older disk entries are never read again.
STAGE_STORE_VERSION = 5

#: The stages with a content-addressed result store, in pipeline order.
STAGE_STORE_STAGES = ("schedule", "simulate")

#: What each stage's values must be; a disk entry holding anything else
#: is rot.
_VALUE_TYPES = {
    "schedule": ScheduleBody,
    "simulate": SimulationResult,
}


# ----------------------------------------------------------------------
# Content fingerprints
# ----------------------------------------------------------------------
def kernel_fingerprint(kernel: Kernel) -> str:
    """Content hash of a kernel's loop structure and dependence graph.

    Everything the schedulers and the CME analyzers read is covered: loop
    dims, operations (name/class/operands/reference), the memory-reference
    table and the DDG edge multiset.  Two kernels with equal fingerprints
    produce identical cells on identical machines.

    Computed once per kernel: the value is memoized on the dependence
    graph, whose :meth:`~repro.ir.ddg.DependenceGraph.add_edge` drops it
    together with the graph's edge caches.  Loops are de-facto
    immutable, as for :func:`~repro.cme.trace.loop_fingerprint`.
    """
    ddg = kernel.ddg
    cached = ddg.__dict__.get("_fingerprint")
    if cached is not None and cached[0] is kernel.loop:
        return cached[1]
    edges = sorted((e.src, e.dst, e.kind, e.distance) for e in ddg.edges())
    digest = hashlib.sha256()
    digest.update(repr(kernel.loop).encode())
    digest.update(repr(edges).encode())
    fingerprint = digest.hexdigest()[:16]
    ddg._fingerprint = (kernel.loop, fingerprint)
    return fingerprint


def machine_key(machine: MachineConfig) -> str:
    """Canonical JSON encoding of a machine (hashable cache-key part),
    cached on the machine."""
    return machine.canonical_json


# Unbounded: every key is also part of the stage-store keys naming its
# machine, which the store keeps for the life of the process anyway.
@functools.lru_cache(maxsize=None)
def machine_from_key(key: str) -> MachineConfig:
    """The machine a :func:`machine_key` string describes: one shared
    frozen config per key, so every schedule the planner attaches to
    that machine holds the same object."""
    return MachineConfig.from_dict(json.loads(key))


# ----------------------------------------------------------------------
# The store
# ----------------------------------------------------------------------
class StageStore:
    """Content-addressed stage products: one
    :class:`~repro.store.ContentStore` per stage, each on disk under
    ``<cache_dir>/<stage>/`` when a directory is given.

    All keys are pure content addresses (fingerprints over what the
    stage *reads*), so a store is safe to share between grids and
    scenarios and to persist across runs.
    """

    def __init__(self, cache_dir: Optional[os.PathLike] = None):
        self._stages: Dict[str, ContentStore] = {
            stage: ContentStore(
                _VALUE_TYPES[stage],
                None if cache_dir is None else Path(cache_dir) / stage,
            )
            for stage in STAGE_STORE_STAGES
        }

    # ------------------------------------------------------------------
    # Keys
    # ------------------------------------------------------------------
    @staticmethod
    def schedule_key(
        kernel_name: str,
        kernel_fp: str,
        view: str,
        scheduler: str,
        threshold: float,
        locality_fp: str,
    ) -> str:
        """Address of one scheduling problem's product.

        ``view`` is the :func:`machine_key` of the cell machine's
        ``scheduling_view``, not of the machine itself: cells whose
        machines differ only in the memory-bus count share one entry.
        The key also *excludes* the steady mode and iteration overrides
        a cell spec carries: the schedule does not depend on how it will
        be simulated, so cells differing only in simulation strategy
        share one entry too.
        """
        return "|".join(
            [
                f"s{STAGE_STORE_VERSION}",
                "schedule",
                kernel_name,
                kernel_fp,
                view,
                scheduler,
                repr(threshold),
                locality_fp,
            ]
        )

    @staticmethod
    def simulate_key(
        schedule_fp: str,
        steady: str,
        n_iterations: Optional[int],
        n_times: Optional[int],
    ) -> str:
        """Address of one simulation's product.

        ``schedule_fp`` is :meth:`Schedule.fingerprint` — the same key
        family the warm-state store uses: scheduler name and threshold
        are excluded, so cells whose schedules land byte-identical
        (neighbouring thresholds, agreeing schedulers) share the result.
        """
        return "|".join(
            [
                f"s{STAGE_STORE_VERSION}",
                "simulate",
                schedule_fp,
                steady,
                repr(n_iterations),
                repr(n_times),
            ]
        )

    # ------------------------------------------------------------------
    # Core protocol
    # ------------------------------------------------------------------
    def lookup(self, stage: str, key: str) -> Optional[object]:
        """Return the stored value for ``key`` or ``None`` (a miss)."""
        return self._stages[stage].lookup(key)

    def store(self, stage: str, key: str, value: object) -> None:
        """Publish a freshly computed stage result."""
        self._stages[stage].store(key, value)

    def __len__(self) -> int:
        return sum(len(entries) for entries in self._stages.values())

    def clear(self) -> None:
        """Drop every entry of every stage, in memory and on disk."""
        for entries in self._stages.values():
            entries.clear()

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def counts(self, stage: str) -> Dict[str, int]:
        """Hit/miss/store counters of one stage (a copy)."""
        return self._stages[stage].counts()

    def telemetry(self) -> Dict[str, Dict[str, int]]:
        """Per-stage counters plus entry counts, for reports/benchmarks."""
        return {
            stage: {**entries.counts(), "entries": len(entries)}
            for stage, entries in self._stages.items()
        }
