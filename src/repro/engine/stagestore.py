"""Per-stage content-addressed result store.

The work inside an experiment cell is shared far more widely than the
cell itself:

* the **analyze** product (a loop's CME address trace) depends only on
  the loop content and the analyzer configuration — every machine,
  scheduler, threshold and scenario probing the same kernel re-walks the
  same iteration space;
* the **schedule** product depends on kernel × machine × scheduler ×
  threshold × analyzer, but *not* on the steady mode, simulate engine or
  iteration overrides — the four groups of ``fig6-steady-ablation``
  compute the same schedules four times;
* the **simulate** product depends only on the schedule *content*
  (``Schedule.fingerprint()`` — scheduler name and threshold
  deliberately excluded, the same key family the warm-state store uses)
  × simulate engine × steady mode × iteration overrides — a fig6 column
  sweeps thresholds that frequently collapse to byte-identical
  schedules, and every duplicate re-simulates a result some other cell
  already measured.

:class:`StageStore` content-addresses all three products, following the
established :class:`~repro.cme.trace.TraceStore` /
:class:`~repro.simulator.warmstate.WarmStateStore` shape: an in-memory
map per stage, fronted by an optional disk layer under
``<cache_dir>/stages/`` where corrupt, truncated or foreign pickles are
unlinked and treated as misses, never as errors (and an unwritable disk
layer only costs the write).  The
:class:`~repro.engine.plan.ExecutionPlanner` is its only client: it
consumes the key families *up front* — one task per unique
analyze/schedule/simulate key across a whole grid call — so hits are
planned away before anything runs, and it stores every executed task's
product (pool workers only compute; the parent does all store I/O).

This module is also the canonical home of the grid's content
fingerprints (:func:`kernel_fingerprint`, :func:`machine_key`).
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import threading
import uuid
from pathlib import Path
from typing import Dict, Optional

from ..cme.trace import AddressTrace
from ..ir.builder import Kernel
from ..machine.config import MachineConfig
from ..scheduler.result import Schedule
from ..simulator.stats import SimulationResult

__all__ = [
    "STAGE_STORE_VERSION",
    "STAGE_STORE_STAGES",
    "StageStore",
    "kernel_fingerprint",
    "machine_key",
]

#: Bump when a key schema or value layout changes: older disk entries
#: are then treated as misses and rewritten.
STAGE_STORE_VERSION = 1

#: The stages with a content-addressed result store, in pipeline order.
STAGE_STORE_STAGES = ("analyze", "schedule", "simulate")

#: What a healthy disk entry's value must be, per stage — anything else
#: is a foreign object and treated as rot.
_VALUE_TYPES = {
    "analyze": AddressTrace,
    "schedule": Schedule,
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
    """Canonical JSON encoding of a machine (hashable cache-key part)."""
    return json.dumps(
        machine.to_dict(), sort_keys=True, separators=(",", ":")
    )


# ----------------------------------------------------------------------
# The store
# ----------------------------------------------------------------------
class StageStore:
    """In-memory + on-disk content-addressed maps of stage results.

    One instance holds the three per-stage layers.  All keys are pure
    content addresses (fingerprints over what the stage *reads*), so a
    store is safe to share between grids and scenarios and to persist
    across runs.
    """

    def __init__(self, cache_dir: Optional[os.PathLike] = None):
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self._memory: Dict[str, Dict[str, object]] = {
            stage: {} for stage in STAGE_STORE_STAGES
        }
        self._counters: Dict[str, Dict[str, int]] = {
            stage: {"hits": 0, "misses": 0, "stores": 0}
            for stage in STAGE_STORE_STAGES
        }
        # One store may serve several threads at once (the experiment
        # service runs jobs off the event loop while clients read its
        # telemetry), so every mutation of the entry maps and counters
        # happens under this lock.
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    # Keys
    # ------------------------------------------------------------------
    @staticmethod
    def analyze_key(loop_fp: str, locality_fp: str) -> str:
        """Address of one loop's analyze product under one analyzer
        configuration (the locality fingerprint encodes the sampling
        window, so equal keys imply equal traces)."""
        return "|".join(
            [f"s{STAGE_STORE_VERSION}", "analyze", loop_fp, locality_fp]
        )

    @staticmethod
    def schedule_key(
        kernel_name: str,
        kernel_fp: str,
        machine: str,
        scheduler: str,
        threshold: float,
        locality_fp: str,
    ) -> str:
        """Address of one scheduling run's product.

        Deliberately *excludes* the steady mode, simulate engine and
        iteration overrides a cell spec carries: the schedule does not
        depend on how it will be simulated, so cells differing only in
        simulation strategy share one entry.
        """
        return "|".join(
            [
                f"s{STAGE_STORE_VERSION}",
                "schedule",
                kernel_name,
                kernel_fp,
                machine,
                scheduler,
                repr(threshold),
                locality_fp,
            ]
        )

    @staticmethod
    def simulate_key(
        schedule_fp: str,
        sim: str,
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
                sim,
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
        with self._lock:
            value = self._memory[stage].get(key)
            if value is not None:
                self._counters[stage]["hits"] += 1
                return value
            value = self._disk_load(stage, key)
            if value is not None:
                self._memory[stage][key] = value
                self._counters[stage]["hits"] += 1
                return value
            self._counters[stage]["misses"] += 1
            return None

    def store(self, stage: str, key: str, value: object) -> None:
        """Publish a freshly computed stage result."""
        with self._lock:
            self._memory[stage][key] = value
            self._counters[stage]["stores"] += 1
        self._disk_store(stage, key, value)

    def publish(self, stage: str, key: str, value: object) -> bool:
        """Store ``value`` only if the key is absent (idempotent put).

        Used for results that were computed outside the store's view
        (e.g. traces primed directly on the analyzer) — counted as a
        store the first time, a no-op afterwards.
        """
        with self._lock:
            if key in self._memory[stage]:
                return False
            self.store(stage, key, value)
            return True

    def __len__(self) -> int:
        with self._lock:
            return sum(len(entries) for entries in self._memory.values())

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def counts(self, stage: str) -> Dict[str, int]:
        """Hit/miss/store counters of one stage (a copy)."""
        with self._lock:
            return dict(self._counters[stage])

    def telemetry(self) -> Dict[str, Dict[str, int]]:
        """Per-stage counters plus entry counts, for reports/benchmarks."""
        with self._lock:
            return {
                stage: {
                    **self._counters[stage],
                    "entries": len(self._memory[stage]),
                }
                for stage in STAGE_STORE_STAGES
            }

    # ------------------------------------------------------------------
    # Disk layer
    # ------------------------------------------------------------------
    def _disk_path(self, stage: str, key: str) -> Optional[Path]:
        if self.cache_dir is None:
            return None
        digest = hashlib.sha256(key.encode("utf-8")).hexdigest()[:32]
        return self.cache_dir / stage / digest[:2] / f"{digest}.pkl"

    def _disk_load(self, stage: str, key: str) -> Optional[object]:
        path = self._disk_path(stage, key)
        if path is None or not path.exists():
            return None
        try:
            with path.open("rb") as handle:
                record = pickle.load(handle)
            if (
                not isinstance(record, dict)
                or record.get("version") != STAGE_STORE_VERSION
                or record.get("stage") != stage
                or record.get("key") != key
                or not isinstance(record.get("value"), _VALUE_TYPES[stage])
            ):
                raise ValueError("stale or foreign stage-store entry")
            return record["value"]
        except Exception:
            # Corrupt / truncated / foreign / colliding entry: a cache
            # must never turn disk rot into a failed sweep.  Drop the
            # file and recompute.
            try:
                path.unlink()
            except OSError:
                pass
            return None

    def _disk_store(self, stage: str, key: str, value: object) -> None:
        path = self._disk_path(stage, key)
        if path is None:
            return
        record = {
            "version": STAGE_STORE_VERSION,
            "stage": stage,
            "key": key,
            "value": value,
        }
        tmp = path.with_suffix(f".tmp.{os.getpid()}.{uuid.uuid4().hex[:8]}")
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            with tmp.open("wb") as handle:
                pickle.dump(record, handle, protocol=pickle.HIGHEST_PROTOCOL)
            tmp.replace(path)  # atomic on POSIX: readers never see partials
        except OSError:
            try:
                tmp.unlink()
            except OSError:
                pass

    def clear(self) -> None:
        """Drop every entry: all in-memory layers and the disk layer."""
        with self._lock:
            for stage in STAGE_STORE_STAGES:
                self._memory[stage].clear()
        self.clear_disk()

    def clear_disk(self) -> None:
        """Remove every on-disk entry (the in-memory maps are untouched)."""
        if self.cache_dir is None or not self.cache_dir.exists():
            return
        for path in self.cache_dir.glob("*/*/*.pkl"):
            try:
                path.unlink()
            except OSError:
                pass
