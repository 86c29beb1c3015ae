"""Content-addressed reuse of post-warm-up memory state.

The steady-state detectors (:mod:`repro.steady`) already skip the
*periodic* part of a simulation, but every cell still pays for the
miss-heavy warm-up prefix the detectors must observe before they can
fire.  That prefix is a pure function of the schedule content and the
run geometry — and fig6-style sweeps run many cells whose schedules
land byte-identical (neighbouring thresholds that move no load across
the miss-ratio boundary, schedulers that agree on a kernel).  This
module content-addresses the detector-confirmed warm state so each
unique (schedule, geometry, steady mode) pays for warm-up once:

* the **key** is ``Schedule.fingerprint()`` (kernel + machine + II +
  placements + communications; scheduler name and threshold are
  excluded so equal schedules share) crossed with the steady mode and
  the ``n_iterations``/``n_times`` overrides.  The simulate engine is
  *not* part of the key: the scalar and vectorized engines are proven
  bit-identical by ``tests/test_simulator_vectorized.py``, so warm
  state recorded by either serves both.
* the **record** holds a deep :meth:`DistributedMemorySystem.snapshot`
  of the memory state at the detector's confirmation boundary plus the
  detector evidence (per-entry counter-delta records, or the
  iteration-level detections) needed to finish the run arithmetically.
  A consumer re-proves replay soundness against its own address tables
  before trusting a record — a hit changes *where* the proof inputs
  come from, never whether the proof runs.
* the store is a sibling of :class:`repro.cme.trace.TraceStore`: an
  in-memory dict fronted by an optional content-addressed disk layer
  under the experiment grid's cache directory, shipped to worker
  processes by :func:`repro.harness.grid._init_worker` so a sweep's
  fan-out starts warm.  Corrupt, truncated or version-mismatched disk
  entries are treated as misses (unlinked and recomputed), never as
  errors, and an unwritable disk layer only costs the write.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import threading
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Tuple

__all__ = ["WARM_STATE_VERSION", "WarmRecord", "WarmStateStore"]

#: Bump when the record layout or snapshot format changes: older disk
#: entries are then treated as misses and rewritten.
WARM_STATE_VERSION = 1


@dataclass(frozen=True)
class WarmRecord:
    """One reusable simulation prefix, in one of two shapes.

    *Entry shape* (``match_start is not None``): the entry-level
    detector confirmed at entry ``entries_simulated`` that the cycle
    ``match_start..entries_simulated-1`` repeats.  ``snapshot`` is the
    memory state at that boundary (before any replay deltas were
    applied) and ``records`` the per-entry ``(stall, counters-delta)``
    evidence, so a consumer restores, re-proves soundness, and replays.

    *Iteration shape* (``match_start is None``): a single-entry run
    whose iteration-level detector fired.  ``snapshot`` is the final
    memory state (after the fast-forward translation), ``entry_stall``
    the entry's total stall, ``iterations`` the telemetry records.
    """

    version: int
    entries_simulated: int
    records: Tuple[Tuple[int, Dict[str, int]], ...]
    match_start: Optional[int]
    snapshot: dict
    entry_stall: int = 0
    iterations: tuple = ()


class WarmStateStore:
    """In-memory + on-disk content-addressed map of warm records."""

    def __init__(self, cache_dir: Optional[os.PathLike] = None):
        self._memory: Dict[str, WarmRecord] = {}
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.hits = 0
        self.misses = 0
        self.stores = 0
        # The experiment service shares one store across job threads;
        # entry-map and counter mutation happens under this lock.
        self._lock = threading.RLock()

    def __getstate__(self):
        state = self.__dict__.copy()
        del state["_lock"]  # locks don't pickle; workers get their own
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    @staticmethod
    def key(
        schedule_fingerprint: str,
        steady_mode: str,
        n_iterations: int,
        n_times: int,
    ) -> str:
        """Content address of one warm-up prefix."""
        return "|".join(
            [
                f"w{WARM_STATE_VERSION}",
                schedule_fingerprint,
                steady_mode,
                repr(n_iterations),
                repr(n_times),
            ]
        )

    def _disk_path(self, key: str) -> Optional[Path]:
        if self.cache_dir is None:
            return None
        digest = hashlib.sha256(key.encode("utf-8")).hexdigest()[:32]
        return self.cache_dir / digest[:2] / f"{digest}.pkl"

    # ------------------------------------------------------------------
    def lookup(self, key: str) -> Optional[WarmRecord]:
        """Return the record for ``key`` or ``None`` (counting a miss)."""
        with self._lock:
            record = self._memory.get(key)
            if record is not None:
                self.hits += 1
                return record
            record = self._disk_load(key)
            if record is not None:
                self._memory[key] = record
                self.hits += 1
                return record
            self.misses += 1
            return None

    def store(self, key: str, record: WarmRecord) -> None:
        with self._lock:
            self._memory[key] = record
            self.stores += 1
        self._disk_store(key, record)

    # ------------------------------------------------------------------
    def _disk_load(self, key: str) -> Optional[WarmRecord]:
        path = self._disk_path(key)
        if path is None or not path.exists():
            return None
        try:
            with path.open("rb") as handle:
                record = pickle.load(handle)
            if (
                not isinstance(record, WarmRecord)
                or record.version != WARM_STATE_VERSION
            ):
                raise ValueError("stale or foreign warm-state entry")
            return record
        except Exception:
            # Corrupt / truncated / version-mismatched entry: a cache
            # must never turn disk rot into a failed sweep.  Drop the
            # file and recompute.
            try:
                path.unlink()
            except OSError:
                pass
            return None

    def _disk_store(self, key: str, record: WarmRecord) -> None:
        path = self._disk_path(key)
        if path is None:
            return
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

    def clear_memory(self) -> None:
        """Drop the in-memory layer (the disk layer is untouched)."""
        with self._lock:
            self._memory.clear()

    def clear_disk(self) -> None:
        """Remove every on-disk entry (the in-memory map is untouched)."""
        if self.cache_dir is None or not self.cache_dir.exists():
            return
        for path in self.cache_dir.glob("*/*.pkl"):
            try:
                path.unlink()
            except OSError:
                pass
