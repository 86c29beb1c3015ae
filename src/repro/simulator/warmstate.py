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
  the ``n_iterations``/``n_times`` overrides — the same address as the
  stage store's simulate key, which an experiment grid consults first,
  so inside a grid the warm store only hits after a stage-store disk
  entry was lost.  The key names no engine: the scalar reference and
  the vectorized engine are proven bit-identical by the ``vectorized``
  column of ``tests/test_differential.py``, so warm state recorded by
  either serves both (its ``warm`` column).
* the **record** holds a deep :meth:`DistributedMemorySystem.snapshot`
  of the memory state at the detector's confirmation boundary plus the
  detector evidence (per-entry counter-delta records, or the
  iteration-level detections) needed to finish the run arithmetically.
  A consumer re-proves replay soundness against its own address tables
  before trusting a record — a hit changes *where* the proof inputs
  come from, never whether the proof runs.
* the store is a :class:`~repro.store.ContentStore` of records,
  on disk under the experiment grid's ``<cache_dir>/warm/``, shipped to
  worker processes by :func:`repro.harness.grid._init_worker` so a
  sweep's fan-out starts warm.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional, Tuple

from ..store import ContentStore

__all__ = ["WARM_STATE_VERSION", "WarmRecord", "WarmStateStore"]

#: Bump when the record layout or snapshot format changes: the keys
#: change, so older disk entries are never read again.
WARM_STATE_VERSION = 2


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

    entries_simulated: int
    records: Tuple[Tuple[int, Tuple[int, ...]], ...]
    match_start: Optional[int]
    snapshot: dict
    entry_stall: int = 0
    iterations: tuple = ()


class WarmStateStore(ContentStore):
    """Content-addressed map of warm records."""

    def __init__(self, cache_dir: Optional[os.PathLike] = None):
        super().__init__(WarmRecord, cache_dir)

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
