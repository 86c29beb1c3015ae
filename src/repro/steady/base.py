"""The steady-state detection protocol and its telemetry records.

Lockstep simulation of a modulo-scheduled loop is highly repetitive at
two granularities: the ``NTIMES`` *entries* of the innermost loop repeat
each other once the memory system warms up, and — for single-entry
streaming kernels — the *iterations* of the modulo pipeline repeat
within one entry.  Both phenomena are exploited by detectors that share
one shape, captured here as the :class:`SteadyStateDetector` protocol:

1. **signature capture** — at each of its boundaries the detector
   snapshots the behaviour-relevant state in a normalized,
   hashable form (shift-normalized
   :meth:`~repro.memory.hierarchy.DistributedMemorySystem.state_signature`
   plus whatever pipeline-local state its unit carries);
2. **period detection** — a repeated snapshot means the simulation has
   entered a cycle;
3. **exactness proof** — before anything is skipped, the detector proves
   the remaining *input* (the affine address stream) is the detected
   cycle's input translated by the exact shift under which the
   signatures compared equal; detection is best-effort, the proof is
   not;
4. **counters-delta replay** — the skipped units' (stall,
   statistics-delta) records are applied arithmetically, so results are
   bit-identical to full simulation.

A detector that cannot prove step 3 simply never fires and the
simulation proceeds exactly as with detection off.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Optional, Tuple

__all__ = [
    "STEADY_MODES",
    "Replay",
    "SteadyState",
    "IterationSteadyState",
    "SteadyStateReport",
    "SteadyStateDetector",
    "resolve_steady_mode",
    "validate_steady_mode",
]

#: The detector selections the simulator understands.  ``auto`` picks
#: per kernel: entry-level memoization for multi-entry loops, the
#: iteration-level detector for single-entry (streaming) loops.
STEADY_MODES = ("off", "entry", "iteration", "auto")


def validate_steady_mode(mode: str) -> str:
    """Return ``mode`` or raise on an unknown selection."""
    if mode not in STEADY_MODES:
        raise KeyError(
            f"unknown steady mode {mode!r}; choose from {STEADY_MODES}"
        )
    return mode


def resolve_steady_mode(mode: Optional[str]) -> str:
    """Resolve the effective mode: ``None`` defaults to ``auto``.

    Results are bit-identical across all modes either way.
    """
    return validate_steady_mode(mode if mode is not None else "auto")


@dataclass(frozen=True)
class Replay:
    """What a confirmed steady state lets the driver skip.

    The detector has already applied the skipped units' statistics
    deltas to the memory system when it hands this back; the driver
    accounts the stall cycles and drops ``skipped`` units from its
    remaining work.
    """

    skipped: int  #: units (entries or iterations) not simulated
    stall_cycles: int  #: stall the skipped units would have accumulated
    record: object = None  #: detector-specific telemetry record


@dataclass(frozen=True)
class SteadyState:
    """How entry-level memoization split a run (``steady_report.entry``)."""

    detected_at: int  #: index of the first replayed entry
    period: int  #: length of the repeating entry cycle
    simulated_entries: int  #: entries executed instance by instance
    replayed_entries: int  #: entries replayed from the memo record


@dataclass(frozen=True)
class IterationSteadyState:
    """One iteration-level fast-forward inside a single loop entry."""

    entry: int  #: which loop entry the detection happened in
    detected_at: int  #: modulo-pipeline group index where the match confirmed
    period: int  #: repeating cycle length, in iterations (line-aligned)
    simulated_iterations: int  #: iterations executed instance by instance
    replayed_iterations: int  #: iterations replayed from the cycle deltas
    #: Frozen live (M/S) warm-up lines the stale-state proof stripped
    #: from the signature comparison (0 when the states matched whole).
    pruned_live_lines: int = 0


@dataclass(frozen=True)
class SteadyStateReport:
    """Combined steady-state telemetry of one simulation run."""

    mode: str  #: resolved detector selection (off/entry/iteration/auto)
    entry: Optional[SteadyState] = None
    iterations: Tuple[IterationSteadyState, ...] = ()

    @property
    def entries_replayed(self) -> int:
        return self.entry.replayed_entries if self.entry else 0

    @property
    def iterations_replayed(self) -> int:
        return sum(rec.replayed_iterations for rec in self.iterations)

    @property
    def iteration_period(self) -> Optional[int]:
        """Cycle length of the first iteration-level detection, if any."""
        return self.iterations[0].period if self.iterations else None

    @property
    def detected(self) -> bool:
        return self.entry is not None or bool(self.iterations)


class SteadyStateDetector(ABC):
    """One steady-state detection strategy at one kind of boundary.

    The simulator drives a detector through a stream of boundaries of
    its kind (loop entries for ``entry``; for ``iteration``, one
    modulo-pipeline group boundary per base period, the smallest
    iteration count whose address shift is whole cache lines).
    ``boundary`` is called *before* simulating the unit starting there
    and may answer with a :class:`Replay` once the four protocol steps
    (capture, detect, prove, replay) have all succeeded; ``commit`` is
    called *after* a unit was simulated in full, so the detector can
    record its (stall, counters-delta) record.

    ``time`` is the boundary kind's own monotonic time coordinate — each
    detector defines it and anchors its signatures with it, and a driver
    must supply the coordinate its detector documents: the entry
    detector takes the absolute clock at the entry start; the iteration
    detector (whose protocol objects are handed out per entry by the
    :class:`~repro.steady.iteration.IterationSteadyDetector` factory,
    since its detection state is per-entry) takes the running stall
    offset, from which it reconstructs the boundary's absolute time as
    ``entry base + group * II + offset``.
    """

    @abstractmethod
    def boundary(self, index: int, time: int) -> Optional[Replay]:
        """Observe the boundary before unit ``index`` at ``time``.

        Returns a :class:`Replay` when the remaining units provably
        repeat a recorded cycle, ``None`` to keep simulating.
        """

    def commit(self, index: int, stall: int) -> None:
        """Record that unit ``index`` was simulated with ``stall`` cycles."""
