"""Steady-state detection and replay subsystem.

Two detectors behind one :class:`~repro.steady.base.SteadyStateDetector`
protocol — signature capture, period detection, exactness proof,
counters-delta replay:

* :class:`~repro.steady.entry.EntrySteadyDetector` memoizes repeated
  *loop entries* (one unit per ``NTIMES`` step);
* :class:`~repro.steady.iteration.IterationSteadyDetector` fast-forwards
  repeated *iterations* of the modulo pipeline inside a single entry —
  the detector that covers ``NTIMES=1`` streaming kernels.

Both are bit-identical to exact simulation by construction and by test
(``tests/test_simulator_steady_state.py``,
``tests/test_steady_iteration.py``).
"""

from .base import (
    STEADY_MODES,
    IterationSteadyState,
    Replay,
    SteadyState,
    SteadyStateDetector,
    SteadyStateReport,
    resolve_steady_mode,
    validate_steady_mode,
)
from .entry import EntrySteadyDetector
from .iteration import IterationSteadyDetector

__all__ = [
    "STEADY_MODES",
    "EntrySteadyDetector",
    "IterationSteadyDetector",
    "IterationSteadyState",
    "Replay",
    "SteadyState",
    "SteadyStateDetector",
    "SteadyStateReport",
    "resolve_steady_mode",
    "validate_steady_mode",
]
