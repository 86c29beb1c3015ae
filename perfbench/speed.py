"""Host speed, measured next to every timed operation.

The benchmark runs on shared machines whose speed drifts far more than
a change worth catching: on a 2-core x86 VM the same cold Figure-6 pass
took from 2.5 s to 4.6 s within ten minutes, and warm passes a few
seconds apart differed by half.  Every timed operation is therefore
bracketed by a fixed pure-Python reference loop, and its times are
reported at the reference speed: multiplied by ``REFERENCE_S /
reference``, where ``reference`` is the mean of the loops just before
and just after it.  The program never runs the loop, so a change to the
program moves the scaled times as it would move wall times on a steady
machine.
"""

from __future__ import annotations

import time
from typing import Callable, List

#: Iterations of the reference loop.
ROUNDS = 60_000
#: The reference loop's wall time on a quiet 2-core x86 VM (Python 3.11).
REFERENCE_S = 0.009


def reference_loop() -> float:
    """Wall seconds of a fixed mix of interpreter work: arithmetic,
    dict and list updates, a sort."""
    start = time.perf_counter()
    table = {}
    items = []
    total = 0
    for i in range(ROUNDS):
        total = (total + i * i) % 1_000_003
        table[i & 255] = total
        if i & 15 == 0:
            items.append((total, i))
    items.sort()
    return time.perf_counter() - start


class Scaler:
    """Reference-speed factors for a sequence of timed operations."""

    def __init__(self, loop: Callable[[], float] = reference_loop):
        self._loop = loop
        self._before = loop()
        #: Every reference loop's wall seconds, in order.
        self.references: List[float] = [self._before]

    def factor(self) -> float:
        """The factor for the operation that ended since the last call
        (or since construction): multiply its wall times by it.  Call it
        once per operation, before the next one starts."""
        after = self._loop()
        self.references.append(after)
        reference = (self._before + after) / 2
        self._before = after
        return REFERENCE_S / reference
