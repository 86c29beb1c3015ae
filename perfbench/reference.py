"""The checks every measured operation must pass, and how timings are
summarized.

* :func:`parse_figure_text` reads a rendered figure such as the recorded
  ``benchmarks/results/fig6_2cluster.txt``; the benchmark parses the
  recording itself.  :func:`bar_problems` holds produced bars to it
  within the rendering's 3-decimal rounding.
* :func:`cell_digest` fingerprints a figure's per-cell records (kernel,
  machine, scheduler, threshold, total and stall cycles, memory
  counters); it must repeat exactly across every pass of a run.
* :class:`Tally` counts operations attempted and failed: an operation
  fails when it raises, times out or disagrees with its reference.
* Medians come from :func:`statistics.median`, tail latency from the
  nearest-rank :func:`percentile`.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

#: The recorded Figure-6 rendering, relative to the checkout root.
GOLDEN_FIG6 = "benchmarks/results/fig6_2cluster.txt"

#: The rendering rounds bars to 3 decimals; the golden-figure tests
#: allow the same.
BAR_TOLERANCE = 1.5e-3

#: Record fields a cell's digest covers, besides its memory counters.
DIGEST_FIELDS = (
    "group", "kernel", "machine", "scheduler", "threshold",
    "total_cycles", "stall_cycles",
)

_BAR_RE = re.compile(
    r"^\s+thr=(?P<thr>[\d.]+) \|.*\| "
    r"(?P<total>[\d.]+) \((?P<compute>[\d.]+)\+(?P<stall>[\d.]+)\)$"
)

#: group -> threshold -> (normalized compute, normalized stall)
Golden = Dict[str, Dict[float, Tuple[float, float]]]


def parse_figure_text(text: str) -> Golden:
    """Read a rendered figure back into its bars: group headers are the
    unindented lines other than the title and the ``(full width ...)``
    note, bars the indented ``thr=`` lines under them."""
    groups: Golden = {}
    current: Optional[str] = None
    for line in text.splitlines():
        match = _BAR_RE.match(line)
        if match:
            if current is None:
                raise ValueError(f"bar before any group header: {line!r}")
            groups[current][float(match["thr"])] = (
                float(match["compute"]),
                float(match["stall"]),
            )
            continue
        stripped = line.strip()
        if (
            stripped
            and not line[0].isspace()
            and not stripped.startswith(("Figure", "(full width"))
        ):
            current = stripped
            groups[current] = {}
    return groups


def bar_problems(
    bars: Iterable[Mapping[str, object]],
    golden: Golden,
    groups: Optional[Iterable[str]] = None,
) -> List[str]:
    """Where figure-payload bars disagree with a recording: every
    recorded bar of ``groups`` (default: all) must be produced within
    :data:`BAR_TOLERANCE`."""
    produced = {
        (str(bar["group"]), round(float(bar["threshold"]), 6)): (
            float(bar["norm_compute"]),
            float(bar["norm_stall"]),
        )
        for bar in bars
    }
    problems = []
    for group in golden if groups is None else groups:
        if group not in golden:
            problems.append(f"group {group!r} is not in the recording")
            continue
        for threshold, (compute, stall) in golden[group].items():
            got = produced.get((group, round(threshold, 6)))
            if got is None:
                problems.append(f"{group} thr={threshold:.2f}: bar missing")
            elif (
                abs(got[0] - compute) > BAR_TOLERANCE
                or abs(got[1] - stall) > BAR_TOLERANCE
            ):
                problems.append(
                    f"{group} thr={threshold:.2f}: {got[0]:.4f}+{got[1]:.4f}, "
                    f"recorded {compute:.3f}+{stall:.3f}"
                )
    return problems


def cell_digest(records: Sequence[Mapping[str, object]]) -> str:
    """Fingerprint of per-cell results, in record order."""
    digest = hashlib.sha256()
    for record in records:
        row = [record[field] for field in DIGEST_FIELDS]
        memory = sorted(
            (key, value) for key, value in record.items() if key.startswith("mem_")
        )
        digest.update(json.dumps([row, memory]).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def payload_digest(payload: object) -> str:
    """Fingerprint of a JSON-serializable value, key order ignored."""
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least ``q``
    percent of the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 100:
        raise ValueError(f"percentile {q} is outside (0, 100]")
    ordered = sorted(values)
    return ordered[math.ceil(q * len(ordered) / 100) - 1]


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie beyond their nearest-rank ``q``-th
    percentile."""
    return n - math.ceil(q * n / 100)


class Tally:
    """Operations attempted and failed, with each failure's reason."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def record(self, label: str, problems: Sequence[str]) -> bool:
        """Count one operation; ``True`` when it passed its checks."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {problem}" for problem in problems)
            return False
        return True
