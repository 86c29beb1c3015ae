"""Memory one cold scenario pass keeps in its analysis-layer stores.

Runs one cold in-process pass (``n_jobs=1``, in-memory stores) of a
registered scenario under ``tracemalloc``, then clears the grid's
layers one at a time, collecting garbage around each, and reads each
layer's size as the drop in traced memory its clearing gives:

* the analyzer's probe memos: what ``IncrementalCME.__getstate__``
  leaves out of a pickle (its per-reference-set snapshots);
* the trace store (address and geometry traces);
* the warm-state store;
* the stage store (schedule bodies and simulation results).

It also reads the traced memory the whole pass keeps, the count of
objects the cyclic garbage collector tracks after it, the seconds that
collector spent during the pass (timed through ``gc.callbacks``) and
the process's peak resident set (``VmHWM``, which includes
``tracemalloc``'s own bookkeeping).  Prints one markdown table; exits
non-zero if the scenario is unknown.  It measures the tree it sits in;
to compare with another commit, copy the script into that checkout's
``benchmarks/``.

usage (from the repository root)::

    python benchmarks/analysis_memory.py [--scenario fig6-2cluster]
"""

from __future__ import annotations

import argparse
import gc
import os
import pathlib
import sys
import time
import tracemalloc

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.cme.trace import TraceStore  # noqa: E402
from repro.harness.scenarios import get_scenario, run_scenario  # noqa: E402


def vm_hwm_kib() -> int:
    """The process's peak resident set, in KiB."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def traced() -> int:
    """Traced bytes still allocated once garbage is collected."""
    gc.collect()
    return tracemalloc.get_traced_memory()[0]


def drop_analyzer_memos(grid) -> None:
    analyzer = grid.locality
    analyzer.__dict__.update(analyzer.__getstate__())


def drop_trace_store(grid) -> None:
    grid.locality.traces = TraceStore()


LAYERS = (
    ("analyzer memos", drop_analyzer_memos),
    ("trace store", drop_trace_store),
    ("warm store", lambda grid: grid.warm_store.clear()),
    ("stage store", lambda grid: grid.stage_store.clear()),
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--scenario", default="fig6-2cluster",
        help="registered scenario to run cold (default fig6-2cluster)",
    )
    args = parser.parse_args()
    # Older trees read this variable as a default cache directory: drop
    # it, so the cold pass runs memory-only in any checkout.
    os.environ.pop("REPRO_GRID_CACHE", None)
    try:
        scenario = get_scenario(args.scenario)
    except KeyError as error:
        parser.error(str(error))

    collecting = {"seconds": 0.0, "start": 0.0}

    def on_gc(phase, _info):
        if phase == "start":
            collecting["start"] = time.perf_counter()
        else:
            collecting["seconds"] += time.perf_counter() - collecting["start"]

    tracemalloc.start()
    before = traced()
    gc.callbacks.append(on_gc)
    try:
        grid = run_scenario(scenario, n_jobs=1).grid
    finally:
        gc.callbacks.remove(on_gc)
    kept = traced()
    tracked = len(gc.get_objects())
    rows = [("pass keeps (traced)", f"{(kept - before) / 1024:.0f} KiB")]
    for name, clear in LAYERS:
        clear(grid)
        after = traced()
        rows.append((name, f"{(kept - after) / 1024:.0f} KiB"))
        kept = after
    tracemalloc.stop()
    rows += [
        ("GC-tracked objects", f"{tracked:,}"),
        ("cyclic GC during the pass", f"{collecting['seconds']:.3f} s"),
        ("VmHWM", f"{vm_hwm_kib() / 1024:.1f} MiB"),
    ]
    print(f"| {args.scenario} | cold pass |")
    print("|---|---|")
    for name, value in rows:
        print(f"| {name} | {value} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
