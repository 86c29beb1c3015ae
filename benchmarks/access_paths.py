"""Cost per access of each ``access_batch`` path: this checkout against
a baseline source tree, in one process.

Each path is a fixed synthetic stream on the 2-cluster preset (the
Figure 6 machine: direct-mapped 4 KB caches, 10-entry MSHRs, one memory
bus).  A stream has an untimed prefix that puts the caches into the
path's starting state, then a timed suffix of accesses that all take
the path:

* ``hit``: loads of resident lines;
* ``clean miss``: loads that evict a clean line and fill from main
  memory;
* ``dirty miss``: stores that evict a modified line, which costs a
  writeback;
* ``remote supply``: stores that take a modified line from the other
  cluster's cache;
* ``mshr-full miss``: clean misses issued faster than the MSHR drains,
  so each waits for an entry;
* ``empty call``: ``access_batch`` over no access (the call overhead).

Each round times every path once on each tree, on a fresh memory
system, alternating which tree goes first, and checks that both trees
return the same ready times.  Prints a markdown table of medians in
microseconds per access (per call for ``empty call``); ``--json`` also
writes every round's timings.

usage (from the repository root)::

    python benchmarks/access_paths.py BASELINE_SRC [--rounds 7] [--json OUT]

``BASELINE_SRC`` is the ``src`` directory of another checkout, e.g. the
parent commit unpacked with ``git archive``; this checkout's own
``src`` works as a smoke test.
"""

from __future__ import annotations

import argparse
import gc
import json
import pathlib
import statistics
import sys
import time

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
LINE = 32
SETS = 128  # 4 KB direct-mapped, 32-byte lines
IMAGE = LINE * SETS
TIMED = 2048  # accesses in each timed suffix
EMPTY_CALLS = 20000
NO_HAZARD = 1 << 60


def load(src: pathlib.Path):
    """Import ``repro`` afresh from ``src``; returns the tree's
    ``(DistributedMemorySystem, two_cluster)``."""
    for name in list(sys.modules):
        if name == "repro" or name.startswith("repro."):
            del sys.modules[name]
    sys.path.insert(0, str(src))
    try:
        from repro.machine import two_cluster
        from repro.memory.hierarchy import DistributedMemorySystem
    finally:
        sys.path.remove(str(src))
    return DistributedMemorySystem, two_cluster


def _sweep(first_image: int, images: int) -> list:
    """Line addresses of ``images`` whole cache images, image by image."""
    return [
        (first_image + image) * IMAGE + index * LINE
        for image in range(images)
        for index in range(SETS)
    ]


def streams() -> dict:
    """``path -> (clusters, addresses, stores, nominals, timed start)``."""
    paths = {}
    warm = _sweep(0, 1)
    step = 20  # a miss completes 13 cycles after issue: no queueing

    def build(prefix, suffix, times=None):
        requests = prefix + suffix
        if times is None:
            times = [index * step for index in range(len(requests))]
        return (
            [cluster for cluster, _, _ in requests],
            [address for _, address, _ in requests],
            [store for _, _, store in requests],
            times,
            len(prefix),
        )

    paths["hit"] = build(
        [(0, a, False) for a in warm],
        [(0, warm[i % SETS], False) for i in range(TIMED)],
    )
    paths["clean miss"] = build(
        [(0, a, False) for a in warm],
        [(0, a, False) for a in _sweep(1, TIMED // SETS)],
    )
    paths["dirty miss"] = build(
        [(0, a, True) for a in warm],
        [(0, a, True) for a in _sweep(1, TIMED // SETS)],
    )
    paths["remote supply"] = build(
        [(0, a, True) for a in warm],
        [
            (1 - sweep % 2, a, True)
            for sweep in range(TIMED // SETS)
            for a in warm
        ],
    )
    # Eleven misses every 12 cycles, where the MSHR frees 10 entries
    # every 11 cycles (an entry is held for the bus cycle and the 10 of
    # main memory): from the 11th miss on each waits for an entry, and
    # the backlog grows by under 20 entries over the stream.
    prefix = [(0, a, False) for a in warm]
    suffix = [(0, a, False) for a in _sweep(1, TIMED // SETS)]
    times = [index * step for index in range(len(prefix))]
    origin = times[-1] + step
    times += [origin + index * 12 // 11 for index in range(len(suffix))]
    paths["mshr-full miss"] = build(prefix, suffix, times)
    return paths


def run_path(tree, path: tuple) -> tuple:
    """``(seconds per timed access, ready times)`` of one path."""
    system_cls, machine = tree
    clusters, addresses, stores, nominals, timed = path
    memory = system_cls(machine())
    n = len(addresses)
    slacks = [NO_HAZARD] * n
    ready = [None] * n
    memory.access_batch(
        clusters, addresses, stores, nominals, 0, slacks, ready, 0, timed
    )
    start = time.perf_counter()
    index = timed
    while index < n:
        index += memory.access_batch(
            clusters, addresses, stores, nominals, 0, slacks, ready,
            index, n,
        )
    elapsed = time.perf_counter() - start
    return elapsed / (n - timed), ready


def run_empty(tree) -> float:
    """Seconds per ``access_batch`` call over no access."""
    system_cls, machine = tree
    memory = system_cls(machine())
    args = ([0], [0], [False], [0], 0, [NO_HAZARD], [None], 0, 0)
    batch = memory.access_batch
    batch(*args)  # builds the batch tables
    start = time.perf_counter()
    for _ in range(EMPTY_CALLS):
        batch(*args)
    return (time.perf_counter() - start) / EMPTY_CALLS


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline_src", type=pathlib.Path)
    parser.add_argument("--rounds", type=int, default=7)
    parser.add_argument("--json", type=pathlib.Path)
    args = parser.parse_args(argv)

    trees = {"this": load(SRC), "baseline": load(args.baseline_src.resolve())}
    paths = streams()
    names = list(paths) + ["empty call"]
    # path -> tree -> [microseconds per round]
    times = {name: {tree: [] for tree in trees} for name in names}
    order = list(trees)
    gc.disable()
    try:
        for _round in range(args.rounds):
            for name, path in paths.items():
                ready = {}
                for tree in order:
                    seconds, ready[tree] = run_path(trees[tree], path)
                    times[name][tree].append(seconds * 1e6)
                if ready["this"] != ready["baseline"]:
                    raise SystemExit(f"{name}: the trees' ready times differ")
                gc.collect()
            for tree in order:
                times["empty call"][tree].append(run_empty(trees[tree]) * 1e6)
            order.reverse()
    finally:
        gc.enable()

    print("| path | baseline µs | this µs | this / baseline |")
    print("| --- | --- | --- | --- |")
    for name in names:
        baseline = statistics.median(times[name]["baseline"])
        this = statistics.median(times[name]["this"])
        print(
            f"| {name} | {baseline:.2f} | {this:.2f} "
            f"| {this / baseline:.2f} |"
        )
    if args.json is not None:
        args.json.write_text(
            json.dumps(
                {
                    "rounds": args.rounds,
                    "timed_accesses": TIMED,
                    "empty_calls": EMPTY_CALLS,
                    "first_tree_per_round": [
                        "this" if r % 2 == 0 else "baseline"
                        for r in range(args.rounds)
                    ],
                    "microseconds": times,
                },
                indent=1,
            )
        )


if __name__ == "__main__":
    main()
