"""Memory a finished service job keeps, per scenario of the
``service-warm`` mix, on an in-process ``JobManager``.

The manager keeps no job records and its stores in memory, as the
benchmark's ``repro serve --backend memory`` does.  One cold round of
the mix primes its stores; then the mix runs ``--rounds`` store-served
rounds twice, each round in mix order:

* untraced, reading the process's resident set (``/proc/self/statm``)
  before and after each job, for the RSS growth per job;
* under ``tracemalloc``, collecting garbage before and after each job,
  for the traced memory a finished job leaves behind (``retained``).
  One traced round runs first and is not counted: a scenario's first
  traced job also counts each long-lived object it replaces, since
  ``tracemalloc`` never saw the untraced predecessor it frees
  (fig6-2cluster read about 400 KiB for that job, 262 KiB after).

Prints a markdown table, one row per scenario: jobs measured, retained
KiB per job, the result payload's JSON KiB, retained ÷ JSON, events per
job and RSS growth in KiB per job; the ``mix`` row sums them over every
job.  Exits non-zero if any job does not end ``done``.

usage (from the repository root)::

    python benchmarks/service_memory.py [--rounds 10]
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pathlib
import sys
import tracemalloc

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from repro.harness.scenarios import get_scenario  # noqa: E402
from repro.service import JobManager  # noqa: E402
from workloads import MIX  # noqa: E402  (perfbench's service-warm mix)

PAGE = os.sysconf("SC_PAGE_SIZE")


def rss() -> int:
    """The process's resident set, in bytes."""
    with open("/proc/self/statm") as statm:
        return int(statm.read().split()[1]) * PAGE


def run(manager: JobManager, name: str):
    """One job to its end; exits if it did not finish ``done``."""
    job = manager.submit(get_scenario(name))
    job.wait()
    if job.state != "done":
        sys.exit(f"{name} job ended {job.state}: {job.error}")
    return job


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--rounds", type=int, default=10,
        help="store-served rounds of the mix per phase (default 10)",
    )
    args = parser.parse_args()
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")

    manager = JobManager()
    try:
        for name in MIX:
            run(manager, name)
        rows = {
            name: {"jobs": 0, "retained": 0, "json": 0, "events": 0, "rss": 0}
            for name in MIX
        }
        gc.collect()
        for _ in range(args.rounds):
            for name in MIX:
                before = rss()
                run(manager, name)
                rows[name]["rss"] += rss() - before
        tracemalloc.start()
        for name in MIX:
            run(manager, name)
        for _ in range(args.rounds):
            for name in MIX:
                gc.collect()
                before = tracemalloc.get_traced_memory()[0]
                job = run(manager, name)
                gc.collect()
                row = rows[name]
                row["retained"] += tracemalloc.get_traced_memory()[0] - before
                row["json"] += len(json.dumps(job.result).encode())
                row["events"] += len(job.events)
                row["jobs"] += 1
        tracemalloc.stop()
    finally:
        manager.shutdown()

    rows["mix"] = {
        key: sum(row[key] for row in rows.values())
        for key in ("jobs", "retained", "json", "events", "rss")
    }
    print(
        "| scenario | jobs | retained KiB/job | result JSON KiB | "
        "retained ÷ JSON | events/job | RSS KiB/job |"
    )
    print("|---|---|---|---|---|---|---|")
    for name, row in rows.items():
        jobs = row["jobs"]
        print(
            f"| {name} | {jobs} | {row['retained'] / jobs / 1024:.0f} | "
            f"{row['json'] / jobs / 1024:.0f} | "
            f"{row['retained'] / row['json']:.1f}x | "
            f"{row['events'] / jobs:.0f} | {row['rss'] / jobs / 1024:.0f} |"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
