"""Steadiness check: run the benchmark over sets of seeds and compare.

Run it from the checkout root::

    python3 perfbench/steadiness.py --sets 1-10 11-20 --out perfbench/baseline.json

For every workload and every set of seeds, each seed is one untraced run
of ``perfbench/run.py``.  Per end-to-end metric it reports the median of
the set and the spread: the distance between the first and third
quartile (``statistics.quantiles(values, n=4)``) as a share of the
median.  A metric is steady when each set's spread (``setup_s``
excepted) stays within its bound and no later set's median is worse than
the first set's by more than the bound.  The runs and the verdict are
written to ``--out``; the exit status is 0 only when every metric is
steady and every run passed its checks.  ``--reuse REPORT`` takes the
runs of an earlier report instead of repeating them, so bounds can be
judged again on the same runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2])["perfbench_detail"]
    return {
        "seed": seed, "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"], "wall_s": detail["wall_s"],
        "environment": detail["environment"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sets", nargs="+", required=True, help="seed ranges such as 1-10")
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--reuse", type=Path)
    args = parser.parse_args(argv)
    done = {}
    if args.reuse is not None:
        earlier = json.loads(args.reuse.read_text())
        if earlier["seconds"] != args.seconds:
            parser.error(f"{args.reuse} ran {earlier['seconds']} s runs, not {args.seconds}")
        for workload, entry in earlier["workloads"].items():
            for old_set in entry["sets"]:
                done.update(((workload, r["seed"]), r) for r in old_set["runs"])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"seconds": args.seconds, "bounds": bounds, "workloads": {}}
    steady = True
    for workload in args.workloads:
        sets = []
        for text in args.sets:
            runs = [done.get((workload, seed)) or run(workload, seed, args.seconds)
                    for seed in seeds(text)]
            steady &= all(r["correct"] and r["failed"] == 0 for r in runs)
            stats = {name: summary([r["metrics"][name] for r in runs]) for name in bounds}
            sets.append({"seeds": text, "runs": runs, "metrics": stats})
            print(workload, text, " ".join(
                f"{name}={s['median']:.4g}~{s['spread']:.3f}" for name, s in stats.items()
            ), flush=True)
        verdict = {}
        for name, bound in bounds.items():
            spreads = [s["metrics"][name]["spread"] for s in sets]
            drift = [s["metrics"][name]["median"] / sets[0]["metrics"][name]["median"] - 1 for s in sets[1:]]
            ok = (name == "setup_s" or max(spreads) <= bound) and all(d <= bound for d in drift)
            verdict[name] = {"bound": bound, "spreads": spreads, "drift": drift, "steady": ok}
            steady &= ok
        report["workloads"][workload] = {"sets": sets, "verdict": verdict}
    report["steady"] = steady
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    print("steady" if steady else "NOT steady", flush=True)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
