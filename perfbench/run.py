"""The repository's benchmark: Figure-6 regeneration and store-served service jobs.

Run it from the checkout root::

    python3 perfbench/run.py --workload fig6-cold --seed 1 --seconds 20 --trace 0

Workloads (closed loops from one load generator; see :mod:`workloads`):
``fig6-cold`` and ``fig6-cold-j2`` run ``run_scenario("fig6-2cluster")``
cold and warm at ``n_jobs`` 1 and 2; ``service-warm`` runs store-served
``repro serve`` jobs.  ``--seed`` fixes the order of passes or jobs;
``--seconds`` sizes the run.  Every workload reports every end-to-end
metric named in ``BENCHMARK.json``: for fig6, ``cold_s``/``warm_s`` are
median passes and the job percentiles cover all passes; for the
service, ``cold_s`` is the median priming round and ``warm_s`` the
median server-side run of a warm ``fig6-2cluster`` job.

``--trace 0`` measures with tracing off; ``--trace 1`` makes the
separate traced run of :mod:`layers` (per-layer metrics, a Chrome trace
in ``.perfbench/``, traced results equal to untraced, wrappers removed).
The last stdout line is ``{"correct", "attempted", "failed",
"metrics"}``, the line before it a detail report (environment, samples,
problems).  Exit status: 0 with a result, 2 when the checkout holds no
program to measure, 1 when the run produced no metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from reference import GOLDEN_FIG6, Tally, parse_figure_text

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
#: The workloads and the metrics each mode reports, with their units.
SPEC_FILE = ROOT / "BENCHMARK.json"
#: No operation starts later than this, so a run ends within 3 minutes.
RUN_DEADLINE_S = 150.0


class RunContext:
    """What a workload gets from the run: inputs, places, accounting."""

    def __init__(self, workload, seed, seconds, workdir, env, golden, metric_names):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.root, self.workdir, self.outdir = ROOT, workdir, OUT
        self.env, self.golden = env, golden
        #: The metrics this run must report (``BENCHMARK.json``).
        self.metric_names = metric_names
        self.tally = Tally()
        self.origin = time.perf_counter()
        self._deadline = time.monotonic() + RUN_DEADLINE_S

    def out_of_time(self) -> bool:
        return time.monotonic() > self._deadline


def environment() -> dict:
    """Where the numbers were measured; recorded with every result."""
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def _terminate(signum, _frame):
    # Unwind through every ``finally`` so servers and pools are stopped.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    spec = json.loads(SPEC_FILE.read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    golden_path = ROOT / GOLDEN_FIG6
    if not (SRC / "repro" / "__init__.py").is_file() or not golden_path.is_file():
        print(f"perfbench: nothing to measure: needs src/repro and {GOLDEN_FIG6}", file=sys.stderr)
        return 2
    # REPRO_GRID_CACHE would silently add a disk layer under "cold" grids.
    os.environ.pop("REPRO_GRID_CACHE", None)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    sys.path.insert(0, str(SRC))
    import layers
    import workloads

    signal.signal(signal.SIGTERM, _terminate)
    runners = {
        "fig6-cold": (lambda c: workloads.measure_fig6(c, 1), lambda c: layers.trace_fig6(c, 1)),
        "fig6-cold-j2": (lambda c: workloads.measure_fig6(c, 2), lambda c: layers.trace_fig6(c, 2)),
        "service-warm": (workloads.measure_service, layers.trace_service),
    }
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    units = {m["name"]: m["unit"] for m in spec["end_to_end" if args.trace == 0 else "per_layer"]}
    ctx = RunContext(args.workload, args.seed, max(1, args.seconds), workdir, env,
                     parse_figure_text(golden_path.read_text()), list(units))
    try:
        metrics, detail = runners[args.workload][args.trace](ctx)
        if set(metrics) != set(units):
            raise ValueError(f"metrics differ from {SPEC_FILE.name}: {sorted(set(metrics) ^ set(units))}")
        values = {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}
        if not all(math.isfinite(v["value"]) for v in values.values()):
            raise ValueError(f"non-finite metric in {values}")
    except Exception:
        traceback.print_exc()
        print("perfbench: no metrics; " + "; ".join(ctx.tally.problems), file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(),
        "attempted": ctx.tally.attempted, "failed": ctx.tally.failed,
        "fail_frac": ctx.tally.failed / max(1, ctx.tally.attempted),
        "problems": ctx.tally.problems, "wall_s": time.perf_counter() - ctx.origin,
        **detail,
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(report, indent=1))
    print(json.dumps({"perfbench_detail": report}))
    print(json.dumps({"correct": ctx.tally.failed == 0, "attempted": ctx.tally.attempted,
                      "failed": ctx.tally.failed, "metrics": values}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
