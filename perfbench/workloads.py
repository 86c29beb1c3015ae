"""The benchmark's workloads, timed with tracing off.

``fig6-cold`` / ``fig6-cold-j2``: one operation is
``run_scenario("fig6-2cluster")`` on a fresh grid at ``n_jobs`` 1 or 2,
either *cold* (in-memory stores only, all 296 cells computed) or *warm*
(the grid points at a cache directory an untimed filling pass made
earlier in the run).  Seeded blocks of one cold and three warm passes
run in shuffled order; a job is one pass, so ``job_p50_s`` falls among
the warm passes and ``job_p90_s`` among the cold ones.  Every pass must
match the recorded Figure 6 and the filling pass's per-cell digest.  A
warm pass never starts the pool; ``fig6-cold-j2`` runs them only
because every workload reports every end-to-end metric.

``service-warm``: each of :data:`SETUP_LAUNCHES` ``repro serve``
children (memory backend, ``--jobs 1``) is primed with one round of
:data:`MIX`; ``cold_s`` is the median priming round.  One client then
runs rounds of the mix in seeded order on the last child, one job at a
time: ``POST /jobs``, a think time, ``/events`` to its end, ``/result``
and ``/export?format=npz``.  Each job's payload and decoded npz records
must equal those of the first priming job for its scenario.  ``warm_s``
is the median server-side run (``GET /jobs/<id>``: ``finished`` minus
``started``) of the warm ``fig6-2cluster`` jobs.

The think time is drawn from the seed, uniform below :data:`THINK_S`,
and counts in the job's round trip; being the client's own delay, it
is not scaled with the rest (see below).  The server polls a job's events
every 50 ms from the moment the stream opens.  Without the think time
every job meets that poll at the same phase, so a job's round trip
jumps by a whole poll when its server-side run crosses a poll boundary,
and a few percent of host-speed drift moved the percentiles by half.

Every time is scaled to the reference speed (:mod:`speed`); the detail
report keeps the wall times next to the scaled ones.  Operation counts
follow from ``--seconds`` through nominal costs measured on a 2-core
x86 box, never from how fast a run goes.
"""

from __future__ import annotations

import gc
import math
import random
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.harness.io import figure_payload
from repro.harness.scenarios import run_scenario
from repro.service import ServiceClient, ServiceError, load_npz

from procs import drain, read_line, stop, vm_hwm_mb
from reference import (
    bar_problems,
    cell_digest,
    payload_digest,
    percentile,
    samples_beyond,
)
from speed import Scaler

SCENARIO = "fig6-2cluster"
WARM_PER_COLD = 3
#: Nominal seconds of one block (a cold and three warm passes) per n_jobs.
BLOCK_SECONDS = {1: 4.0, 2: 3.8}
MIN_BLOCKS = 3
SETUP_PROBES = 5
#: An operation slower than this counts as failed.
TIMEOUT_S = 60.0
PROBE = Path(__file__).with_name("setup_probe.py")

#: The service job mix, in priming order.
MIX = (
    "fig6-2cluster",
    "fig6-smoke",
    "fig6-steady-ablation",
    "bus-design-space-smoke",
    "streaming",
)
#: Recorded Figure-6 groups each figure scenario reproduces (None: all).
GOLDEN_GROUPS = {
    "fig6-2cluster": None,
    "fig6-smoke": ("unified", "NMB=1,LMB=1 baseline", "NMB=1,LMB=1 rmca"),
}
#: Nominal seconds of one measured round of the mix, checks included.
ROUND_SECONDS = 0.55
#: Measured jobs per run at least, so ten lie beyond the tail percentile.
MIN_JOBS = 100
#: Servers launched (and primed) per run; the last one serves the jobs.
SETUP_LAUNCHES = 3
#: The tail percentile every workload reports.
TAIL = 90
#: Think times are uniform below this many seconds (see above).
THINK_S = 0.05


# ----------------------------------------------------------------------
# Figure 6
# ----------------------------------------------------------------------
def fig6_pass(n_jobs: int, cache_dir: Optional[Path]):
    """One timed operation: ``run_scenario`` on a fresh grid."""
    return run_scenario(SCENARIO, n_jobs=n_jobs, cache_dir=cache_dir)


def check_pass(outcome, golden, expected: Optional[str]) -> Tuple[List[str], str]:
    """A pass's disagreements with the recording and the run's digest."""
    payload = figure_payload(outcome.figure)
    problems = bar_problems(payload["bars"], golden)
    digest = cell_digest(payload["records"])
    if expected is not None and digest != expected:
        problems.append(f"per-cell digest {digest[:12]} differs from {expected[:12]}")
    return problems, digest


def timed_pass(ctx, label, n_jobs, cache_dir, expected):
    """Run, time and check one pass: ``(seconds, digest)`` or ``None``."""
    gc.collect()
    start = time.perf_counter()
    try:
        outcome = fig6_pass(n_jobs, cache_dir)
    except Exception as exc:  # a failed pass is counted; the run goes on
        ctx.tally.record(label, [f"{type(exc).__name__}: {exc}"])
        return None
    seconds = time.perf_counter() - start
    problems, digest = check_pass(outcome, ctx.golden, expected)
    if seconds > TIMEOUT_S:
        problems.append(f"took {seconds:.1f} s")
    return (seconds, digest) if ctx.tally.record(label, problems) else None


def fill(ctx, n_jobs: int) -> Tuple[Path, str]:
    """The untimed pass that fills the run's cache directory (and warms
    up imports); returns it and the run's reference digest.  It runs at
    the workload's own ``n_jobs``, so the process's peak memory comes
    from passes of that kind only."""
    cache_dir = ctx.workdir / "cache"
    done = timed_pass(ctx, "fill", n_jobs, cache_dir, None)
    if done is None:
        raise RuntimeError("filling pass failed: " + "; ".join(ctx.tally.problems))
    return cache_dir, done[1]


def pass_order(seed: int, blocks: int) -> List[str]:
    """Blocks of one cold and WARM_PER_COLD warm passes, each shuffled."""
    rng = random.Random(seed)
    order: List[str] = []
    for _ in range(blocks):
        block = ["cold"] + ["warm"] * WARM_PER_COLD
        rng.shuffle(block)
        order.extend(block)
    return order


def time_setup(ctx, n_jobs: int) -> float:
    """Seconds from launching a fresh interpreter until it has imported
    repro, resolved the scenario and built its grid."""
    with open(ctx.workdir / "probe.log", "ab") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(PROBE), SCENARIO, str(n_jobs)],
            cwd=ctx.root, env=ctx.env, stdout=subprocess.PIPE,
            stderr=log, bufsize=0,
        )
        try:
            line = read_line(proc, time.monotonic() + 60)
            seconds = time.perf_counter() - start
            status = proc.wait(timeout=60)
        finally:
            stop(proc)
            proc.stdout.close()
    if line.strip() != b"ready" or status != 0:
        raise RuntimeError(f"set-up probe printed {line!r}, exit {status}")
    return seconds


def measure_fig6(ctx, n_jobs: int):
    cache_dir, digest = fill(ctx, n_jobs)
    blocks = max(MIN_BLOCKS, round(ctx.seconds / BLOCK_SECONDS[n_jobs]))
    scaler = Scaler()
    #: (kind, scaled seconds, wall seconds)
    passes: List[Tuple[str, float, float]] = []
    for kind in pass_order(ctx.seed, blocks):
        if ctx.out_of_time():
            break
        done = timed_pass(ctx, kind, n_jobs, cache_dir if kind == "warm" else None, digest)
        factor = scaler.factor()
        if done is not None:
            passes.append((kind, done[0] * factor, done[0]))
    peak = vm_hwm_mb()
    if n_jobs > 1:
        # Pool workers are this process's only children so far: this is
        # the largest worker's peak.
        peak += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    setup = []
    for _ in range(SETUP_PROBES):
        wall = time_setup(ctx, n_jobs)
        setup.append((wall * scaler.factor(), wall))
    jobs = [s for _kind, s, _wall in passes]
    metrics = {
        "setup_s": statistics.median(s for s, _wall in setup),
        "cold_s": statistics.median(s for kind, s, _wall in passes if kind == "cold"),
        "warm_s": statistics.median(s for kind, s, _wall in passes if kind == "warm"),
        "job_p50_s": statistics.median(jobs),
        f"job_p{TAIL}_s": percentile(jobs, TAIL),
        "peak_rss_mb": peak,
    }
    detail = {
        "samples": {"jobs": len(jobs), f"beyond_p{TAIL}": samples_beyond(len(jobs), TAIL)},
        "passes": passes,
        "setup": setup,
        "references": scaler.references,
        "digest": digest,
    }
    return metrics, detail


# ----------------------------------------------------------------------
# Service
# ----------------------------------------------------------------------
class ServerProcess:
    """A ``repro serve`` child on a free port, up once ``/health``
    answers; ``setup_s`` is the time from its spawn to that answer."""

    def __init__(self, ctx, timeout: float = 60.0):
        self._drain: Optional[threading.Thread] = None
        self._log = open(ctx.workdir / "serve.log", "ab")
        start = time.perf_counter()
        try:
            self.proc = subprocess.Popen(
                [sys.executable, "-u", "-m", "repro.cli", "serve", "--port", "0",
                 "--backend", "memory", "--jobs", "1"],
                cwd=ctx.root, env=ctx.env, stdout=subprocess.PIPE,
                stderr=self._log, bufsize=0,
            )
        except BaseException:
            self._log.close()
            raise
        try:
            deadline = time.monotonic() + timeout
            line = read_line(self.proc, deadline).decode()
            if "listening on " not in line:
                raise RuntimeError(f"repro serve announced {line!r}")
            self.url = line.split("listening on ", 1)[1].strip()
            client = ServiceClient(self.url, timeout=timeout)
            while True:
                try:
                    client.health()
                    break
                except ServiceError:
                    if time.monotonic() > deadline:
                        raise
                    time.sleep(0.002)
            self.setup_s = time.perf_counter() - start
        except BaseException:
            self.close()
            raise
        # Keep reading its output so the server never blocks on a pipe.
        self._drain = threading.Thread(
            target=drain, args=(self.proc.stdout.fileno(),), daemon=True
        )
        self._drain.start()

    def close(self) -> None:
        """Stop the server and wait for it to end."""
        stop(self.proc)
        if self._drain is not None:
            self._drain.join(timeout=10)
        self.proc.stdout.close()
        self._log.close()


class Checker:
    """Each scenario's expected job output, taken from its priming job."""

    def __init__(self, ctx):
        self.golden = ctx.golden
        self.npz_path = ctx.workdir / "export.npz"
        self.expected: Dict[str, Tuple[str, str]] = {}

    def problems(self, scenario: str, outcome: dict, blob: bytes) -> List[str]:
        if outcome.get("state") != "done":
            return [f"job {outcome.get('state')}: {outcome.get('error')}"]
        self.npz_path.write_bytes(blob)
        got = (payload_digest(outcome["result"]), payload_digest(load_npz(self.npz_path)))
        expected = self.expected.get(scenario)
        if expected is None:
            self.expected[scenario] = got
            if scenario in GOLDEN_GROUPS:
                return bar_problems(
                    outcome["result"]["figure"]["bars"], self.golden,
                    GOLDEN_GROUPS[scenario],
                )
            return []
        problems = []
        if got[0] != expected[0]:
            problems.append("result payload differs from the priming job's")
        if got[1] != expected[1]:
            problems.append("npz records differ from the priming job's")
        return problems


@dataclass
class JobDone:
    """A job that passed its checks."""

    seconds: float  #: submit until the export is received
    job_id: str
    outcome: dict  #: the ``/result`` body
    export_bytes: int
    #: ``time.time()`` when the event stream ended; the server stamps
    #: jobs with the same host clock.
    events_end: float


def job(ctx, client, checker, scenario, think: float) -> Optional[JobDone]:
    """One checked job, or ``None`` when it failed."""
    try:
        start = time.perf_counter()
        job_id = client.submit(scenario=scenario)["id"]
        time.sleep(think)
        for _event in client.events(job_id):
            pass
        events_end = time.time()
        outcome = client.result(job_id)
        blob = client.export(job_id, "npz")
        seconds = time.perf_counter() - start
    except Exception as exc:  # a failed job is counted; the run goes on
        ctx.tally.record(scenario, [f"{type(exc).__name__}: {exc}"])
        return None
    problems = checker.problems(scenario, outcome, blob)
    if seconds > TIMEOUT_S:
        problems.append(f"took {seconds:.1f} s")
    if not ctx.tally.record(scenario, problems):
        return None
    return JobDone(seconds, job_id, outcome, len(blob), events_end)


def job_stream(seed: int, rounds: int):
    """``(scenario, think time)`` for rounds of the mix, each round in
    an order drawn from ``seed``."""
    rng = random.Random(seed)
    for _ in range(rounds):
        order = list(MIX)
        rng.shuffle(order)
        for scenario in order:
            yield scenario, rng.uniform(0.0, THINK_S)


def rounds_for(seconds: int) -> int:
    return max(math.ceil(MIN_JOBS / len(MIX)), round(seconds / ROUND_SECONDS))


def prime(ctx, client, checker) -> float:
    """The cold round that fills the server's stores; its wall seconds."""
    start = time.perf_counter()
    for scenario in MIX:
        job(ctx, client, checker, scenario, 0.0)
    return time.perf_counter() - start


def measure_service(ctx):
    scaler = Scaler()
    #: (scaled seconds, wall seconds) of each launch and priming round
    launches: List[Tuple[float, float]] = []
    primes: List[Tuple[float, float]] = []
    checker = Checker(ctx)
    server: Optional[ServerProcess] = None
    try:
        for _ in range(SETUP_LAUNCHES):
            if server is not None:
                server.close()
            server = ServerProcess(ctx)
            launches.append((server.setup_s * scaler.factor(), server.setup_s))
            client = ServiceClient(server.url, timeout=TIMEOUT_S)
            wall = prime(ctx, client, checker)
            primes.append((wall * scaler.factor(), wall))
        #: (scenario, scaled seconds, wall seconds) of each checked job
        jobs: List[Tuple[str, float, float]] = []
        warm_runs: List[Tuple[float, float]] = []
        for scenario, think in job_stream(ctx.seed, rounds_for(ctx.seconds)):
            if ctx.out_of_time():
                break
            done = job(ctx, client, checker, scenario, think)
            factor = scaler.factor()
            if done is None:
                continue
            jobs.append((scenario, (done.seconds - think) * factor + think, done.seconds))
            if scenario == MIX[0]:
                info = client.job(done.job_id)
                run = info["finished"] - info["started"]
                warm_runs.append((run * factor, run))
        peak = vm_hwm_mb(server.proc.pid)
    finally:
        if server is not None:
            server.close()
    seconds = [s for _scenario, s, _wall in jobs]
    metrics = {
        "setup_s": statistics.median(s for s, _wall in launches),
        "cold_s": statistics.median(s for s, _wall in primes),
        "warm_s": statistics.median(s for s, _wall in warm_runs),
        "job_p50_s": statistics.median(seconds),
        f"job_p{TAIL}_s": percentile(seconds, TAIL),
        "peak_rss_mb": peak,
    }
    detail = {
        "samples": {"jobs": len(seconds), f"beyond_p{TAIL}": samples_beyond(len(seconds), TAIL)},
        "launches": launches,
        "primes": primes,
        "warm_runs": warm_runs,
        "jobs": jobs,
        "references": scaler.references,
    }
    return metrics, detail
