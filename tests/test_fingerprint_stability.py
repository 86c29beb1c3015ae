"""Cross-process fingerprint stability.

``loop_fingerprint``, ``kernel_fingerprint`` and
``Schedule.fingerprint()`` are stage-store and warm-store *keys*: a
fingerprint that drifted after pickling, or differed between the parent
process and an ``n_jobs>1`` worker, would silently poison dedup —
either missing every cross-process hit or, far worse, serving the wrong
entry.  These tests pin the contract: fingerprints are pure functions
of content, byte-identical across pickling, process pools and fresh
interpreters.  ``kernel_fingerprint`` and ``Schedule.fingerprint()``
are memoized on the objects they hash, so the memos travel with every
copy; they must equal a recompute from content wherever they arrive.
"""

import hashlib
import pickle
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

from repro.cme import IncrementalCME, locality_fingerprint
from repro.cme.trace import _FINGERPRINT_ATTR, loop_fingerprint
from repro.engine import StageStore
from repro.engine.stages import make_scheduler
from repro.engine.stagestore import kernel_fingerprint
from repro.harness.grid import CellSpec, ExperimentGrid, machine_key
from repro.ir.ddg import DepEdge
from repro.machine import two_cluster
from repro.scheduler.result import _fingerprint
from repro.workloads import spec_suite

from reference_cells import stage_work

MAX_POINTS = 512


@pytest.fixture(scope="module")
def analyzer():
    return IncrementalCME(max_points=MAX_POINTS)


@pytest.fixture(scope="module")
def schedules(analyzer):
    return [
        make_scheduler("rmca", 1.0, analyzer).schedule(
            kernel, two_cluster()
        )
        for kernel in spec_suite(["applu", "su2cor"])
    ]


# Module-level so a ProcessPoolExecutor can pickle them into workers.
def _worker_loop_fp(loop):
    return loop_fingerprint(loop)


def _worker_kernel_fp(kernel):
    return kernel_fingerprint(kernel)


def _worker_schedule_fp(schedule):
    return schedule.fingerprint()


def _fingerprints(schedule):
    """Kernel and schedule fingerprints (memoizing both)."""
    return kernel_fingerprint(schedule.kernel), schedule.fingerprint()


def _no_hashing(*args):
    raise AssertionError("hashed again")


def _memo_and_recompute(schedule):
    """``(memoized, recomputed)`` kernel and schedule fingerprints of a
    schedule copy that arrived carrying both memos."""
    kernel = schedule.kernel
    assert kernel.ddg._fingerprint is not None
    assert "_content_fingerprint" in vars(schedule)
    memoized = _fingerprints(schedule)
    kernel.ddg._fingerprint = None
    object.__delattr__(schedule, "_content_fingerprint")
    return memoized, _fingerprints(schedule)


class TestPickleStability:
    def test_loop_fingerprint_survives_pickling(self):
        for kernel in spec_suite():
            expected = loop_fingerprint(kernel.loop)
            clone = pickle.loads(pickle.dumps(kernel.loop))
            # Recompute from content, not from a pickled memo attribute:
            clone.__dict__.pop(_FINGERPRINT_ATTR, None)
            assert loop_fingerprint(clone) == expected, kernel.name

    def test_kernel_fingerprint_survives_pickling(self):
        for kernel in spec_suite():
            expected = kernel_fingerprint(kernel)
            clone = pickle.loads(pickle.dumps(kernel))
            assert kernel_fingerprint(clone) == expected, kernel.name

    def test_schedule_fingerprint_survives_pickling(self, schedules):
        for schedule in schedules:
            expected = schedule.fingerprint()
            clone = pickle.loads(pickle.dumps(schedule))
            if hasattr(clone, "_content_fingerprint"):
                object.__delattr__(clone, "_content_fingerprint")
            assert clone.fingerprint() == expected

    def test_fresh_kernel_objects_agree(self):
        """Two independent instantiations of the same suite kernel hash
        equal — the fingerprint reads content, not identity."""
        for a, b in zip(spec_suite(), spec_suite()):
            assert loop_fingerprint(a.loop) == loop_fingerprint(b.loop)
            assert kernel_fingerprint(a) == kernel_fingerprint(b)


class TestProcessFanout:
    def test_fingerprints_identical_in_pool_workers(self, schedules):
        kernels = spec_suite(["applu", "su2cor"])
        with ProcessPoolExecutor(max_workers=2) as pool:
            loop_fps = list(
                pool.map(_worker_loop_fp, [k.loop for k in kernels])
            )
            kernel_fps = list(pool.map(_worker_kernel_fp, kernels))
            schedule_fps = list(pool.map(_worker_schedule_fp, schedules))
        assert loop_fps == [loop_fingerprint(k.loop) for k in kernels]
        assert kernel_fps == [kernel_fingerprint(k) for k in kernels]
        assert schedule_fps == [s.fingerprint() for s in schedules]

    def test_fingerprints_identical_in_fresh_interpreter(self):
        """A brand-new Python process building the suite from source
        computes the same loop/kernel fingerprints — no dependence on
        interpreter state, hash seeds or import order."""
        kernels = spec_suite(["applu", "tomcatv"])
        script = (
            "from repro.cme.trace import loop_fingerprint\n"
            "from repro.engine.stagestore import kernel_fingerprint\n"
            "from repro.workloads import spec_suite\n"
            "for k in spec_suite(['applu', 'tomcatv']):\n"
            "    print(k.name, loop_fingerprint(k.loop), "
            "kernel_fingerprint(k))\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        output = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            check=True,
            env={"PYTHONPATH": src, "PATH": "/usr/bin:/bin"},
        ).stdout
        expected = "".join(
            f"{k.name} {loop_fingerprint(k.loop)} {kernel_fingerprint(k)}\n"
            for k in kernels
        )
        assert output == expected


class TestMemos:
    def test_kernel_memo_dropped_by_add_edge(self):
        kernel = spec_suite(["applu"])[0]
        before = kernel_fingerprint(kernel)
        ops = kernel.loop.operations
        kernel.ddg.add_edge(DepEdge(ops[-1].name, ops[0].name, "mem", 7))
        after = kernel_fingerprint(kernel)
        assert after != before
        kernel.ddg._fingerprint = None
        assert kernel_fingerprint(kernel) == after

    def test_disk_served_schedule_carries_its_fingerprint(
        self, analyzer, tmp_path, monkeypatch
    ):
        spec = CellSpec.of("applu", two_cluster(), "rmca", 1.0)
        cold = ExperimentGrid(locality=analyzer, cache_dir=tmp_path).run_one(
            spec
        )
        body = StageStore(cache_dir=tmp_path / "stages").lookup(
            "schedule",
            StageStore.schedule_key(
                kernel_name=spec.kernel,
                kernel_fp=spec.kernel_fp,
                view=machine_key(two_cluster().scheduling_view),
                scheduler=spec.scheduler,
                threshold=spec.threshold,
                locality_fp=locality_fingerprint(analyzer),
            ),
        )
        fingerprint = cold.schedule.fingerprint()
        assert _memo_and_recompute(cold.schedule) == (
            (spec.kernel_fp, fingerprint),
        ) * 2
        object.__delattr__(cold.schedule, "_digest")
        assert cold.schedule.digest() == body.digest  # from content
        fresh = ExperimentGrid(
            locality=IncrementalCME(max_points=MAX_POINTS), cache_dir=tmp_path
        )
        served = fresh.run_one(spec).schedule
        assert stage_work(fresh) == (0, 0, 0)
        with monkeypatch.context() as patch:
            patch.setattr(hashlib, "sha256", _no_hashing)
            assert served.fingerprint() == fingerprint
        # Without the process's memo, as in a fresh interpreter, the
        # re-attached schedule hashes its body's digest and its machine,
        # never the kernel, placements or communications.
        object.__delattr__(served, "_content_fingerprint")
        _fingerprint.cache_clear()
        hashed = []
        sha256 = hashlib.sha256

        def recording(data):
            hashed.append(data)
            return sha256(data)

        with monkeypatch.context() as patch:
            patch.setattr(hashlib, "sha256", recording)
            assert served.fingerprint() == fingerprint
        assert hashed == [
            f"{body.digest}\n{machine_key(served.machine)}".encode()
        ]

    def test_memos_survive_pickling(self, schedules):
        expected = [_fingerprints(s) for s in schedules]
        for schedule, want in zip(schedules, expected):
            clone = pickle.loads(pickle.dumps(schedule))
            assert _memo_and_recompute(clone) == (want, want)

    def test_memos_survive_pool_workers(self, schedules):
        expected = [_fingerprints(s) for s in schedules]
        with ProcessPoolExecutor(max_workers=2) as pool:
            pairs = list(pool.map(_memo_and_recompute, schedules))
        assert pairs == [(want, want) for want in expected]

    def test_memos_survive_a_fresh_interpreter(self, schedules, tmp_path):
        expected = [_fingerprints(s) for s in schedules]
        path = tmp_path / "schedules.pkl"
        path.write_bytes(pickle.dumps(schedules))
        script = (
            "import pickle, sys\n"
            "from repro.engine.stagestore import kernel_fingerprint\n"
            "for s in pickle.load(open(sys.argv[1], 'rb')):\n"
            "    memo = (s.kernel.ddg._fingerprint[1], s._content_fingerprint)\n"
            "    s.kernel.ddg._fingerprint = None\n"
            "    object.__delattr__(s, '_content_fingerprint')\n"
            "    print(memo, (kernel_fingerprint(s.kernel), s.fingerprint()))\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        output = subprocess.run(
            [sys.executable, "-c", script, str(path)],
            capture_output=True,
            text=True,
            check=True,
            env={"PYTHONPATH": src, "PATH": "/usr/bin:/bin"},
        ).stdout
        assert output == "".join(f"{want} {want}\n" for want in expected)
