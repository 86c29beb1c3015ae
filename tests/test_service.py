"""End-to-end and unit tests for the experiment service (repro.service).

The expensive part — two ``fig6-smoke`` submissions against one live
server plus the in-process reference run — happens once in a
module-scoped fixture; the tests then assert the service's contract
against it: results bit-identical to ``run_scenario``, and the second
identical job answered from the persistent stage stores.
"""

import asyncio
import gc
import json
import socket
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass
from urllib.request import urlopen

import pytest

from repro.harness.grid import ExperimentGrid
from repro.harness.io import figure_payload
from repro.harness.scenarios import (
    GroupSpec,
    MachineSpec,
    ScenarioSpec,
    get_scenario,
    run_scenario,
    scenario_listing,
)
from repro.service import (
    DiskBackend,
    JobManager,
    MemoryBackend,
    ServerThread,
    ServiceClient,
    ServiceError,
    export_records,
    load_npz,
    make_backend,
    outcome_records,
)
from repro.service import server as server_module
from repro.service.jobs import Job


def _tiny_spec_dict(name="svc-tiny", kernels=("tomcatv",)):
    return ScenarioSpec(
        name=name,
        description="service test scenario",
        groups=(
            GroupSpec(
                label="unified",
                machine=MachineSpec(preset="unified"),
                scheduler="baseline",
            ),
        ),
        thresholds=(1.0,),
        kernels=tuple(kernels),
        n_iterations=8,
        n_times=2,
    ).to_dict()


@dataclass(frozen=True)
class _FigureArg:
    """A ``figure_args`` entry of a figure spec, as a test input."""

    value: object


@pytest.fixture(scope="module")
def service():
    with ServerThread() as srv:
        yield srv, ServiceClient(srv.url, timeout=120.0)


@pytest.fixture(scope="module")
def smoke_run(service):
    """The acceptance flow: two fig6-smoke jobs against one server."""
    _srv, client = service
    local = run_scenario("fig6-smoke")

    job1 = client.submit(scenario="fig6-smoke")
    events1 = list(client.events(job1["id"]))
    result1 = client.result(job1["id"])

    job2 = client.submit(scenario="fig6-smoke")
    result2 = client.wait(job2["id"])

    return {
        "local": local,
        "jobs": (job1, job2),
        "events1": events1,
        "results": (result1, result2),
    }


class TestEndToEnd:
    def test_health_and_scenarios(self, service):
        _srv, client = service
        assert client.health() == {"ok": True}
        # The endpoint and the CLI share one serializer.
        assert client.scenarios() == json.loads(
            json.dumps(scenario_listing())
        )

    def test_event_stream_shape(self, smoke_run):
        events = smoke_run["events1"]
        assert [e["seq"] for e in events] == list(range(len(events)))
        states = [e["state"] for e in events if e["type"] == "state"]
        assert states == ["queued", "running", "done"]
        cells = [e for e in events if e["type"] == "cell"]
        assert cells, "per-cell progress events must stream"
        assert [c["done"] for c in cells] == list(range(1, len(cells) + 1))
        assert cells[-1]["done"] == cells[-1]["total"]
        assert {c["source"] for c in cells} <= {"computed", "dedup"}

    def test_result_bit_identical_to_in_process(self, smoke_run):
        remote = smoke_run["results"][0]["result"]
        assert remote["kind"] == "figure"
        local_payload = json.loads(
            json.dumps(figure_payload(smoke_run["local"].figure))
        )
        assert remote["figure"] == local_payload

    def test_jobs_report_identical_results(self, smoke_run):
        result1, result2 = smoke_run["results"]
        assert result1["result"] == result2["result"]

    def test_second_job_served_by_stage_stores(self, smoke_run):
        telemetry = smoke_run["results"][1]["telemetry"]
        assert telemetry["store_hits"] > 0
        assert telemetry["stages"]["schedule"]["hits"] > 0
        assert telemetry["stages"]["simulate"]["hits"] > 0
        assert telemetry["stages"]["schedule"]["misses"] == 0
        assert telemetry["stages"]["simulate"]["misses"] == 0

    def test_event_cursor_resume_and_replay(self, service, smoke_run):
        _srv, client = service
        job_id = smoke_run["jobs"][0]["id"]
        all_events = list(client.events(job_id, follow=False))
        assert all_events == smoke_run["events1"]
        tail = list(client.events(job_id, cursor=len(all_events) - 1))
        assert tail == all_events[-1:]

    def test_job_listing_and_describe(self, service, smoke_run):
        _srv, client = service
        ids = [job["id"] for job in client.jobs()]
        submitted = [job["id"] for job in smoke_run["jobs"]]
        assert [i for i in ids if i in submitted] == submitted
        description = client.job(submitted[0])
        assert description["state"] == "done"
        assert description["scenario"] == "fig6-smoke"
        assert description["finished"] >= description["started"]

    def test_export_matches_in_process_records(
        self, service, smoke_run, tmp_path
    ):
        _srv, client = service
        job_id = smoke_run["jobs"][0]["id"]
        records = outcome_records(smoke_run["local"])

        npz_path = tmp_path / "remote.npz"
        npz_path.write_bytes(client.export(job_id, "npz"))
        assert load_npz(npz_path) == records

        local_csv = export_records(records, tmp_path / "local.csv", "csv")
        assert client.export(job_id, "csv") == local_csv.read_bytes()

    def test_stats_shape(self, service, smoke_run):
        _srv, client = service
        stats = client.stats()
        assert stats["jobs"]["done"] >= 2
        assert stats["jobs"]["failed"] == 0
        assert stats["scenarios"] == len(scenario_listing())
        grid_stats = list(stats["grids"].values())
        assert grid_stats, "the persistent grid must be reported"
        assert grid_stats[0]["stages"]["schedule"]["hits"] > 0
        assert grid_stats[0]["plan"]["batch_width_max"] > 0

    def test_job_telemetry_counts_only_its_own_work(self, smoke_run):
        """The second fig6-smoke job runs no unit, so it reports no
        batch width; the grid's lifetime maximum stays on /stats."""
        plan = smoke_run["results"][1]["telemetry"]["plan"]
        assert plan["simulate_tasks"] == plan["batches"] == 0
        assert plan.get("batch_width_max", 0) == 0


class TestValidationOverHttp:
    def test_unknown_scenario_is_400(self, service):
        _srv, client = service
        with pytest.raises(ServiceError, match="unknown scenario") as info:
            client.submit(scenario="fig7")
        assert info.value.status == 400

    @pytest.mark.parametrize("key, value", [("prio", 3), ("sim", "scalar")])
    def test_unknown_submit_key_is_400_and_named(self, service, key, value):
        srv, _client = service
        body = json.dumps({"scenario": "fig6-smoke", key: value}).encode()
        request = urllib.request.Request(
            srv.url + "/jobs", data=body, method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(request, timeout=10)
        assert info.value.code == 400
        assert repr(key) in json.loads(info.value.read())["error"]

    def test_scenario_and_spec_together_is_400(self, service):
        _srv, client = service
        with pytest.raises(ServiceError, match="exactly one") as info:
            client.submit(scenario="fig6-smoke", spec=_tiny_spec_dict())
        assert info.value.status == 400

    @pytest.mark.parametrize(
        "key, value",
        [
            ("n_iterations", "many"),
            ("n_iterations", 0),
            ("n_times", -2),
            ("max_points", -3),
            ("sim", "scalar"),
            ("kernels", []),
            ("figure_args", {"n_clusters": 2}),
            ("n_cluster", _FigureArg(2)),
            ("grid", _FigureArg(None)),
            ("kernels", _FigureArg(["applu"])),
        ],
    )
    def test_bad_inline_spec_is_400_and_named(self, service, key, value):
        _srv, client = service
        spec = _tiny_spec_dict()
        if key == "max_points":
            spec["locality"] = {"kind": "sampling", key: value}
        elif isinstance(value, _FigureArg):
            spec.update(
                groups=[], figure="figure6", figure_args={key: value.value}
            )
        else:
            spec[key] = value
        with pytest.raises(ServiceError, match=repr(key)) as info:
            client.submit(spec=spec)
        assert info.value.status == 400

    def test_bad_override_is_400(self, service):
        _srv, client = service
        with pytest.raises(ServiceError, match="'steady'") as info:
            client.submit(scenario="fig6-smoke", steady="sometimes")
        assert info.value.status == 400

    def test_malformed_json_body_is_400(self, service):
        srv, _client = service
        request = urllib.request.Request(
            srv.url + "/jobs", data=b"{not json", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(request, timeout=10)
        info.value.close()  # the error holds the answer's socket
        assert info.value.code == 400

    def test_unknown_job_is_404(self, service):
        _srv, client = service
        with pytest.raises(ServiceError, match="unknown job") as info:
            client.job("deadbeef")
        assert info.value.status == 404

    def test_unknown_route_is_404(self, service):
        _srv, client = service
        with pytest.raises(ServiceError, match="no route") as info:
            client._get_json("/teapots")
        assert info.value.status == 404

    def test_result_before_terminal_is_409(self, service):
        srv, client = service
        # White-box: a job parked in 'queued' (never handed to the
        # worker), so the race-free way to observe the 409.
        job = Job("stalled0409", 9_999, get_scenario("fig6-smoke"), {})
        srv.manager._jobs[job.id] = job
        try:
            with pytest.raises(ServiceError, match="queued") as info:
                client.result(job.id)
            assert info.value.status == 409
            with pytest.raises(ServiceError) as info:
                client.export(job.id)
            assert info.value.status == 409
            events = list(client.events(job.id, follow=False))
            assert [e["state"] for e in events] == ["queued"]
        finally:
            del srv.manager._jobs[job.id]

    @pytest.mark.filterwarnings(
        "error::ResourceWarning",
        "error::pytest.PytestUnraisableExceptionWarning",
    )
    def test_error_answers_close_their_sockets(self, service):
        """A 400, a 404 and a 409 leave the collector no socket to close."""
        srv, client = service
        job = Job("stalled0410", 9_998, get_scenario("fig6-smoke"), {})
        srv.manager._jobs[job.id] = job
        try:
            for call, arg, status in ((client.submit, "fig7", 400),
                                      (client.job, "deadbeef", 404),
                                      (client.result, job.id, 409)):
                with pytest.raises(ServiceError, match=f"HTTP {status}:"):
                    call(arg)
        finally:
            del srv.manager._jobs[job.id]
        gc.collect()

    def test_bad_export_format_is_400(self, service, smoke_run):
        _srv, client = service
        job_id = smoke_run["jobs"][0]["id"]
        with pytest.raises(ServiceError, match="parquet") as info:
            client.export(job_id, "parquet")
        assert info.value.status == 400

    def test_bad_event_cursor_is_400(self, service, smoke_run):
        _srv, client = service
        job_id = smoke_run["jobs"][0]["id"]
        with pytest.raises(ServiceError, match="cursor") as info:
            client._get_json(f"/jobs/{job_id}/events?cursor=later")
        assert info.value.status == 400

    def test_negative_event_cursor_is_400(self, service, smoke_run):
        _srv, client = service
        job_id = smoke_run["jobs"][0]["id"]
        with pytest.raises(ServiceError, match="'cursor'.*>= 0") as info:
            list(client.events(job_id, cursor=-2))
        assert info.value.status == 400


class TestFailedJob:
    def test_failure_is_observable_not_fatal(self, monkeypatch):
        def _boom(*_args, **_kwargs):
            raise RuntimeError("scheduler exploded")

        monkeypatch.setattr("repro.service.jobs.run_scenario", _boom)
        with ServerThread() as srv:
            client = ServiceClient(srv.url)
            job = client.submit(spec=_tiny_spec_dict())
            events = list(client.events(job["id"]))
            assert events[-1]["state"] == "failed"
            assert "scheduler exploded" in events[-1]["error"]
            result = client.result(job["id"])
            assert result["state"] == "failed"
            assert "RuntimeError" in result["error"]
            assert result["result"] is None
            with pytest.raises(ServiceError) as info:
                client.export(job["id"])
            assert info.value.status == 409
            # The service stays alive and healthy after a failed job.
            assert client.health() == {"ok": True}


class TestConcurrency:
    def test_one_grid_survives_two_concurrent_scenarios(self):
        """Two threads drive one grid at once (the service's sharing
        pattern, minus the serializing executor): no exceptions, and
        both results bit-identical to serial reference runs."""
        spec_a = ScenarioSpec.from_dict(_tiny_spec_dict("conc-a", ("tomcatv",)))
        spec_b = ScenarioSpec.from_dict(
            _tiny_spec_dict("conc-b", ("swim", "tomcatv"))
        )
        reference = {
            spec.name: [r.canonical() for r in run_scenario(spec).results]
            for spec in (spec_a, spec_b)
        }
        grid = ExperimentGrid(locality=spec_a.locality.build())
        outcomes = {}
        errors = []

        def _run(spec):
            try:
                outcomes[spec.name] = run_scenario(spec, grid=grid)
            except Exception as exc:  # pragma: no cover - the assertion
                errors.append(exc)

        threads = [
            threading.Thread(target=_run, args=(spec,))
            for spec in (spec_a, spec_b)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        for spec in (spec_a, spec_b):
            got = [r.canonical() for r in outcomes[spec.name].results]
            assert got == reference[spec.name]
        assert grid.stats.requested == 3

    def test_concurrent_submissions_both_complete(self, service):
        _srv, client = service
        results = {}

        def _submit(name, kernels):
            job = client.submit(spec=_tiny_spec_dict(name, kernels))
            results[name] = client.wait(job["id"])

        threads = [
            threading.Thread(target=_submit, args=(f"conc-sub-{i}", ("swim",)))
            for i in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert len(results) == 2
        first, second = results.values()
        assert first["state"] == second["state"] == "done"
        assert first["result"] == second["result"]


class TestBackends:
    def test_memory_backend_round_trip(self):
        backend = MemoryBackend()
        backend.save({"id": "a", "sequence": 1, "state": "done"})
        backend.save({"id": "b", "sequence": 2, "state": "queued"})
        assert backend.load("a")["state"] == "done"
        assert backend.load("missing") is None
        assert [record["id"] for record in backend.records()] == ["a", "b"]

    def test_disk_backend_round_trip(self, tmp_path):
        backend = DiskBackend(tmp_path / "jobs")
        backend.save({"id": "b", "sequence": 2, "state": "done"})
        backend.save({"id": "a", "sequence": 1, "state": "done"})
        assert backend.load("a")["sequence"] == 1
        # Creation order, not name.
        assert [record["id"] for record in backend.records()] == ["a", "b"]

    def test_disk_backend_tolerates_rot(self, tmp_path):
        backend = DiskBackend(tmp_path)
        (tmp_path / "corrupt.json").write_text("{truncated")
        (tmp_path / "foreign.json").write_text(json.dumps({"id": "other"}))
        assert backend.load("corrupt") is None
        assert backend.load("foreign") is None
        assert backend.records() == []

    def test_make_backend(self, tmp_path):
        assert isinstance(make_backend("memory"), MemoryBackend)
        assert isinstance(make_backend("disk", tmp_path), DiskBackend)
        with pytest.raises(ValueError, match="needs a directory"):
            make_backend("disk")
        with pytest.raises(ValueError, match="unknown backend"):
            make_backend("redis")

    def test_failed_first_save_registers_no_job(self):
        """A job whose record cannot be saved is not registered: no
        ghost ``queued`` job, and the next submission still runs."""

        class FailFirstSave(MemoryBackend):
            failed = False

            def save(self, record):
                if not self.failed:
                    self.failed = True
                    raise OSError("disk full")
                super().save(record)

        manager = JobManager(backend=FailFirstSave())
        spec = ScenarioSpec.from_dict(_tiny_spec_dict("ghost"))
        with pytest.raises(OSError, match="disk full"):
            manager.submit(spec)
        assert manager.jobs() == []
        assert manager.stats()["jobs"]["queued"] == 0
        job = manager.submit(spec)
        manager.shutdown(wait=True)
        assert manager.jobs() == [job]
        assert job.state == "done"

    def test_failed_final_save_fails_the_job(self):
        """The terminal state is announced only once its record is
        saved; a failed save ends the job ``failed``, naming the write."""

        class FailSecondSave(MemoryBackend):
            saves = 0

            def save(self, record):
                self.saves += 1
                if self.saves == 2:
                    raise OSError("disk full")
                super().save(record)

        backend = FailSecondSave()
        manager = JobManager(backend=backend)
        job = manager.submit(ScenarioSpec.from_dict(_tiny_spec_dict("lost")))
        manager.shutdown(wait=True)
        assert job.state == "failed" and job.finished is not None
        assert "saving the job record failed: OSError: disk full" in job.error
        assert job.events[-1]["error"] == job.error
        assert job.result is None
        assert backend.load(job.id)["state"] == "queued"

    def test_served_jobs_persist_through_disk_backend(self, tmp_path):
        manager = JobManager(backend=DiskBackend(tmp_path / "jobs"))
        with ServerThread(manager=manager) as srv:
            client = ServiceClient(srv.url)
            job = client.submit(spec=_tiny_spec_dict("persist"))
            client.wait(job["id"])
        record = DiskBackend(tmp_path / "jobs").load(job["id"])
        assert record["state"] == "done"
        assert record["result"]["kind"] == "grid"
        assert record["telemetry"]["grid"]["computed"] == 1
        assert record["export_records"]

    @staticmethod
    def _served(client, job_id, tmp_path):
        npz = tmp_path / f"{job_id}.npz"
        npz.write_bytes(client.export(job_id, "npz"))
        return (
            client.job(job_id),
            client.result(job_id),
            client.export(job_id, "csv"),
            load_npz(npz),
            list(client.events(job_id)),
        )

    def test_restarted_manager_serves_saved_jobs(self, tmp_path):
        """A manager over a disk backend serves the jobs an earlier
        manager saved there, unchanged, and numbers new jobs after
        them."""
        directory = tmp_path / "jobs"
        first = JobManager(backend=DiskBackend(directory))
        with ServerThread(manager=first) as srv:
            client = ServiceClient(srv.url)
            job_id = client.submit(spec=_tiny_spec_dict("restart"))["id"]
            client.wait(job_id)
            before = self._served(client, job_id, tmp_path)
        restarted = JobManager(backend=DiskBackend(directory))
        with ServerThread(manager=restarted) as srv:
            client = ServiceClient(srv.url)
            assert [job["id"] for job in client.jobs()] == [job_id]
            after = self._served(client, job_id, tmp_path)
            fresh = client.submit(spec=_tiny_spec_dict("after-restart"))
            client.wait(fresh["id"])
        described, result, csv, npz, events = after
        # The restarted job streams only its terminal event.
        assert {**described, "n_events": None} == {
            **before[0], "n_events": None
        }
        assert described["n_events"] == 1
        assert (result, csv, npz) == before[1:4]
        assert events == [{**before[4][-1], "seq": 0}]
        assert fresh["sequence"] == described["sequence"] + 1

    def test_unfinished_record_fails_on_restart(self, tmp_path):
        """A record a dead process left ``queued`` or ``running`` comes
        back ``failed``, naming the restart, and is saved that way."""
        backend = DiskBackend(tmp_path / "jobs")
        spec = ScenarioSpec.from_dict(_tiny_spec_dict("orphan"))
        for sequence, state in enumerate(("queued", "running"), 1):
            job = Job(f"orphan{sequence}", sequence, spec, {})
            backend.save({**job.record(), "state": state})
        manager = JobManager(backend=backend)
        for job in manager.jobs():
            assert job.state == "failed" and job.finished is not None
            assert "restarted" in job.error
            events, _cursor, finished = job.events_since(0)
            assert finished and events[-1]["error"] == job.error
            assert backend.load(job.id)["state"] == "failed"
        assert [job.id for job in manager.jobs()] == ["orphan1", "orphan2"]

    def test_restart_reads_each_record_once(self, tmp_path):
        """A manager starting over saved jobs parses each record once."""
        reads = []

        class CountingBackend(DiskBackend):
            def load(self, job_id):
                reads.append(job_id)
                return super().load(job_id)

        backend = CountingBackend(tmp_path / "jobs")
        spec = ScenarioSpec.from_dict(_tiny_spec_dict("saved"))
        for sequence in (1, 2, 3):
            job = Job(f"saved{sequence}", sequence, spec, {})
            backend.save({**job.record(), "state": "queued"})
        manager = JobManager(backend=backend)
        assert [job.id for job in manager.jobs()] == [
            "saved1", "saved2", "saved3"
        ]
        assert len(reads) == 3


class TestParsePayload:
    def test_non_object_rejected(self):
        manager = JobManager()
        with pytest.raises(ValueError, match="JSON object"):
            manager.parse_payload(["fig6-smoke"])

    @pytest.mark.parametrize(
        "key, value", [("priority", "high"), ("sim", "scalar")]
    )
    def test_unknown_keys_named(self, key, value):
        manager = JobManager()
        with pytest.raises(ValueError, match=repr(key)):
            manager.parse_payload({"scenario": "fig6-smoke", key: value})

    def test_exactly_one_of_scenario_or_spec(self):
        manager = JobManager()
        with pytest.raises(ValueError, match="exactly one"):
            manager.parse_payload({})
        with pytest.raises(ValueError, match="exactly one"):
            manager.parse_payload(
                {"scenario": "fig6-smoke", "spec": _tiny_spec_dict()}
            )

    def test_overrides_validated_and_named(self):
        manager = JobManager()
        with pytest.raises(ValueError, match="'steady'"):
            manager.parse_payload(
                {"scenario": "fig6-smoke", "steady": "sometimes"}
            )
        with pytest.raises(ValueError, match="'steady'"):
            manager.parse_payload({"scenario": "fig6-smoke", "steady": 3})

    def test_valid_payloads_resolve(self):
        manager = JobManager()
        spec, overrides = manager.parse_payload(
            {"scenario": "fig6-smoke", "steady": "off"}
        )
        assert spec.name == "fig6-smoke"
        assert overrides == {"steady": "off"}
        spec, overrides = manager.parse_payload({"spec": _tiny_spec_dict()})
        assert spec.kernels == ("tomcatv",)
        assert overrides == {}


# ----------------------------------------------------------------------
# Push-driven job path: answer first, wake streams, render in memory
# ----------------------------------------------------------------------
class _InlineExecutor:
    """Runs each submission at once, on the submitting thread."""

    def submit(self, fn, *args):
        fn(*args)

    def shutdown(self, wait=True):
        pass


@pytest.fixture
def blocked_jobs(monkeypatch):
    """Jobs whose run waits for the returned event before running."""
    release = threading.Event()
    real = run_scenario

    def _blocked(*args, **kwargs):
        assert release.wait(timeout=60)
        return real(*args, **kwargs)

    monkeypatch.setattr("repro.service.jobs.run_scenario", _blocked)
    yield release
    release.set()


def _until(predicate, timeout=30.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.01)


class TestPushedJobPath:
    def test_stream_ends_without_sleeping(self, blocked_jobs, monkeypatch):
        """A stream open while its job runs is woken by the job's
        events; the loop never sleeps to look for them."""

        async def _no_sleep(*_args, **_kwargs):
            raise AssertionError("the event stream slept")

        with ServerThread() as srv:
            client = ServiceClient(srv.url)
            job = client.submit(spec=_tiny_spec_dict("pushed"))
            stream = client.events(job["id"])
            assert next(stream)["state"] == "queued"
            monkeypatch.setattr("repro.service.server.asyncio.sleep", _no_sleep)
            time.sleep(0.2)  # longer than any sleep begun before the patch
            blocked_jobs.set()
            rest = list(stream)
        assert rest[-1]["type"] == "state" and rest[-1]["state"] == "done"
        assert [e["seq"] for e in rest] == list(range(1, len(rest) + 1))

    def test_streams_leave_no_subscriber(self, blocked_jobs, monkeypatch):
        subscribed = []
        real_subscribe = Job.subscribe

        def _subscribe(job, subscriber):
            subscribed.append(subscriber)
            real_subscribe(job, subscriber)

        monkeypatch.setattr(Job, "subscribe", _subscribe)
        with ServerThread() as srv:
            client = ServiceClient(srv.url)
            job_id = client.submit(spec=_tiny_spec_dict("subs"))["id"]
            job = srv.manager.job(job_id)
            # A replay subscribes to nothing.
            assert [e["state"] for e in client.events(job_id, follow=False)]
            assert subscribed == [] and job._subscribers == ()
            # A client that leaves mid-stream.
            with urlopen(f"{srv.url}/jobs/{job_id}/events") as response:
                assert json.loads(response.readline())["state"] == "queued"
                _until(lambda: len(job._subscribers) == 1)
            blocked_jobs.set()
            assert job.wait(timeout=60) and job.state == "done"
            _until(lambda: job._subscribers == ())
            # A stream that reads to the end.
            events = list(client.events(job_id))
            assert events[-1]["state"] == "done"
            assert job._subscribers == ()
        assert len(subscribed) == 2

    def test_submit_answers_queued_before_the_job_starts(self):
        with ServerThread() as srv:
            srv.manager._executor = _InlineExecutor()
            client = ServiceClient(srv.url)
            job = client.submit(spec=_tiny_spec_dict("answered"))
            # The inline executor ran the job before the client read
            # anything else, yet the 201 was written before it started.
            assert job["state"] == "queued"
            assert client.job(job["id"])["state"] == "done"

    def test_dropped_submit_still_runs_its_job(self, monkeypatch):
        real_send_json = server_module.send_json

        async def _drop_201(writer, status, payload):
            if status == 201:
                raise ConnectionResetError("client went away")
            await real_send_json(writer, status, payload)

        monkeypatch.setattr("repro.service.server.send_json", _drop_201)
        with ServerThread() as srv:
            srv.manager._executor = _InlineExecutor()
            body = json.dumps({"spec": _tiny_spec_dict("dropped")}).encode()
            with socket.create_connection(
                (srv.server.host, srv.server.port), timeout=10
            ) as sock:
                sock.sendall(
                    b"POST /jobs HTTP/1.1\r\nHost: x\r\n"
                    b"Content-Length: %d\r\n\r\n" % len(body) + body
                )
            _until(lambda: srv.manager.jobs())
            (job,) = srv.manager.jobs()
            assert job.wait(timeout=60) and job.state == "done"

    def test_closed_loop_subscriber_does_not_fail_the_job(self):
        loop = asyncio.new_event_loop()
        loop.close()
        manager = JobManager()
        job = manager.create(ScenarioSpec.from_dict(_tiny_spec_dict("gone")))
        job.subscribe(server_module._Wakeup(loop))
        manager.start(job)
        manager.shutdown(wait=True)
        assert job.state == "done", job.error

    def test_export_renders_without_a_temp_dir(
        self, service, smoke_run, tmp_path, monkeypatch
    ):
        _srv, client = service
        job_id = smoke_run["jobs"][0]["id"]
        records = outcome_records(smoke_run["local"])
        local_csv = export_records(records, tmp_path / "local.csv", "csv")

        def _no_temp_dir(*_args, **_kwargs):
            raise AssertionError("export used a temporary directory")

        monkeypatch.setattr("tempfile.TemporaryDirectory", _no_temp_dir)
        assert client.export(job_id, "csv") == local_csv.read_bytes()
        npz_path = tmp_path / "remote.npz"
        npz_path.write_bytes(client.export(job_id, "npz"))
        assert load_npz(npz_path) == records
