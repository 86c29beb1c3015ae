"""End-to-end and unit tests for the experiment service (repro.service).

The expensive part — two ``fig6-smoke`` submissions against one live
server plus the in-process reference run — happens once in a
module-scoped fixture; the tests then assert the service's contract
against it: results bit-identical to ``run_scenario``, and the second
identical job answered from the persistent stage stores.
"""

import gc
import json
import pathlib
import socket
import threading
import time
import tracemalloc
import urllib.error
import urllib.request
from dataclasses import dataclass
from urllib.request import urlopen

import pytest

from repro.cli import main
from repro.harness import scenarios as scenarios_module
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
    ServerThread,
    ServiceClient,
    ServiceError,
    export_records,
    load_npz,
    outcome_records,
    render_records,
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


def _tiny_figure_spec_dict(name="svc-tiny-figure"):
    return ScenarioSpec(
        name=name,
        description="service test figure scenario",
        figure="figure6",
        figure_args=(
            ("bus_counts", (1,)),
            ("bus_latencies", (1,)),
            ("n_clusters", 2),
        ),
        kernels=("tomcatv",),
    ).to_dict()


#: A job record saved before exports were derived from the result: it
#: carries the export rows as ``export_records`` (2-cluster RMCA cells
#: with register communications).
LEGACY_RECORD = (
    pathlib.Path(__file__).parent / "data" / "job_record_with_export_rows.json"
)


@dataclass(frozen=True)
class _FigureArg:
    """A ``figure_args`` entry of a figure spec, as a test input."""

    value: object


@dataclass(frozen=True)
class _GroupMachine:
    """A key of a grid group's machine spec, as a test input."""

    value: object


@pytest.fixture(scope="module")
def service():
    with ServerThread() as srv:
        yield srv, ServiceClient(srv.url, timeout=120.0)


def _raw_answer(srv, request):
    """Send raw request bytes on a connection of their own and read the
    answer until the server closes it: ``(status line, headers, body)``.

    A server that answers before it has read the whole request may
    reset the connection behind its answer; what arrived still counts.
    """
    answer = b""
    with socket.create_connection(
        (srv.server.host, srv.server.port), timeout=10
    ) as sock:
        try:
            sock.sendall(request)
        except (BrokenPipeError, ConnectionResetError):
            pass
        try:
            while chunk := sock.recv(65536):
                answer += chunk
        except ConnectionResetError:
            pass
    head, _sep, body = answer.partition(b"\r\n\r\n")
    status_line, *lines = head.decode("latin-1").split("\r\n")
    headers = {}
    for line in lines:
        name, _sep, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return status_line, headers, body


def _padded_headers(count, size):
    return b"".join(b"X-Pad-%d: %s\r\n" % (i, b"a" * size) for i in range(count))


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
            ("n_clusters", _FigureArg(3)),
            ("bus_counts", _FigureArg("ab")),
            ("bus_latencies", _FigureArg([0])),
            ("memory_bus", _GroupMachine([1, 0])),
            ("memory_bus", _GroupMachine([0, 1])),
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
        elif isinstance(value, _GroupMachine):
            spec["groups"][0]["machine"][key] = value.value
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

    @pytest.mark.parametrize(
        "request_bytes, status",
        [
            (b"HELLO\r\n\r\n", 400),
            (b"GET /health\r\n\r\n", 400),
            (b"GET /health HTTP/2.0\r\n\r\n", 505),
            (b"GET /health HTTP/1.1\r\nX-Pad: %s\r\n\r\n"
             % (b"a" * (64 * 1024 + 1)), 431),
            (b"GET /health HTTP/1.1\r\n%s\r\n"
             % _padded_headers(70, 1000), 431),
            (b"POST /jobs HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
             b"0\r\n\r\n", 501),
            (b"POST /jobs HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n", 413),
            (b"POST /jobs HTTP/1.1\r\nContent-Length: abc\r\n\r\n", 400),
            (b"GET /health HTTP/1.1\r\nNo colon\r\n\r\n", 400),
            (b"GET /%s HTTP/1.1\r\n\r\n" % (b"a" * (64 * 1024 + 1)), 414),
            (b"PUT /jobs HTTP/1.1\r\n\r\n", 501),
            (b"GET /health HTTP/1.1\r\n%s\r\n"
             % _padded_headers(101, 1), 431),
        ],
        ids=[
            "malformed-request-line", "no-version", "http-2",
            "long-header-line", "large-header-block", "chunked-body",
            "huge-content-length", "bad-content-length", "header-without-colon",
            "long-request-line", "unsupported-method", "too-many-header-lines",
        ],
    )
    def test_transport_errors_answer_json_and_close(
        self, service, request_bytes, status
    ):
        srv, _client = service
        status_line, headers, body = _raw_answer(srv, request_bytes)
        assert status_line.startswith(f"HTTP/1.1 {status} ")
        assert headers["connection"] == "close"
        assert headers["content-type"] == "application/json"
        assert int(headers["content-length"]) == len(body)
        assert isinstance(json.loads(body)["error"], str)


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

    @pytest.mark.parametrize(
        "flags", [["--backend", "disk"], ["--backend-dir", "jobs"]],
        ids=["disk-without-dir", "dir-without-disk"],
    )
    def test_serve_backend_flags_need_each_other(self, flags, capsys):
        assert main(["serve", "--port", "0", *flags]) == 2
        assert "need each other" in capsys.readouterr().err

    def test_manager_without_backend_keeps_only_its_jobs(self):
        manager = JobManager()
        job = manager.submit(ScenarioSpec.from_dict(_tiny_spec_dict("kept")))
        manager.shutdown(wait=True)
        assert manager.backend is None
        assert manager.jobs() == [job] and job.state == "done"

    def test_failed_first_save_registers_no_job(self, tmp_path):
        """A job whose record cannot be saved is not registered: no
        ghost ``queued`` job, and the next submission still runs."""

        class FailFirstSave(DiskBackend):
            failed = False

            def save(self, record):
                if not self.failed:
                    self.failed = True
                    raise OSError("disk full")
                super().save(record)

        manager = JobManager(backend=FailFirstSave(tmp_path))
        spec = ScenarioSpec.from_dict(_tiny_spec_dict("ghost"))
        with pytest.raises(OSError, match="disk full"):
            manager.submit(spec)
        assert manager.jobs() == []
        assert manager.stats()["jobs"]["queued"] == 0
        job = manager.submit(spec)
        manager.shutdown(wait=True)
        assert manager.jobs() == [job]
        assert job.state == "done"

    def test_failed_final_save_fails_the_job(self, tmp_path):
        """The terminal state is announced only once its record is
        saved; a failed save ends the job ``failed``, naming the write."""

        class FailSecondSave(DiskBackend):
            saves = 0

            def save(self, record):
                self.saves += 1
                if self.saves == 2:
                    raise OSError("disk full")
                super().save(record)

        backend = FailSecondSave(tmp_path)
        manager = JobManager(backend=backend)
        job = manager.submit(ScenarioSpec.from_dict(_tiny_spec_dict("lost")))
        manager.shutdown(wait=True)
        assert job.state == "failed" and job.finished is not None
        assert "saving the job record failed: OSError: disk full" in job.error
        assert job.events[-1]["error"] == job.error
        assert job.result is None
        assert backend.load(job.id)["state"] == "queued"

    def test_served_jobs_persist_through_disk_backend(self, tmp_path):
        """The file holds the result as JSON; a load hands back the
        bytes the job encoded, and no record carries export rows."""
        manager = JobManager(backend=DiskBackend(tmp_path / "jobs"))
        with ServerThread(manager=manager) as srv:
            client = ServiceClient(srv.url)
            job = client.submit(spec=_tiny_spec_dict("persist"))
            client.wait(job["id"])
        record = DiskBackend(tmp_path / "jobs").load(job["id"])
        assert record["state"] == "done"
        assert record["result"] == manager.job(job["id"]).result_json
        assert json.loads(record["result"])["kind"] == "grid"
        assert record["telemetry"]["grid"]["computed"] == 1
        assert "export_records" not in record
        saved = json.loads((tmp_path / "jobs" / f"{job['id']}.json").read_text())
        assert saved["result"] == json.loads(record["result"])

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

    def test_record_with_export_rows_is_served_unchanged(self, tmp_path):
        """A record that carries ``export_records`` loads after a restart;
        its exports, derived from its result, are the rows it saved."""
        saved = json.loads(LEGACY_RECORD.read_text())
        directory = tmp_path / "jobs"
        directory.mkdir()
        (directory / f"{saved['id']}.json").write_text(
            LEGACY_RECORD.read_text()
        )
        with ServerThread(
            manager=JobManager(backend=DiskBackend(directory))
        ) as srv:
            client = ServiceClient(srv.url)
            (described,) = client.jobs()
            result = client.result(saved["id"])
            csv = client.export(saved["id"], "csv")
            npz = tmp_path / "served.npz"
            npz.write_bytes(client.export(saved["id"], "npz"))
        # A restarted job streams only its terminal event.
        assert described.pop("n_events") == 1
        assert described == {key: saved[key] for key in described}
        assert result == {
            key: saved[key]
            for key in ("id", "state", "error", "result", "telemetry")
        }
        assert csv == render_records(saved["export_records"], "csv")
        expected = tmp_path / "saved.npz"
        expected.write_bytes(render_records(saved["export_records"], "npz"))
        assert load_npz(npz) == load_npz(expected)

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


class TestExportParity:
    @pytest.mark.parametrize(
        "spec", [_tiny_spec_dict("parity-grid"), _tiny_figure_spec_dict()],
        ids=["grid", "figure"],
    )
    def test_export_bodies_are_repro_export_files(
        self, service, spec, tmp_path, monkeypatch, capsys
    ):
        """``/export`` serves what ``repro export`` writes for the same
        scenario: csv bytes equal, npz records equal."""
        _srv, client = service
        scenario = ScenarioSpec.from_dict(spec)
        monkeypatch.setitem(scenarios_module._REGISTRY, scenario.name, scenario)
        job_id = client.submit(scenario=scenario.name)["id"]
        assert client.wait(job_id)["state"] == "done"
        for fmt in ("csv", "npz"):
            assert main(
                ["export", scenario.name, "--format", fmt,
                 "--no-progress", "--out", str(tmp_path / f"local.{fmt}")]
            ) == 0
        capsys.readouterr()
        assert client.export(job_id, "csv") == (
            tmp_path / "local.csv"
        ).read_bytes()
        served = tmp_path / "served.npz"
        served.write_bytes(client.export(job_id, "npz"))
        assert load_npz(served) == load_npz(tmp_path / "local.npz")


class TestRetention:
    #: Store-served jobs measured; fig6-smoke is warm from ``smoke_run``.
    JOBS = 5
    #: Traced memory a finished job may keep, per byte of result JSON
    #: (the encoded result, its events and its telemetry read about
    #: 1.6x; keeping decoded payloads and export rows read about 4.7x).
    BOUND = 2.5

    def test_finished_job_holds_its_result_once(self, service, smoke_run):
        srv, _client = service
        manager = srv.manager
        spec = get_scenario("fig6-smoke")

        def _done_job():
            job = manager.submit(spec)
            assert job.wait(timeout=120) and job.state == "done"
            return job

        tracemalloc.start()
        try:
            # The first traced job is not counted: it also counts each
            # long-lived object it replaces, whose untraced predecessor's
            # free tracemalloc never sees.
            jobs = [_done_job()]
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            jobs += [_done_job() for _ in range(self.JOBS)]
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        per_job = retained / self.JOBS
        encoded = len(jobs[-1].result_json)
        assert per_job <= self.BOUND * encoded, (
            f"a finished fig6-smoke job keeps {per_job / 1024:.0f} KiB "
            f"for a {encoded / 1024:.0f} KiB result"
        )
        for job in jobs:
            # One encoded copy, no decoded payload and no export rows.
            assert type(job.result_json) is bytes
            assert job.record()["result"] is job.result_json
            assert not {"result", "export_records"} & set(vars(job))
            assert "export_records" not in job.record()


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


def _record_waits(monkeypatch, job):
    """The timeout of every later wait on ``job.condition``."""
    timeouts = []
    real_wait = job.condition.wait

    def _wait(timeout=None):
        timeouts.append(timeout)
        return real_wait(timeout)

    monkeypatch.setattr(job.condition, "wait", _wait)
    return timeouts


class TestPushedJobPath:
    def test_stream_waits_without_a_timeout(self, blocked_jobs, monkeypatch):
        """A stream open while its job runs waits on the job's condition
        with no timeout: only the job's events wake it."""
        with ServerThread() as srv:
            client = ServiceClient(srv.url)
            job = client.submit(spec=_tiny_spec_dict("pushed"))
            timeouts = _record_waits(monkeypatch, srv.manager.job(job["id"]))
            stream = client.events(job["id"])
            assert next(stream)["state"] == "queued"
            _until(lambda: timeouts)
            blocked_jobs.set()
            rest = list(stream)
        assert set(timeouts) == {None}
        assert rest[-1]["type"] == "state" and rest[-1]["state"] == "done"
        assert [e["seq"] for e in rest] == list(range(1, len(rest) + 1))

    def test_streams_leave_no_waiter(self, blocked_jobs, monkeypatch):
        with ServerThread() as srv:
            client = ServiceClient(srv.url)
            job_id = client.submit(spec=_tiny_spec_dict("waiters"))["id"]
            job = srv.manager.job(job_id)
            timeouts = _record_waits(monkeypatch, job)
            # A replay never waits.
            assert [e["state"] for e in client.events(job_id, follow=False)]
            assert timeouts == []
            # A client that leaves mid-stream.
            with urlopen(f"{srv.url}/jobs/{job_id}/events") as response:
                assert json.loads(response.readline())["state"] == "queued"
                _until(lambda: len(job.condition._waiters) == 1)
            blocked_jobs.set()
            assert job.wait(timeout=60) and job.state == "done"
            _until(lambda: not job.condition._waiters)
            # A stream that reads to the end.
            events = list(client.events(job_id))
            assert events[-1]["state"] == "done"
            assert not job.condition._waiters

    def test_submit_answers_queued_before_the_job_starts(self):
        with ServerThread() as srv:
            srv.manager._executor = _InlineExecutor()
            client = ServiceClient(srv.url)
            job = client.submit(spec=_tiny_spec_dict("answered"))
            # The inline executor runs the job on the request's thread,
            # yet the 201 was written before it started.
            assert job["state"] == "queued"
            assert srv.manager.job(job["id"]).wait(timeout=60)
            assert client.job(job["id"])["state"] == "done"

    def test_dropped_submit_still_runs_its_job(self, monkeypatch):
        handler = server_module._Handler
        real_send_json = handler._send_json

        def _drop_201(self, status, payload):
            if status == 201:
                raise ConnectionResetError("client went away")
            real_send_json(self, status, payload)

        monkeypatch.setattr(handler, "_send_json", _drop_201)
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


# ----------------------------------------------------------------------
# Request timeout: a stalled client cannot hold a request thread
# ----------------------------------------------------------------------
@pytest.fixture
def short_timeout(monkeypatch):
    monkeypatch.setattr(server_module, "REQUEST_TIMEOUT_S", 0.2)


class TestRequestTimeout:
    def test_idle_connection_is_closed(self, short_timeout):
        with ServerThread() as srv:
            with socket.create_connection(
                (srv.server.host, srv.server.port), timeout=10
            ) as sock:
                start = time.monotonic()
                assert sock.recv(65536) == b""  # closed, unanswered
                assert time.monotonic() - start < 5

    def test_body_cut_short_is_closed_without_an_answer(self, short_timeout):
        with ServerThread() as srv:
            request = b'POST /jobs HTTP/1.1\r\nContent-Length: 10\r\n\r\n{"a'
            assert _raw_answer(srv, request) == ("", {}, b"")
            assert srv.manager.jobs() == []

    def test_stream_outlives_the_timeout(self, short_timeout, blocked_jobs):
        """A stream waits on its job, not on the socket: a job slower
        than the timeout still streams every event, in order."""
        with ServerThread() as srv:
            client = ServiceClient(srv.url)
            job = client.submit(spec=_tiny_spec_dict("slow"))
            stream = client.events(job["id"])
            assert next(stream)["state"] == "queued"
            time.sleep(0.6)
            blocked_jobs.set()
            rest = list(stream)
        assert rest[-1]["type"] == "state" and rest[-1]["state"] == "done"
        assert [e["seq"] for e in rest] == list(range(1, len(rest) + 1))
