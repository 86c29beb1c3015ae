"""The experiment server: routes, streaming, lifecycles.

:class:`ExperimentServer` glues the pieces together: the stdlib's
:class:`~http.server.ThreadingHTTPServer` parses each request on a
thread of its own, the :class:`~repro.service.jobs.JobManager` owns the
persistent grids and runs the work, and :class:`_Handler` maps URLs to
both.  No request thread runs experiment work — jobs execute on the
manager's worker thread — and no answer waits on a timer:

* ``POST /jobs`` saves and registers the job, writes its ``201``
  (which therefore always reads ``queued``) and only then hands the job
  to the worker, so the answer never waits for the GIL behind the job
  it announces.
* The one long-lived response shape, the NDJSON event stream, waits on
  its job's :attr:`~repro.service.jobs.Job.condition`, which every
  event append notifies, and each wakeup sends every fresh event with
  one write.
* ``/result`` sends the bytes the job's terminal save encoded, spliced
  into its JSON body without encoding the payload again
  (:func:`~repro.service.backend.json_with_result`).
* Exports are derived from those bytes and rendered in memory, on the
  request's own thread (:func:`~repro.service.export.render_result`).

Every answer, the stdlib's own parse errors included, is one
``Connection: close`` response on an HTTP/1.1 status line with a JSON
body (NDJSON for an event stream), so one connection carries one
request and a stream ends when the server closes it.  A socket read or
write that waits :data:`REQUEST_TIMEOUT_S` drops its connection, so a
client that stalls mid-request cannot hold a request thread for good.

Endpoints::

    GET  /health               liveness probe
    GET  /scenarios            the scenario registry (shared serializer)
    GET  /stats                service-wide job/grid/store telemetry
    POST /jobs                 submit {"scenario": name | "spec": {...},
                               "steady": ...}
    GET  /jobs                 every job, in submission order
    GET  /jobs/<id>            one job's summary
    GET  /jobs/<id>/result     the result payload (409 until terminal)
    GET  /jobs/<id>/events     NDJSON progress stream (?cursor=N to
                               resume, ?follow=0 to replay-and-close)
    GET  /jobs/<id>/export     artifact download (?format=npz|csv)

Two entry points: :func:`run_server` blocks a process on the service
(the ``repro serve`` CLI), and :class:`ServerThread` runs one on an
ephemeral port inside a daemon thread (the end-to-end tests and any
embedding caller).
"""

from __future__ import annotations

import json
import threading
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional
from urllib.parse import parse_qs, unquote, urlsplit

from ..harness.scenarios import scenario_listing
from .backend import json_with_result
from .export import EXPORT_FORMATS, render_result
from .jobs import Job, JobManager

__all__ = [
    "REQUEST_TIMEOUT_S",
    "ExperimentServer",
    "HttpError",
    "ServerThread",
    "run_server",
]

#: Upper bound on request bodies (a scenario spec is a few KB; anything
#: approaching this is not a job submission).
MAX_BODY_BYTES = 8 * 1024 * 1024

#: Upper bound on the header block, total.  The stdlib reads up to 100
#: header lines of 64 KiB each before this bound is checked.
MAX_HEADER_BYTES = 64 * 1024

#: Seconds one socket read or write may wait before the request's
#: connection is dropped.  An event stream waits on its job, not on the
#: socket, so a stream outlives it.
REQUEST_TIMEOUT_S = 60.0

_EXPORT_CONTENT_TYPES = {"npz": "application/octet-stream", "csv": "text/csv"}

#: Seconds between a :class:`ServerThread` listener's checks for a stop
#: request; the stdlib's 0.5 s default would make each exit wait that long.
_STOP_POLL_S = 0.02


class HttpError(Exception):
    """A request the server answers with a non-200 JSON error body."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.message = message


def _head(
    status: int, content_type: str, content_length: Optional[int]
) -> bytes:
    lines = [
        f"HTTP/1.1 {status} {HTTPStatus(status).phrase}",
        f"Content-Type: {content_type}",
        "Connection: close",
    ]
    if content_length is not None:
        lines.append(f"Content-Length: {content_length}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("ascii")


class _Handler(BaseHTTPRequestHandler):
    """One request: the stdlib parses it, :meth:`_dispatch` answers it.

    The stdlib's ``protocol_version`` stays ``HTTP/1.0``, so it never
    keeps a connection open for a second request and never sends an
    interim ``100 Continue``: every byte on the wire comes from
    :meth:`_send_bytes` or :meth:`_stream_events`.
    """

    server: "ExperimentServer"
    #: Small writes (event lines) leave at once, not behind an ACK.
    disable_nagle_algorithm = True

    @property
    def timeout(self) -> float:
        """The socket timeout the stdlib sets on each connection (the
        stdlib drops a connection whose request line or headers time
        out)."""
        return REQUEST_TIMEOUT_S

    def handle(self) -> None:
        try:
            super().handle()
        except ConnectionError:
            pass  # peer went away mid-request; nothing left to tell it

    def log_message(self, format: str, *args: object) -> None:
        """No access log."""

    def parse_request(self) -> bool:
        if not super().parse_request():
            return False
        # The stdlib serves a request line without a version as
        # HTTP/0.9: a bare body with no status line.
        if self.request_version == "HTTP/0.9":
            self.send_error(400, f"malformed request line {self.requestline!r}")
            return False
        # The stdlib's parser files a line without a colon as a defect
        # and reads every later line as body.
        if self.headers.defects:
            self.send_error(400, "malformed header line")
            return False
        header_bytes = sum(
            len(name) + len(value) + 4 for name, value in self.headers.items()
        )
        if header_bytes > MAX_HEADER_BYTES:
            self.send_error(431, "header block too large")
            return False
        return True

    def send_error(
        self, code: int, message: Optional[str] = None,
        explain: Optional[str] = None,
    ) -> None:
        """The stdlib's parse errors, answered like every other error."""
        self._send_json(code, {"error": message or HTTPStatus(code).phrase})

    def do_GET(self) -> None:
        try:
            split = urlsplit(self.path)
            # A repeated query parameter counts by its first value.
            self.query = {
                key: values[0] for key, values in parse_qs(split.query).items()
            }
            self.body = self._read_body()
            self._dispatch(unquote(split.path))
        except HttpError as exc:
            self._send_json(exc.status, {"error": exc.message})
        except (ConnectionError, TimeoutError):
            raise  # the stdlib drops a timed-out connection unanswered
        except Exception as exc:  # a handler bug still gets an answer
            self._send_json(500, {"error": f"{type(exc).__name__}: {exc}"})

    do_POST = do_GET

    # ------------------------------------------------------------------
    # Request
    # ------------------------------------------------------------------
    def _read_body(self) -> bytes:
        length_text = self.headers.get("Content-Length")
        if length_text is None:
            if self.headers.get("Transfer-Encoding"):
                raise HttpError(
                    501, "chunked request bodies are not supported; "
                    "send Content-Length"
                )
            return b""
        try:
            length = int(length_text)
        except ValueError:
            raise HttpError(400, f"bad Content-Length {length_text!r}")
        if length < 0 or length > MAX_BODY_BYTES:
            raise HttpError(413, "request body too large")
        body = self.rfile.read(length)
        if len(body) < length:
            raise HttpError(400, "connection closed inside body")
        return body

    def _json_body(self) -> object:
        """The body parsed as JSON (400 on syntax errors, not 500)."""
        if not self.body:
            raise HttpError(400, "request body must be JSON, got nothing")
        try:
            return json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise HttpError(400, f"request body is not valid JSON: {exc}")

    # ------------------------------------------------------------------
    # Answers
    # ------------------------------------------------------------------
    def _send_bytes(self, status: int, body: bytes, content_type: str) -> None:
        """One complete fixed-length response, in one write."""
        self.wfile.write(_head(status, content_type, len(body)) + body)

    def _send_json(self, status: int, payload: object) -> None:
        """One complete JSON response (sorted keys: byte-stable output)."""
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self._send_bytes(status, body, "application/json")

    # ------------------------------------------------------------------
    # Routes
    # ------------------------------------------------------------------
    def _dispatch(self, route: str) -> None:
        manager = self.server.manager
        path = route.rstrip("/") or "/"
        method = self.command
        if path == "/health" and method == "GET":
            self._send_json(200, {"ok": True})
            return
        if path == "/scenarios" and method == "GET":
            self._send_json(200, scenario_listing())
            return
        if path == "/stats" and method == "GET":
            self._send_json(200, manager.stats())
            return
        if path == "/jobs" and method == "POST":
            try:
                spec, overrides = manager.parse_payload(self._json_body())
            except (ValueError, KeyError) as exc:
                raise HttpError(400, str(exc))
            job = manager.create(spec, overrides)
            try:
                self._send_json(201, job.describe())
            finally:
                # Even when the client went away: a saved job must run.
                manager.start(job)
            return
        if path == "/jobs" and method == "GET":
            self._send_json(
                200, [job.describe() for job in manager.jobs()]
            )
            return
        if path.startswith("/jobs/"):
            parts = path.split("/")[2:]  # ["<id>"] or ["<id>", "<verb>"]
            if len(parts) in (1, 2) and method == "GET":
                try:
                    job = manager.job(parts[0])
                except KeyError as exc:
                    raise HttpError(404, str(exc).strip('"'))
                verb = parts[1] if len(parts) == 2 else None
                if verb is None:
                    self._send_json(200, job.describe())
                    return
                if verb == "result":
                    self._send_result(job)
                    return
                if verb == "events":
                    self._stream_events(job)
                    return
                if verb == "export":
                    self._send_export(job)
                    return
        raise HttpError(404, f"no route for {method} {route}")

    # ------------------------------------------------------------------
    # Job endpoints
    # ------------------------------------------------------------------
    def _send_result(self, job: Job) -> None:
        if not job.is_terminal:
            raise HttpError(
                409,
                f"job {job.id} is {job.state}; the result exists only "
                f"once the job is done or failed",
            )
        fields = {
            "id": job.id,
            "state": job.state,
            "error": job.error,
            "telemetry": job.telemetry,
        }
        body = json_with_result(fields, job.result_json, sort_keys=True)
        self._send_bytes(200, body, "application/json")

    def _stream_events(self, job: Job) -> None:
        try:
            cursor = int(self.query.get("cursor", "0"))
        except ValueError:
            raise HttpError(400, "query parameter 'cursor' must be an integer")
        if cursor < 0:
            raise HttpError(
                400, f"query parameter 'cursor' must be >= 0, got {cursor}"
            )
        follow = self.query.get("follow", "1") not in ("0", "false")
        server = self.server
        self.wfile.write(_head(200, "application/x-ndjson", None))
        while True:
            with job.condition:
                if follow:
                    job.condition.wait_for(
                        lambda: len(job.events) > cursor
                        or job.is_terminal
                        or server.closing
                    )
                events, cursor, finished = job.events_since(cursor)
            if events:
                self.wfile.write(b"".join(
                    json.dumps(event, sort_keys=True).encode("utf-8") + b"\n"
                    for event in events
                ))
            if finished or not follow or server.closing:
                return

    def _send_export(self, job: Job) -> None:
        fmt = self.query.get("format", "npz")
        if fmt not in EXPORT_FORMATS:
            raise HttpError(
                400,
                f"unknown export format {fmt!r}; "
                f"choose from {EXPORT_FORMATS}",
            )
        if not job.is_terminal:
            raise HttpError(
                409, f"job {job.id} is {job.state}; nothing to export yet"
            )
        if job.result_json is None:
            raise HttpError(409, f"job {job.id} {job.state} without a result")
        body = render_result(job.result_json, fmt)
        self._send_bytes(200, body, _EXPORT_CONTENT_TYPES[fmt])


class ExperimentServer(ThreadingHTTPServer):
    """One service instance: a job manager behind a threaded listener.

    The listener binds when the server is built, so ``port=0`` resolves
    to the real port at once.  Request threads are daemons.
    """

    def __init__(
        self,
        manager: Optional[JobManager] = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.manager = manager if manager is not None else JobManager()
        #: Set by :meth:`close_streams`; an open event stream then ends.
        self.closing = False
        super().__init__((host, port), _Handler)
        self.host = host
        self.port = self.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def close_streams(self) -> None:
        """End every open event stream after its next write."""
        self.closing = True
        for job in self.manager.jobs():
            with job.condition:
                job.condition.notify_all()


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def run_server(
    host: str = "127.0.0.1",
    port: int = 8642,
    manager: Optional[JobManager] = None,
) -> None:
    """Run the service until interrupted (the ``repro serve`` body)."""
    server = ExperimentServer(manager=manager, host=host, port=port)
    try:
        print(f"repro service listening on {server.url}", flush=True)
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        server.manager.shutdown(wait=False)


class ServerThread:
    """A live service on an ephemeral port, inside a daemon thread.

    The test- and embedding-facing entry::

        with ServerThread() as service:
            client = ServiceClient(service.url)
            ...

    ``__enter__`` binds the listener (so ``.url`` is ready) and starts
    serving; ``__exit__`` stops the listener, ends every open event
    stream, closes the socket and joins the thread.
    """

    def __init__(
        self,
        manager: Optional[JobManager] = None,
        host: str = "127.0.0.1",
    ):
        self.manager = manager if manager is not None else JobManager()
        self.host = host
        self.server: Optional[ExperimentServer] = None
        self._thread: Optional[threading.Thread] = None

    @property
    def url(self) -> str:
        return self.server.url

    def __enter__(self) -> "ServerThread":
        self.server = ExperimentServer(self.manager, self.host, port=0)
        self._thread = threading.Thread(
            target=self.server.serve_forever,
            args=(_STOP_POLL_S,),
            name="repro-serve",
            daemon=True,
        )
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.server.shutdown()
        self.server.close_streams()
        self.server.server_close()
        self._thread.join(timeout=10)
        self.manager.shutdown(wait=False)
