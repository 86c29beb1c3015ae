"""The asyncio experiment server: routes, streaming, lifecycles.

:class:`ExperimentServer` glues the pieces together: the
:mod:`~repro.service.http` layer parses requests off asyncio streams,
the :class:`~repro.service.jobs.JobManager` owns the persistent grids
and runs the work, and this module maps URLs to both.  The event loop
never blocks on experiment work — jobs execute on the manager's worker
thread — and nothing on it polls:

* ``POST /jobs`` saves and registers the job, writes its ``201``
  (which therefore always reads ``queued``) and only then hands the job
  to the worker, so the answer never waits for the GIL behind the job
  it announces.
* The one long-lived response shape, the NDJSON event stream,
  subscribes to its job (:meth:`~repro.service.jobs.Job.subscribe`).
  The worker's event appends wake the stream's handler through
  ``loop.call_soon_threadsafe``, at most one pending wakeup at a time,
  and each wakeup sends every fresh event with one write and one drain
  (:class:`_Wakeup`).
* ``/result`` sends the bytes the job's terminal save encoded, spliced
  into its JSON body without encoding the payload again
  (:func:`~repro.service.backend.json_with_result`).
* Exports are derived from those bytes and rendered in memory, off the
  loop (:func:`~repro.service.export.render_result`).

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

import asyncio
import threading
from typing import Optional

from ..harness.scenarios import scenario_listing
from .backend import json_with_result
from .export import EXPORT_FORMATS, render_result
from .http import (
    HttpError,
    HttpRequest,
    read_request,
    send_bytes,
    send_json,
    send_ndjson,
    start_ndjson_stream,
)
from .jobs import Job, JobManager

__all__ = ["ExperimentServer", "ServerThread", "run_server"]

_EXPORT_CONTENT_TYPES = {"npz": "application/octet-stream", "csv": "text/csv"}


class ExperimentServer:
    """One service instance: a job manager behind an asyncio listener."""

    def __init__(
        self,
        manager: Optional[JobManager] = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.manager = manager if manager is not None else JobManager()
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the listener (resolving ``port=0`` to the real port)."""
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.host, port=self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        try:
            try:
                request = await read_request(reader)
                if request is None:
                    return
                await self._dispatch(request, writer)
            except HttpError as exc:
                await send_json(
                    writer, exc.status, {"error": exc.message}
                )
            except (ConnectionError, asyncio.CancelledError):
                raise
            except Exception as exc:  # a handler bug must not kill the loop
                await send_json(
                    writer,
                    500,
                    {"error": f"{type(exc).__name__}: {exc}"},
                )
        except (ConnectionError, asyncio.CancelledError):
            pass  # peer went away mid-response; nothing left to tell it
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                # CancelledError lands here when the server is torn down
                # mid-connection; the transport is going away regardless.
                pass

    async def _dispatch(self, request: HttpRequest, writer) -> None:
        path = request.path.rstrip("/") or "/"
        method = request.method
        if path == "/health" and method == "GET":
            await send_json(writer, 200, {"ok": True})
            return
        if path == "/scenarios" and method == "GET":
            await send_json(writer, 200, scenario_listing())
            return
        if path == "/stats" and method == "GET":
            await send_json(writer, 200, self.manager.stats())
            return
        if path == "/jobs" and method == "POST":
            try:
                spec, overrides = self.manager.parse_payload(request.json())
            except (ValueError, KeyError) as exc:
                raise HttpError(400, str(exc))
            job = self.manager.create(spec, overrides)
            try:
                await send_json(writer, 201, job.describe())
            finally:
                # Even when the client went away: a saved job must run.
                self.manager.start(job)
            return
        if path == "/jobs" and method == "GET":
            await send_json(
                writer, 200, [job.describe() for job in self.manager.jobs()]
            )
            return
        if path.startswith("/jobs/"):
            parts = path.split("/")[2:]  # ["<id>"] or ["<id>", "<verb>"]
            if len(parts) in (1, 2) and method == "GET":
                try:
                    job = self.manager.job(parts[0])
                except KeyError as exc:
                    raise HttpError(404, str(exc).strip('"'))
                verb = parts[1] if len(parts) == 2 else None
                if verb is None:
                    await send_json(writer, 200, job.describe())
                    return
                if verb == "result":
                    await self._send_result(job, writer)
                    return
                if verb == "events":
                    await self._stream_events(job, request, writer)
                    return
                if verb == "export":
                    await self._send_export(job, request, writer)
                    return
        raise HttpError(404, f"no route for {method} {request.path}")

    # ------------------------------------------------------------------
    # Job endpoints
    # ------------------------------------------------------------------
    async def _send_result(self, job: Job, writer) -> None:
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
        await send_bytes(writer, 200, body, "application/json")

    async def _stream_events(
        self, job: Job, request: HttpRequest, writer
    ) -> None:
        try:
            cursor = int(request.query_value("cursor", "0"))
        except ValueError:
            raise HttpError(400, "query parameter 'cursor' must be an integer")
        if cursor < 0:
            raise HttpError(
                400, f"query parameter 'cursor' must be >= 0, got {cursor}"
            )
        follow = request.query_value("follow", "1") not in ("0", "false")
        start_ndjson_stream(writer)
        if not follow:
            await send_ndjson(writer, job.events_since(cursor)[0])
            return
        wakeup = _Wakeup(asyncio.get_running_loop())
        job.subscribe(wakeup)
        try:
            while True:
                wakeup.clear()
                events, cursor, finished = job.events_since(cursor)
                await send_ndjson(writer, events)
                if finished:
                    return
                await wakeup.event.wait()
        finally:
            job.unsubscribe(wakeup)

    async def _send_export(
        self, job: Job, request: HttpRequest, writer
    ) -> None:
        fmt = request.query_value("format", "npz")
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
        # Decoding and rendering (an npz compresses) run off the loop.
        body = await asyncio.get_running_loop().run_in_executor(
            None, render_result, job.result_json, fmt
        )
        await send_bytes(writer, 200, body, _EXPORT_CONTENT_TYPES[fmt])


class _Wakeup:
    """A job subscriber that sets :attr:`event` on ``loop``.

    Called on the job's one emitting thread, it schedules a set only
    when none is pending since the stream's last :meth:`clear`, so a
    burst of events costs the loop one wakeup, not one per event.  The
    unlocked flag can only add a spurious wakeup, never lose one: a
    set still pending when :meth:`clear` runs lands after it.  A closed
    loop means the stream is gone, and the job must not fail for that.
    """

    def __init__(self, loop: asyncio.AbstractEventLoop):
        self.loop = loop
        self.event = asyncio.Event()
        self.pending = False

    def __call__(self) -> None:
        if not self.pending:
            self.pending = True
            try:
                self.loop.call_soon_threadsafe(self.event.set)
            except RuntimeError:
                pass

    def clear(self) -> None:
        """Re-arm before a read (on the loop): later events wake it."""
        self.pending = False
        self.event.clear()


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def run_server(
    host: str = "127.0.0.1",
    port: int = 8642,
    manager: Optional[JobManager] = None,
    announce=print,
) -> None:
    """Run the service until interrupted (the ``repro serve`` body)."""
    server = ExperimentServer(manager=manager, host=host, port=port)

    async def _main() -> None:
        await server.start()
        if announce is not None:
            announce(f"repro service listening on {server.url}")
        await server.serve_forever()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        pass
    finally:
        server.manager.shutdown(wait=False)


class ServerThread:
    """A live service on an ephemeral port, inside a daemon thread.

    The test- and embedding-facing entry::

        with ServerThread() as service:
            client = ServiceClient(service.url)
            ...

    ``__enter__`` returns once the listener is bound (so ``.url`` is
    ready); ``__exit__`` cancels the loop and joins the thread.
    """

    def __init__(
        self,
        manager: Optional[JobManager] = None,
        host: str = "127.0.0.1",
    ):
        self.server = ExperimentServer(manager=manager, host=host, port=0)
        self.manager = self.server.manager
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._ready = threading.Event()
        self._failure: Optional[BaseException] = None

    @property
    def url(self) -> str:
        return self.server.url

    def __enter__(self) -> "ServerThread":
        self._thread = threading.Thread(
            target=self._run, name="repro-serve", daemon=True
        )
        self._thread.start()
        self._ready.wait(timeout=10)
        if self._failure is not None:
            raise RuntimeError(
                "experiment service failed to start"
            ) from self._failure
        if not self._ready.is_set():
            raise RuntimeError("experiment service did not start in time")
        return self

    def _run(self) -> None:
        self._loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self._loop)

        async def _main() -> None:
            try:
                await self.server.start()
            except BaseException as exc:
                self._failure = exc
                raise
            finally:
                self._ready.set()
            await self.server.serve_forever()

        try:
            self._loop.run_until_complete(_main())
        except (asyncio.CancelledError, RuntimeError):
            pass
        finally:
            self._ready.set()  # never leave __enter__ hanging
            self._loop.close()

    def __exit__(self, *exc_info) -> None:
        if self._loop is not None and self._loop.is_running():
            self._loop.call_soon_threadsafe(
                lambda: [task.cancel() for task in asyncio.all_tasks(self._loop)]
            )
        if self._thread is not None:
            self._thread.join(timeout=10)
        self.manager.shutdown(wait=False)
