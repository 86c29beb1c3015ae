"""The long-running experiment service.

``repro serve`` turns the experiment stack into a persistent HTTP
service on the stdlib's threaded server: one warm process owns the
:class:`~repro.harness.grid.ExperimentGrid` and its content-addressed
stores (trace, warm-state, per-stage results) across every job it runs,
so the second submission of a scenario — or the first submission of a
*neighbouring* one — reuses address traces and schedule/simulate
products instead of recomputing them the way a fresh CLI process would.

Layering (each module usable on its own):

* :mod:`repro.service.jobs` — the :class:`JobManager` that owns the
  persistent grid and every job, runs jobs on its worker thread and
  publishes per-cell progress events;
* :mod:`repro.service.backend` — :class:`DiskBackend`, which writes
  each job's record to a directory when the manager is given one, so
  jobs survive a restart;
* :mod:`repro.service.server` — the endpoint routing on the stdlib's
  ``http.server`` (:class:`ExperimentServer`, plus the test-friendly
  :class:`ServerThread`);
* :mod:`repro.service.export` — the result payload, the export rows
  derived from it, and npz/csv quick-look artifacts rendered in memory;
* :mod:`repro.service.client` — the stdlib ``urllib`` client behind
  ``repro submit`` and the end-to-end tests.
"""

from .backend import DiskBackend, json_with_result
from .client import ServiceClient, ServiceError
from .export import (
    EXPORT_FORMATS,
    export_outcome,
    export_records,
    load_npz,
    outcome_records,
    payload_records,
    records_to_npz,
    render_records,
    result_payload,
)
from .jobs import Job, JobManager
from .server import ExperimentServer, ServerThread, run_server

__all__ = [
    "DiskBackend",
    "EXPORT_FORMATS",
    "ExperimentServer",
    "Job",
    "JobManager",
    "ServerThread",
    "ServiceClient",
    "ServiceError",
    "export_outcome",
    "export_records",
    "json_with_result",
    "load_npz",
    "outcome_records",
    "payload_records",
    "records_to_npz",
    "render_records",
    "result_payload",
    "run_server",
]
