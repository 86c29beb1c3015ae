"""Job-record persistence.

With a :class:`DiskBackend`, the service writes one record per job
(spec, state, telemetry, result) as a JSON file, so jobs survive a
restart; without one, a job lives only in its
:class:`~repro.service.jobs.JobManager`.

Records are plain dicts of JSON types, but for ``result``: the job's
result payload already encoded as JSON bytes (``None`` until the job
is done).  The :class:`~repro.service.jobs.JobManager` encodes it once,
at the job's terminal save, and never again: :func:`json_with_result`
splices those bytes into a disk record or a ``/result`` body as they
are.  A record holds no export rows; exports are derived from the
result (:func:`~repro.service.export.payload_records`).
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, List, Optional

from ..store import atomic_write

__all__ = ["json_with_result", "DiskBackend"]


def json_with_result(
    fields: Dict[str, object], result: Optional[bytes], sort_keys: bool = False
) -> bytes:
    """``fields`` as a JSON object, plus a ``result`` member holding the
    encoded ``result`` bytes as they are (``null`` for ``None``)."""
    head = json.dumps(fields, sort_keys=sort_keys).encode()
    member = b'"result": ' + (b"null" if result is None else result)
    return (head[:-1] + b", " if fields else b"{") + member + b"}"


class DiskBackend:
    """JSON-file-per-job persistence under one directory.

    Each save replaces one file through :func:`~repro.store.atomic_write`
    (so the job worker's saves and request threads' loads need no lock),
    and a failed write raises.  Corrupt or foreign files read as missing but are
    never unlinked: job records are results, not a cache, and disk rot
    must not take the service down.
    """

    def __init__(self, directory: os.PathLike):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def _path(self, job_id: str) -> Path:
        return self.directory / f"{job_id}.json"

    def save(self, record: Dict[str, object]) -> None:
        """Insert or replace the record (keyed by ``record['id']``)."""
        fields = {key: value for key, value in record.items() if key != "result"}
        atomic_write(
            self._path(str(record["id"])),
            json_with_result(fields, record.get("result")),
        )

    def load(self, job_id: str) -> Optional[Dict[str, object]]:
        """The saved record, its ``result`` encoded again as bytes.

        A decoded payload keeps its key order, so the bytes are the
        ones the save spliced in.  A record saved with ``export_records``
        (the layout before exports were derived) loads too; the job
        ignores that key.
        """
        path = self._path(job_id)
        if not path.exists():
            return None
        try:
            record = json.loads(path.read_text())
            if not isinstance(record, dict) or record.get("id") != job_id:
                raise ValueError("foreign job record")
        except Exception:
            return None
        if record.get("result") is not None:
            record["result"] = json.dumps(record["result"]).encode()
        return record

    def records(self) -> List[Dict[str, object]]:
        """Every readable record, each file parsed once, sorted by the
        job's ``sequence`` (creation order)."""
        records = []
        for path in sorted(self.directory.glob("*.json")):
            record = self.load(path.stem)
            if record is not None:
                records.append(record)
        records.sort(key=lambda record: record.get("sequence", 0))
        return records
