"""Quick-look artifact export: npz/csv from any result set.

Every consumer of the experiment stack ends at the same place — a flat
list of per-cell record dictionaries (kernel, machine, scheduler,
threshold, cycle counts, memory counters, and the figures' normalized
columns).  This module turns that list into analysis-ready artifacts
without re-running anything:

* **csv** via :func:`repro.harness.io.render_csv` (spreadsheets,
  pandas);
* **npz** — one named numpy array per column, so a quick-look notebook
  is ``np.load(path)`` away from plotting.  Integer columns stay int64,
  missing values in numeric columns become NaN (promoting the column to
  float64), and everything else is stored as fixed-width unicode — no
  pickled objects, so archives load with ``allow_pickle=False``.

:func:`payload_records` derives the rows from a result payload (the
JSON body :func:`result_payload` builds, which is what the service
keeps of a finished job), and :func:`outcome_records` is that function
over a :class:`~repro.harness.scenarios.ScenarioOutcome`'s payload, so
the service's export endpoint, the ``repro export`` CLI and the
round-trip tests all derive rows one way.  :func:`render_records`
renders either format in memory; the endpoint serves its bytes and
:func:`export_records` writes them, so a ``repro export`` file and an
``/export`` body are the same bytes (the npz's zip timestamps aside).
"""

from __future__ import annotations

import io
import json
import math
import os
from pathlib import Path
from typing import Dict, List, Sequence

import numpy as np

from ..harness.io import figure_payload, render_csv
from ..harness.scenarios import ScenarioOutcome

__all__ = [
    "EXPORT_FORMATS",
    "result_payload",
    "payload_records",
    "outcome_records",
    "render_npz",
    "records_to_npz",
    "load_npz",
    "render_records",
    "render_result",
    "export_records",
    "export_outcome",
]

EXPORT_FORMATS = ("npz", "csv")


def result_payload(outcome: ScenarioOutcome) -> Dict[str, object]:
    """The JSON result body — bit-identical to what the in-process APIs
    produce (``RunResult.canonical()`` rows; the shared figure payload)."""
    if outcome.figure is not None:
        return {"kind": "figure", "figure": figure_payload(outcome.figure)}
    return {
        "kind": "grid",
        "rows": [
            {
                "group": label,
                "threshold": threshold,
                "kernel": kernel,
                "result": result.canonical(),
            }
            for label, threshold, kernel, result in outcome.iter_rows()
        ],
    }


def payload_records(payload: Dict[str, object]) -> List[Dict[str, object]]:
    """A result payload's export rows, in enumeration order.

    Figure payloads already carry per-kernel records (with the
    ``norm_*`` columns the figures add), copied here.  A grid row is
    its group label, the simulation's counters and three schedule
    facts read from the canonical result: ``mii``, ``stage_count``
    (the simulation's ``sc``) and ``communications`` (how many the
    schedule has).  The payload may be decoded JSON or built in
    process; the rows are the same.
    """
    if payload["kind"] == "figure":
        return [dict(record) for record in payload["figure"]["records"]]
    records = []
    for row in payload["rows"]:
        result = row["result"]
        record: Dict[str, object] = {"group": row["group"]}
        record.update(result["simulation"])
        record["mii"] = result["mii"]
        record["stage_count"] = result["simulation"]["sc"]
        record["communications"] = len(result["communications"])
        records.append(record)
    return records


def outcome_records(outcome: ScenarioOutcome) -> List[Dict[str, object]]:
    """Flatten a scenario outcome into export rows, enumeration order."""
    return payload_records(result_payload(outcome))


def _column(values: List[object], key: str) -> np.ndarray:
    """One record column as a dense array, following the typing rule:
    all-int → int64; numeric with floats or missing values → float64
    (``None`` becomes NaN); anything else → fixed-width unicode."""
    numeric = all(
        value is None
        or (isinstance(value, (int, float)) and not isinstance(value, bool))
        for value in values
    )
    if numeric and any(value is not None for value in values):
        if all(isinstance(value, int) for value in values):
            return np.asarray(values, dtype=np.int64)
        return np.asarray(
            [math.nan if value is None else float(value) for value in values],
            dtype=np.float64,
        )
    return np.asarray(
        ["" if value is None else str(value) for value in values],
        dtype=np.str_,
    )


def render_npz(records: Sequence[Dict[str, object]]) -> bytes:
    """Records as compressed npz bytes, one array per column."""
    if not records:
        raise ValueError("no records to export")
    names: Dict[str, None] = {}
    for record in records:
        for key in record:
            names.setdefault(key, None)
    arrays = {
        key: _column([record.get(key) for record in records], key)
        for key in names
    }
    buffer = io.BytesIO()
    np.savez_compressed(buffer, **arrays)
    return buffer.getvalue()


def records_to_npz(
    records: Sequence[Dict[str, object]], path: os.PathLike
) -> Path:
    """Write records as a compressed npz; returns the path written."""
    return export_records(records, path, "npz")


def load_npz(path: os.PathLike) -> List[Dict[str, object]]:
    """Read an exported npz back into record dictionaries."""
    with np.load(Path(path), allow_pickle=False) as archive:
        columns = {key: archive[key].tolist() for key in archive.files}
    if not columns:
        return []
    length = len(next(iter(columns.values())))
    return [
        {key: values[index] for key, values in columns.items()}
        for index in range(length)
    ]


def render_records(
    records: Sequence[Dict[str, object]], format: str
) -> bytes:
    """Records as the bytes of one of :data:`EXPORT_FORMATS`."""
    if format == "npz":
        return render_npz(records)
    if format == "csv":
        return render_csv(records)
    raise ValueError(
        f"unknown export format {format!r}; choose from {EXPORT_FORMATS}"
    )


def render_result(result_json: bytes, format: str) -> bytes:
    """An encoded result payload's rows as :func:`render_records` bytes."""
    return render_records(payload_records(json.loads(result_json)), format)


def export_records(
    records: Sequence[Dict[str, object]], path: os.PathLike, format: str
) -> Path:
    """Write :func:`render_records`' bytes; returns the path written.

    An npz path gets the ``.npz`` suffix ``np.savez`` would give it.
    """
    body = render_records(records, format)
    path = Path(path)
    if format == "npz" and not path.name.endswith(".npz"):
        path = path.with_name(path.name + ".npz")
    path.write_bytes(body)
    return path


def export_outcome(
    outcome: ScenarioOutcome, path: os.PathLike, format: str
) -> Path:
    """Export a scenario outcome's rows as a quick-look artifact."""
    return export_records(outcome_records(outcome), path, format)
