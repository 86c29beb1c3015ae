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

:func:`outcome_records` flattens a
:class:`~repro.harness.scenarios.ScenarioOutcome` (grid rows or figure
records) and the service's export endpoint, the ``repro export`` CLI
and the round-trip tests all share it.  :func:`render_records` renders
either format in memory; the endpoint serves its bytes and
:func:`export_records` writes them, so a ``repro export`` file and an
``/export`` body are the same bytes (the npz's zip timestamps aside).
"""

from __future__ import annotations

import io
import math
import os
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..engine.result import RunResult
from ..harness.io import render_csv
from ..harness.scenarios import ScenarioOutcome

__all__ = [
    "EXPORT_FORMATS",
    "result_record",
    "outcome_records",
    "render_npz",
    "records_to_npz",
    "load_npz",
    "render_records",
    "export_records",
    "export_outcome",
]

EXPORT_FORMATS = ("npz", "csv")


def result_record(
    result: RunResult, group: Optional[str] = None
) -> Dict[str, object]:
    """One cell's flat export row (simulation counters + schedule facts)."""
    record: Dict[str, object] = {}
    if group is not None:
        record["group"] = group
    record.update(result.simulation.as_dict())
    record["mii"] = result.schedule.mii
    record["stage_count"] = result.schedule.stage_count
    record["communications"] = result.schedule.n_communications
    return record


def outcome_records(outcome: ScenarioOutcome) -> List[Dict[str, object]]:
    """Flatten a scenario outcome into export rows, enumeration order.

    Figure outcomes already carry per-kernel records (with the
    ``norm_*`` columns the figures add); grid outcomes are flattened
    through :func:`result_record` with the group label attached.
    """
    if outcome.figure is not None:
        return [dict(record) for record in outcome.figure.records]
    return [
        result_record(result, group=label)
        for label, _threshold, _kernel, result in outcome.iter_rows()
    ]


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
