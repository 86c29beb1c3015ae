"""Result serialization: CSV and JSON export of experiment records.

Figures return per-kernel record dictionaries (see
:class:`~repro.harness.sweep.FigureData`); these helpers persist them so
external tooling (spreadsheets, plotting) can consume the sweeps without
re-running them.
"""

from __future__ import annotations

import csv
import io
import json
import pathlib
from typing import Dict, Iterable, List, Optional, Sequence, Union

from .sweep import FigureData

__all__ = [
    "render_csv",
    "records_to_csv",
    "records_to_json",
    "figure_to_csv",
    "figure_payload",
    "figure_to_json",
    "load_records",
]

PathLike = Union[str, pathlib.Path]


def _fieldnames(records: Sequence[Dict[str, object]]) -> List[str]:
    names: Dict[str, None] = {}
    for record in records:
        for key in record:
            names.setdefault(key, None)
    return list(names)


def render_csv(records: Sequence[Dict[str, object]]) -> bytes:
    """Record dictionaries as UTF-8 CSV bytes (union of keys as the
    header)."""
    if not records:
        raise ValueError("no records to write")
    text = io.StringIO(newline="")
    writer = csv.DictWriter(text, fieldnames=_fieldnames(records))
    writer.writeheader()
    writer.writerows(records)
    return text.getvalue().encode("utf-8")


def records_to_csv(
    records: Sequence[Dict[str, object]], path: PathLike
) -> pathlib.Path:
    """Write :func:`render_csv`'s bytes to ``path``."""
    path = pathlib.Path(path)
    path.write_bytes(render_csv(records))
    return path


def records_to_json(
    records: Sequence[Dict[str, object]], path: PathLike
) -> pathlib.Path:
    """Write record dictionaries as a JSON array."""
    path = pathlib.Path(path)
    path.write_text(json.dumps(list(records), indent=1, sort_keys=True))
    return path


def figure_to_csv(figure: FigureData, path: PathLike) -> pathlib.Path:
    """Persist a figure's per-kernel records as CSV."""
    return records_to_csv(figure.records, path)


def figure_payload(figure: FigureData) -> Dict[str, object]:
    """A figure (title, bars and records) as a JSON-serializable dict.

    The single serialization both :func:`figure_to_json` and the
    experiment service's result payloads use — byte-identical figure
    JSON whichever path produced it.
    """
    return {
        "title": figure.title,
        "bars": [
            {
                "group": bar.group,
                "scheduler": bar.scheduler,
                "threshold": bar.threshold,
                "norm_compute": bar.norm_compute,
                "norm_stall": bar.norm_stall,
                "norm_total": bar.norm_total,
            }
            for bar in figure.bars
        ],
        "records": figure.records,
    }


def figure_to_json(figure: FigureData, path: PathLike) -> pathlib.Path:
    """Persist a figure (title, bars and records) as JSON."""
    path = pathlib.Path(path)
    path.write_text(
        json.dumps(figure_payload(figure), indent=1, sort_keys=True)
    )
    return path


def load_records(path: PathLike) -> List[Dict[str, object]]:
    """Read records back from a CSV or JSON file (by extension)."""
    path = pathlib.Path(path)
    if path.suffix == ".json":
        data = json.loads(path.read_text())
        if isinstance(data, dict):
            return list(data.get("records", []))
        return list(data)
    if path.suffix == ".csv":
        with path.open() as handle:
            return [dict(row) for row in csv.DictReader(handle)]
    raise ValueError(f"unsupported extension {path.suffix!r}")
