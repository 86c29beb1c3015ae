"""Minimal HTTP/1.1 layer over asyncio streams.

Just enough HTTP for the experiment service and its stdlib clients, so
tier-1 stays zero-dependency: request line + headers + ``Content-Length``
bodies on the way in; ``Connection: close`` responses (fixed-length JSON
or close-delimited NDJSON streams) on the way out.  One request per
connection — the service's traffic is a handful of API calls and
long-lived event streams, not a static-file benchmark, and the close
semantics keep both the parser and the ``urllib`` client trivial.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from http import HTTPStatus
from typing import Dict, List, Optional, Sequence
from urllib.parse import parse_qs, unquote, urlsplit

__all__ = [
    "HttpError",
    "HttpRequest",
    "read_request",
    "send_json",
    "send_bytes",
    "start_ndjson_stream",
    "send_ndjson",
]

#: Upper bound on request bodies (a scenario spec is a few KB; anything
#: approaching this is not a job submission).
MAX_BODY_BYTES = 8 * 1024 * 1024

#: Upper bound on the header block, total.
MAX_HEADER_BYTES = 64 * 1024


class HttpError(Exception):
    """A request the server answers with a non-200 JSON error body."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.message = message


@dataclass
class HttpRequest:
    """One parsed request: method, split target, headers, raw body."""

    method: str
    target: str
    path: str
    query: Dict[str, List[str]] = field(default_factory=dict)
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def query_value(self, key: str, default: Optional[str] = None) -> Optional[str]:
        values = self.query.get(key)
        return values[0] if values else default

    def json(self) -> object:
        """The body parsed as JSON (400 on syntax errors, not 500)."""
        if not self.body:
            raise HttpError(400, "request body must be JSON, got nothing")
        try:
            return json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise HttpError(400, f"request body is not valid JSON: {exc}")


async def _read_line(reader) -> bytes:
    try:
        line = await reader.readline()
    except ValueError:
        # StreamReader's limit tripped: an over-long line.
        raise HttpError(431, "header line too long")
    if len(line) > MAX_HEADER_BYTES:
        raise HttpError(431, "header line too long")
    return line


async def read_request(reader) -> Optional[HttpRequest]:
    """Parse one request from the stream; ``None`` on a clean EOF.

    Malformed input raises :class:`HttpError` (the caller answers with
    its status and closes) — a broken peer must never take the service
    down.
    """
    request_line = await _read_line(reader)
    if not request_line or request_line in (b"\r\n", b"\n"):
        return None
    try:
        method, target, version = (
            request_line.decode("ascii").strip().split(" ")
        )
    except (UnicodeDecodeError, ValueError):
        raise HttpError(400, "malformed request line")
    if not version.startswith("HTTP/1."):
        raise HttpError(505, f"unsupported protocol {version!r}")

    headers: Dict[str, str] = {}
    total_header_bytes = 0
    while True:
        line = await _read_line(reader)
        if not line:
            raise HttpError(400, "connection closed inside headers")
        if line in (b"\r\n", b"\n"):
            break
        total_header_bytes += len(line)
        if total_header_bytes > MAX_HEADER_BYTES:
            raise HttpError(431, "header block too large")
        try:
            name, _sep, value = line.decode("latin-1").partition(":")
        except UnicodeDecodeError:
            raise HttpError(400, "malformed header line")
        if not _sep:
            raise HttpError(400, f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()

    body = b""
    length_text = headers.get("content-length")
    if length_text is not None:
        try:
            length = int(length_text)
        except ValueError:
            raise HttpError(400, f"bad Content-Length {length_text!r}")
        if length < 0 or length > MAX_BODY_BYTES:
            raise HttpError(413, "request body too large")
        if length:
            try:
                body = await reader.readexactly(length)
            except Exception:
                raise HttpError(400, "connection closed inside body")
    elif headers.get("transfer-encoding"):
        raise HttpError(
            501, "chunked request bodies are not supported; "
            "send Content-Length"
        )

    split = urlsplit(target)
    return HttpRequest(
        method=method.upper(),
        target=target,
        path=unquote(split.path),
        query=parse_qs(split.query),
        headers=headers,
        body=body,
    )


def _head(
    status: int, content_type: str, content_length: Optional[int]
) -> bytes:
    phrase = HTTPStatus(status).phrase
    lines = [
        f"HTTP/1.1 {status} {phrase}",
        f"Content-Type: {content_type}",
        "Connection: close",
    ]
    if content_length is not None:
        lines.append(f"Content-Length: {content_length}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("ascii")


async def send_bytes(
    writer, status: int, body: bytes, content_type: str
) -> None:
    """One complete fixed-length response."""
    writer.write(_head(status, content_type, len(body)))
    writer.write(body)
    await writer.drain()


async def send_json(writer, status: int, payload: object) -> None:
    """One complete JSON response (sorted keys: byte-stable output)."""
    body = json.dumps(payload, sort_keys=True).encode("utf-8")
    await send_bytes(writer, status, body, "application/json")


def start_ndjson_stream(writer) -> None:
    """Open a close-delimited NDJSON stream (no Content-Length).

    Only the head is written; the stream's first :func:`send_ndjson`
    drains it together with its lines.
    """
    writer.write(_head(200, "application/x-ndjson", None))


async def send_ndjson(writer, payloads: Sequence[object]) -> None:
    """Lines on an open NDJSON stream: one write and one drain for all."""
    if payloads:
        writer.write(b"".join(
            json.dumps(payload, sort_keys=True).encode("utf-8") + b"\n"
            for payload in payloads
        ))
    await writer.drain()
