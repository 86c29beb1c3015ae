"""Stdlib client for the experiment service.

:class:`ServiceClient` wraps the service's HTTP API in plain method
calls using nothing but ``urllib`` — it is what ``repro submit`` runs
and what the end-to-end tests drive, and it doubles as executable
documentation of the wire protocol.  Errors come back as
:class:`ServiceError` carrying the HTTP status and the server's
``{"error": ...}`` message.
"""

from __future__ import annotations

import json
from typing import Dict, Iterator, List, Optional
from urllib.error import HTTPError, URLError
from urllib.request import Request, urlopen

__all__ = ["ServiceError", "ServiceClient"]


class ServiceError(Exception):
    """A non-2xx answer (or no answer at all) from the service."""

    def __init__(self, status: Optional[int], message: str):
        super().__init__(
            f"HTTP {status}: {message}" if status is not None else message
        )
        self.status = status
        self.message = message


class ServiceClient:
    """Talk to one ``repro serve`` instance at ``url``."""

    def __init__(self, url: str, timeout: float = 60.0):
        self.url = url.rstrip("/")
        self.timeout = timeout

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def _open(self, path: str, data: Optional[bytes] = None):
        request = Request(
            self.url + path,
            data=data,
            headers=(
                {"Content-Type": "application/json"} if data is not None else {}
            ),
            method="POST" if data is not None else "GET",
        )
        try:
            return urlopen(request, timeout=self.timeout)
        except HTTPError as exc:
            body = exc.read()
            try:
                message = json.loads(body.decode("utf-8"))["error"]
            except Exception:
                message = body.decode("utf-8", "replace") or exc.reason
            raise ServiceError(exc.code, str(message)) from None
        except URLError as exc:
            raise ServiceError(
                None, f"cannot reach {self.url}: {exc.reason}"
            ) from None

    def _get_json(self, path: str) -> object:
        with self._open(path) as response:
            return json.loads(response.read().decode("utf-8"))

    def _post_json(self, path: str, payload: object) -> object:
        data = json.dumps(payload).encode("utf-8")
        with self._open(path, data=data) as response:
            return json.loads(response.read().decode("utf-8"))

    # ------------------------------------------------------------------
    # API
    # ------------------------------------------------------------------
    def health(self) -> Dict[str, object]:
        return self._get_json("/health")

    def scenarios(self) -> List[Dict[str, object]]:
        return self._get_json("/scenarios")

    def stats(self) -> Dict[str, object]:
        return self._get_json("/stats")

    def submit(
        self,
        scenario: Optional[str] = None,
        spec: Optional[Dict[str, object]] = None,
        steady: Optional[str] = None,
    ) -> Dict[str, object]:
        """Submit one job; returns the job summary (with its ``id``)."""
        payload: Dict[str, object] = {}
        if scenario is not None:
            payload["scenario"] = scenario
        if spec is not None:
            payload["spec"] = spec
        if steady is not None:
            payload["steady"] = steady
        return self._post_json("/jobs", payload)

    def jobs(self) -> List[Dict[str, object]]:
        return self._get_json("/jobs")

    def job(self, job_id: str) -> Dict[str, object]:
        return self._get_json(f"/jobs/{job_id}")

    def result(self, job_id: str) -> Dict[str, object]:
        return self._get_json(f"/jobs/{job_id}/result")

    def events(
        self, job_id: str, cursor: int = 0, follow: bool = True
    ) -> Iterator[Dict[str, object]]:
        """Yield the job's NDJSON events as they arrive.

        With ``follow=True`` (default) the stream runs until the job is
        terminal and fully drained; the iterator ends when the server
        closes the connection.
        """
        suffix = "" if follow else "&follow=0"
        with self._open(
            f"/jobs/{job_id}/events?cursor={cursor}{suffix}"
        ) as response:
            for line in response:
                line = line.strip()
                if line:
                    yield json.loads(line.decode("utf-8"))

    def wait(self, job_id: str) -> Dict[str, object]:
        """Drain the event stream, then return the job's result."""
        for _event in self.events(job_id):
            pass
        return self.result(job_id)

    def export(self, job_id: str, format: str = "npz") -> bytes:
        """Download the job's artifact bytes in ``format``."""
        with self._open(f"/jobs/{job_id}/export?format={format}") as response:
            return response.read()
