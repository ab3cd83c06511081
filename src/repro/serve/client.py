"""Stdlib client for the ``repro serve`` HTTP protocol.

``urllib``-based, dependency-free — usable from tests, CI smoke jobs
and the ``repro submit`` CLI command alike. Every method mirrors one
endpoint of :mod:`repro.serve.protocol`; errors the server refuses with
a JSON body surface as :class:`ServeError` carrying the HTTP status.
"""

from __future__ import annotations

import json
import socket
import time
import urllib.error
import urllib.request
from typing import Any, Dict, Iterator, List, Optional

from repro.runtime.job import JobSpec


class ServeError(Exception):
    """A request the server refused (4xx/5xx with a JSON error body)."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message

    @classmethod
    def from_http(cls, error: urllib.error.HTTPError) -> "ServeError":
        try:
            body = json.loads(error.read().decode("utf-8"))
            message = body.get("error", error.reason)
        except (ValueError, UnicodeDecodeError):
            message = str(error.reason)
        return cls(error.code, message)


def _sse_records(response) -> Iterator[Optional[Dict[str, Any]]]:
    """One item per SSE line: the record of a ``data:`` line, else None."""
    for raw in response:
        line = raw.decode("utf-8").rstrip("\n")
        if line.startswith("data: "):
            yield json.loads(line[len("data: "):])
        else:
            yield None  # event name, blank separator or comment


class ServeClient:
    """Talk to one ``repro serve`` instance."""

    def __init__(self, base_url: str, timeout: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    # -- plumbing --------------------------------------------------------------

    def _request(
        self, method: str, path: str, payload: Optional[Dict[str, Any]] = None
    ) -> Dict[str, Any]:
        data = None
        headers = {"Accept": "application/json"}
        if payload is not None:
            data = json.dumps(payload, sort_keys=True).encode("utf-8")
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(
            self.base_url + path, data=data, headers=headers, method=method
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as resp:
                return json.loads(resp.read().decode("utf-8"))
        except urllib.error.HTTPError as error:
            raise ServeError.from_http(error) from None

    def _open_stream(self, job_id: str, read_timeout: Optional[float]):
        request = urllib.request.Request(
            self.base_url + f"/jobs/{job_id}/stream",
            headers={"Accept": "text/event-stream"},
        )
        try:
            return urllib.request.urlopen(request, timeout=read_timeout)
        except urllib.error.HTTPError as error:
            raise ServeError.from_http(error) from None

    # -- endpoints -------------------------------------------------------------

    def health(self) -> Dict[str, Any]:
        return self._request("GET", "/healthz")

    def submit(
        self,
        spec: JobSpec,
        namespace: str = "default",
        priority: int = 0,
    ) -> Dict[str, Any]:
        """Submit a spec; the response view carries ``created``."""
        return self._request(
            "POST",
            "/jobs",
            {
                "spec": spec.to_dict(),
                "namespace": namespace,
                "priority": priority,
            },
        )

    def jobs(self, namespace: Optional[str] = None) -> List[Dict[str, Any]]:
        path = "/jobs"
        if namespace is not None:
            path += f"?namespace={namespace}"
        return self._request("GET", path)["jobs"]

    def job(self, job_id: str) -> Dict[str, Any]:
        return self._request("GET", f"/jobs/{job_id}")

    def result(self, job_id: str) -> Dict[str, Any]:
        """The terminal ``JobResult`` record (409 while still running)."""
        return self._request("GET", f"/jobs/{job_id}/result")["result"]

    def cancel(self, job_id: str) -> Dict[str, Any]:
        return self._request("POST", f"/jobs/{job_id}/cancel")

    def namespace_report(self, namespace: str) -> Dict[str, Any]:
        return self._request("GET", f"/namespaces/{namespace}")

    # -- conveniences ----------------------------------------------------------

    def wait(self, job_id: str, timeout: float = 300.0) -> Dict[str, Any]:
        """Follow the job's stream until it ends; returns its result record.

        Returns as soon as the server ends the stream, which it does
        right after journaling the job's terminal record. ``timeout``
        is checked on every SSE line, keepalive comments included, and
        the time left when the stream opens bounds every socket read,
        so a silent server raises :class:`TimeoutError` too.
        """
        deadline = time.monotonic() + timeout
        try:
            with self._open_stream(job_id, timeout) as response:
                for record in _sse_records(response):
                    if (record or {}).get("event") == "stream_end":
                        break
                    if time.monotonic() >= deadline:
                        raise TimeoutError
        except (TimeoutError, socket.timeout):
            raise TimeoutError(
                f"job {job_id} not finished after {timeout}s"
            ) from None
        return self.result(job_id)

    def stream(
        self, job_id: str, read_timeout: Optional[float] = None
    ) -> Iterator[Dict[str, Any]]:
        """Yield the job's journal records live from the SSE endpoint.

        Terminates after the server's ``stream_end`` marker (which is
        not yielded — it is framing, not a journal record). Unlike the
        request/response endpoints this read blocks for as long as the
        job runs, so ``self.timeout`` does not apply: by default there
        is no read timeout (the server ends every stream with
        ``stream_end`` and sends keepalive comments while the job is
        quiet); pass ``read_timeout`` to bound each socket read anyway.
        """
        with self._open_stream(job_id, read_timeout) as response:
            for record in _sse_records(response):
                if record is None:
                    continue
                if record.get("event") == "stream_end":
                    return
                yield record
