"""A pure-stdlib client for the serving layer, plus the CI smoke.

:class:`ServeClient` speaks the protocol of
:mod:`repro.serve.server` over :mod:`http.client` — no third-party
HTTP stack — and maps error envelopes back onto the
:mod:`repro.errors` taxonomy, so a saturated server raises the *same*
:class:`~repro.errors.StudyQueueFullError` (with its
``retry_after_s``) a caller would see in-process.  One client holds
one connection; share across threads by giving each thread its own
client (they are cheap).

``python -m repro.serve.client`` (or :func:`main`) is the end-to-end
smoke CI runs against a live server: wait for ``/health``, submit a
small study, stream its progress, fetch the result, and verify it
matches an in-process :func:`repro.study.runner.run_study` of the
same spec.
"""

from __future__ import annotations

import argparse
import http.client
import json
import sys
from time import perf_counter, sleep
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from ..errors import (
    ConfigurationError,
    ReproError,
    ServiceUnavailableError,
    StudyQueueFullError,
    UnknownStudyError,
)
from ..io.serialization import serve_envelope_from_dict

__all__ = ["ServeClient", "main"]

#: Error-envelope ``error`` names mapped back onto taxonomy types.
_ERROR_TYPES = {
    "StudyQueueFullError": StudyQueueFullError,
    "UnknownStudyError": UnknownStudyError,
    "ServiceUnavailableError": ServiceUnavailableError,
    "ConfigurationError": ConfigurationError,
}


class ServeClient:
    """A blocking HTTP client for one ``repro-skyline serve`` server."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8000,
        timeout_s: float = 30.0,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout_s = timeout_s
        self._conn: Optional[http.client.HTTPConnection] = None

    # -- plumbing -------------------------------------------------------
    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout_s
            )
        return self._conn

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _request(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, Any]] = None,
    ) -> Tuple[int, Dict[str, str], bytes]:
        payload = (
            json.dumps(body).encode("utf-8") if body is not None else None
        )
        headers = {"Content-Type": "application/json"} if payload else {}
        for attempt in (0, 1):
            conn = self._connection()
            try:
                conn.request(method, path, body=payload, headers=headers)
                response = conn.getresponse()
                data = response.read()
                response_headers = {
                    name.lower(): value
                    for name, value in response.getheaders()
                }
                return response.status, response_headers, data
            except (ConnectionError, http.client.HTTPException, OSError):
                # A dropped keep-alive connection gets one clean
                # reconnect; a genuinely down server fails the retry.
                self.close()
                if attempt:
                    raise
        raise AssertionError("unreachable")

    def _raise_for_envelope(self, status: int, data: bytes) -> None:
        """Map a non-2xx error envelope back onto the taxonomy."""
        try:
            doc = json.loads(data.decode("utf-8"))
            envelope = serve_envelope_from_dict(doc)
        except (ValueError, ReproError):
            raise ServiceUnavailableError(
                f"server returned HTTP {status} with an unparseable "
                f"body: {data[:200]!r}"
            ) from None
        error = str(envelope.get("error", "ReproError"))
        message = str(envelope.get("message", ""))
        error_type = _ERROR_TYPES.get(error)
        if error_type is StudyQueueFullError:
            raise StudyQueueFullError(
                message,
                retry_after_s=float(envelope.get("retry_after_s") or 1.0),
            )
        if error_type is not None:
            raise error_type(message)
        raise ReproError(f"server error {status} ({error}): {message}")

    def _json(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, Any]] = None,
        ok: Tuple[int, ...] = (200,),
    ) -> Dict[str, Any]:
        status, _, data = self._request(method, path, body)
        if status not in ok:
            self._raise_for_envelope(status, data)
        doc = json.loads(data.decode("utf-8"))
        if not isinstance(doc, dict):
            raise ReproError(
                f"server returned a non-object JSON body for {path}"
            )
        return doc

    # -- endpoints ------------------------------------------------------
    def health(self) -> Dict[str, Any]:
        """The /health document; raises if the server is not ready."""
        status, _, data = self._request("GET", "/health")
        doc = json.loads(data.decode("utf-8"))
        if status != 200:
            raise ServiceUnavailableError(
                f"server not ready: {doc.get('status', status)}"
            )
        return dict(doc)

    def wait_ready(
        self, timeout_s: float = 30.0, poll_s: float = 0.1
    ) -> Dict[str, Any]:
        """Poll /health until the server answers ready (or timeout)."""
        deadline = perf_counter() + timeout_s
        while True:
            try:
                return self.health()
            except (ReproError, OSError):
                if perf_counter() >= deadline:
                    raise
                sleep(poll_s)

    def stats(self) -> Dict[str, Any]:
        """The /v1/stats envelope: obs counter/gauge snapshots."""
        return self._json("GET", "/v1/stats")

    def analyze(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """One inline closed-form analysis (``POST /v1/analyze``)."""
        return self._json("POST", "/v1/analyze", body=request)

    def submit(self, spec_doc: Dict[str, Any]) -> Dict[str, Any]:
        """Enqueue a StudySpec document; returns the ack envelope."""
        return self._json(
            "POST", "/v1/studies", body=spec_doc, ok=(200, 202)
        )

    def status(self, study_id: str) -> Dict[str, Any]:
        """The status envelope; :meth:`result_text` fetches the result."""
        return self._json("GET", f"/v1/studies/{study_id}")

    def result_text(self, study_id: str) -> Optional[str]:
        """The finished StudyResult JSON *text*, verbatim.

        Returns ``None`` while the study is still queued or running
        (HTTP 202); raises for unknown ids and failed studies.
        """
        status, _, data = self._request(
            "GET", f"/v1/studies/{study_id}/result"
        )
        if status == 202:
            return None
        if status != 200:
            self._raise_for_envelope(status, data)
        return data.decode("utf-8")

    def wait_result(
        self,
        study_id: str,
        timeout_s: float = 60.0,
        poll_s: float = 0.05,
    ) -> str:
        """Block (polling) until the result text is available."""
        deadline = perf_counter() + timeout_s
        while True:
            text = self.result_text(study_id)
            if text is not None:
                return text
            if perf_counter() >= deadline:
                raise ServiceUnavailableError(
                    f"study {study_id} did not finish within "
                    f"{timeout_s:g}s"
                )
            sleep(poll_s)

    def progress_events(self, study_id: str) -> Iterator[Dict[str, Any]]:
        """Stream progress envelopes until the study finishes.

        Each yielded dict is one version-pinned ``progress`` envelope;
        the last one has ``final: true``.  Uses its own connection so
        a long stream does not block other calls on this client.
        """
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout_s
        )
        try:
            conn.request("GET", f"/v1/studies/{study_id}/progress")
            response = conn.getresponse()
            if response.status != 200:
                self._raise_for_envelope(
                    response.status, response.read()
                )
            while True:
                line = response.readline()
                if not line:
                    return
                line = line.strip()
                if not line:
                    continue
                event = serve_envelope_from_dict(json.loads(line))
                yield event
                if event.get("final"):
                    return
        finally:
            conn.close()


# ---------------------------------------------------------------------
# The CI smoke: one client exercising a live server end to end.
# ---------------------------------------------------------------------
def _smoke_spec_doc(n_rows: int) -> Dict[str, Any]:
    from ..study import DesignSpec, StudySpec

    values = [0.01 + 0.002 * i for i in range(n_rows)]
    spec = StudySpec(
        design=DesignSpec.knob_axes(axes={"compute_runtime_s": values})
    )
    return spec.to_dict()


def main(argv: Optional[Sequence[str]] = None) -> int:
    """End-to-end smoke against a running server; exit 0 on success."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve.client",
        description="serve smoke: health, submit, stream, verify",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument(
        "--rows", type=int, default=64,
        help="design rows in the smoke study (default 64)",
    )
    parser.add_argument(
        "--timeout", type=float, default=60.0,
        help="overall deadline in seconds (default 60)",
    )
    parser.add_argument(
        "--artifact", default=None,
        help="write a JSON artifact (events, stats, timings) here",
    )
    args = parser.parse_args(argv)

    from ..study import StudySpec, run_study
    from ..study.result import StudyResult

    client = ServeClient(
        host=args.host, port=args.port, timeout_s=args.timeout
    )
    started_clock = perf_counter()
    client.wait_ready(timeout_s=args.timeout)
    print(f"[smoke] /health ok on {args.host}:{args.port}")

    spec_doc = _smoke_spec_doc(args.rows)
    ack = client.submit(spec_doc)
    study_id = str(ack["study_id"])
    print(f"[smoke] submitted {study_id} (state={ack['state']})")

    events: List[Dict[str, Any]] = []
    for event in client.progress_events(study_id):
        events.append(event)
    rows_seen = [
        event["progress"]["rows_done"]
        for event in events
        if event.get("progress")
    ]
    if rows_seen != sorted(rows_seen):
        print(f"[smoke] FAIL: progress not monotone: {rows_seen}")
        return 1
    print(f"[smoke] streamed {len(events)} progress events")

    result_text = client.wait_result(study_id, timeout_s=args.timeout)
    served = StudyResult.from_json(result_text)

    spec = StudySpec.from_dict(spec_doc)
    local = run_study(spec)
    if not served.equals(local):
        print("[smoke] FAIL: served result != in-process run_study")
        return 1
    print(f"[smoke] served result matches in-process run "
          f"({len(events)} progress events, "
          f"{int(served.total_mass_g.size)} design rows)")

    stats = client.stats()
    if args.artifact:
        from pathlib import Path

        artifact = {
            "study_id": study_id,
            "ack": ack,
            "events": events,
            "stats": stats,
            "elapsed_s": perf_counter() - started_clock,
        }
        Path(args.artifact).write_text(
            json.dumps(artifact, indent=2, sort_keys=True),
            encoding="utf-8",
        )
        print(f"[smoke] artifact written to {args.artifact}")
    client.close()
    print(f"[smoke] PASS in {perf_counter() - started_clock:.2f}s")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
