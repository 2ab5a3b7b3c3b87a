"""The asyncio HTTP front door for skyline-as-a-service.

Pure stdlib (:func:`asyncio.start_server` + hand-rolled HTTP/1.1):
the container bakes in no web framework, and the protocol surface is
small enough that owning the parser is cheaper than depending on one.

Request handling is split by cost:

* **inline** — ``GET /health``, ``GET /v1/stats``, study status
  lookups, and ``POST /v1/analyze`` (one closed-form evaluation) run
  on a bounded thread pool via ``run_in_executor`` so the event loop
  never blocks on a lock or a model evaluation;
* **queued** — ``POST /v1/studies`` only *registers* work with the
  :class:`~repro.serve.scheduler.StudyScheduler` and immediately acks
  with a study id; execution happens on the scheduler's workers;
* **streaming** — ``GET /v1/studies/{id}/progress`` holds its
  connection open (chunked transfer) and emits one JSON line per
  progress update, backed by
  :meth:`~repro.serve.state.StudyRecord.wait_update` rather than
  polling.

Every response body is a version-pinned envelope or document from
:mod:`repro.serve.protocol`; every failure maps through
:func:`~repro.serve.protocol.envelope_for_exception` so HTTP codes
track the :mod:`repro.errors` taxonomy (400 names the bad field, 404
unknown id, 429 + ``Retry-After`` when saturated, 503 while not
ready).
"""

from __future__ import annotations

import asyncio
import json
import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Any, Dict, Mapping, Optional, Tuple

from ..errors import ConfigurationError, ReproError, ServiceUnavailableError
from ..io.serialization import SERVE_PROTOCOL_VERSION
from ..obs.tracer import Tracer
from .protocol import (
    ErrorEnvelope,
    ProgressEvent,
    ServeStats,
    StudyAck,
    StudyStatus,
    envelope_for_exception,
    parse_analyze_request,
    parse_study_request,
    run_analyze,
)
from .scheduler import StudyScheduler
from .state import StudyRecord, StudyStore

__all__ = ["ServeConfig", "ReproServer", "ServerHandle"]

#: Largest request body the server will read (a StudySpec with a few
#: hundred thousand explicit grid points still fits comfortably).
MAX_BODY_BYTES = 8 * 1024 * 1024

#: Largest request-line + header block accepted.
MAX_HEADER_BYTES = 32 * 1024

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


@dataclass(frozen=True)
class ServeConfig:
    """Knobs for one server instance (mirrors the CLI flags)."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = pick a free port; read it back from .port
    max_concurrent: int = 1  # study worker threads
    max_queue: int = 16  # queued studies before 429
    study_workers: Optional[int] = None  # per-study executor fan-out
    backend: str = "process"
    chunk_rows: Optional[int] = None  # None = size-derived default
    checkpoint_root: Optional[str] = None
    distrib_root: Optional[str] = None  # per-study distributed work dirs
    request_concurrency: int = 32  # concurrently served HTTP requests
    progress_poll_s: float = 0.25  # stream wake-up cadence


class _HttpError(ReproError):
    """An HTTP-level failure (routing/method), outside the taxonomy
    mapping — it knows its own status code and error name."""

    def __init__(self, status: int, error: str, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.error = error

    def envelope(self) -> ErrorEnvelope:
        return ErrorEnvelope(self.status, self.error, str(self))


@dataclass(frozen=True)
class _Request:
    method: str
    path: str
    headers: Mapping[str, str]
    body: bytes


class ReproServer:
    """One serving instance: store + scheduler + asyncio front door."""

    def __init__(
        self,
        config: Optional[ServeConfig] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.config = config if config is not None else ServeConfig()
        if self.config.request_concurrency < 1:
            raise ConfigurationError(
                "request_concurrency must be >= 1, got "
                f"{self.config.request_concurrency}"
            )
        # One tracer spans the whole service; /v1/stats serves its
        # snapshots, so scheduler and front-door counters land in the
        # same namespace.
        self.tracer = tracer if tracer is not None else Tracer()
        self.store = StudyStore()
        self.scheduler = StudyScheduler(
            store=self.store,
            max_concurrent=self.config.max_concurrent,
            max_queue=self.config.max_queue,
            study_workers=self.config.study_workers,
            backend=self.config.backend,
            chunk_rows=self.config.chunk_rows,
            checkpoint_root=self.config.checkpoint_root,
            distrib_root=self.config.distrib_root,
            tracer=self.tracer,
        )
        self._server: Optional[asyncio.base_events.Server] = None
        self._semaphore: Optional[asyncio.Semaphore] = None
        self._pool: Optional[ThreadPoolExecutor] = None
        self._stopping = False

    # -- lifecycle ------------------------------------------------------
    async def start(self) -> None:
        self.scheduler.start()
        self._semaphore = asyncio.Semaphore(
            self.config.request_concurrency
        )
        # A dedicated pool for blocking waits (locks, progress
        # streams) so they cannot starve the loop's tiny default
        # executor; sized with the semaphore since each in-flight
        # request holds at most one slot at a time.
        self._pool = ThreadPoolExecutor(
            max_workers=self.config.request_concurrency,
            thread_name_prefix="serve-io",
        )
        self._server = await asyncio.start_server(
            self._handle_connection,
            host=self.config.host,
            port=self.config.port,
            limit=MAX_HEADER_BYTES,
        )

    @property
    def port(self) -> int:
        """The actually-bound port (useful with ``port=0``)."""
        if self._server is None:
            raise ServiceUnavailableError("server has not been started")
        return int(self._server.sockets[0].getsockname()[1])

    @property
    def ready(self) -> bool:
        return (
            self._server is not None
            and not self._stopping
            and self.scheduler.accepting
        )

    async def stop(self) -> None:
        """Stop accepting connections, then drain the scheduler."""
        self._stopping = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self.scheduler.shutdown)
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)

    async def _blocking(self, fn: Any, *args: Any) -> Any:
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(self._pool, partial(fn, *args))

    # -- connection handling --------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                request = await self._read_request(reader, writer)
                if request is None:
                    break
                assert self._semaphore is not None
                async with self._semaphore:
                    self.tracer.counter("serve.requests").add()
                    keep_alive = await self._dispatch(request, writer)
                if not keep_alive:
                    break
                await writer.drain()
        except (ConnectionError, asyncio.LimitOverrunError):
            pass  # client went away or sent garbage; nothing to save
        except asyncio.CancelledError:
            # Loop shutdown with the connection idle: finish quietly
            # (a cancelled-task exception in asyncio.streams' done
            # callback would otherwise log a spurious traceback).
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> Optional[_Request]:
        try:
            header_blob = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError as exc:
            if exc.partial:
                self._write_envelope(
                    writer,
                    ErrorEnvelope(400, "BadRequest",
                                  "truncated HTTP request"),
                )
            return None
        except asyncio.LimitOverrunError:
            self._write_envelope(
                writer,
                ErrorEnvelope(
                    413, "HeaderTooLarge",
                    f"request headers exceed {MAX_HEADER_BYTES} bytes",
                ),
            )
            return None
        lines = header_blob.decode("latin-1").split("\r\n")
        parts = lines[0].split(" ")
        if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
            self._write_envelope(
                writer,
                ErrorEnvelope(400, "BadRequest",
                              f"malformed request line {lines[0]!r}"),
            )
            return None
        method, target = parts[0].upper(), parts[1]
        headers: Dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length_text = headers.get("content-length", "0")
        try:
            length = int(length_text)
        except ValueError:
            self._write_envelope(
                writer,
                ErrorEnvelope(400, "BadRequest",
                              f"bad Content-Length {length_text!r}"),
            )
            return None
        if length > MAX_BODY_BYTES:
            self._write_envelope(
                writer,
                ErrorEnvelope(
                    413, "PayloadTooLarge",
                    f"request body of {length} bytes exceeds the "
                    f"{MAX_BODY_BYTES}-byte limit",
                ),
            )
            return None
        body = b""
        if length > 0:
            try:
                body = await reader.readexactly(length)
            except asyncio.IncompleteReadError:
                return None
        return _Request(method=method, path=target,
                        headers=headers, body=body)

    # -- routing --------------------------------------------------------
    async def _dispatch(
        self, request: _Request, writer: asyncio.StreamWriter
    ) -> bool:
        """Handle one request; returns whether to keep the connection."""
        path = request.path.split("?", 1)[0]
        try:
            if path == "/health":
                self._require_method(request, "GET")
                return self._respond_health(request, writer)
            if path == "/v1/stats":
                self._require_method(request, "GET")
                stats = ServeStats(
                    counters=self.tracer.counters_snapshot(),
                    gauges=self.tracer.gauges_snapshot(),
                )
                self._write_json(writer, 200, stats.to_dict())
                return self._keep_alive(request)
            if path == "/v1/analyze":
                self._require_method(request, "POST")
                return await self._respond_analyze(request, writer)
            if path == "/v1/studies":
                self._require_method(request, "POST")
                return await self._respond_submit(request, writer)
            if path.startswith("/v1/studies/"):
                return await self._dispatch_study(request, path, writer)
            raise _HttpError(404, "NotFound", f"unknown path {path!r}")
        except Exception as exc:  # one funnel: taxonomy -> HTTP
            if isinstance(exc, _HttpError):
                envelope = exc.envelope()
            else:
                envelope = envelope_for_exception(exc)
            if envelope.status >= 500:
                self.tracer.counter("serve.errors.internal").add()
            self._write_envelope(writer, envelope)
            return self._keep_alive(request)

    async def _dispatch_study(
        self, request: _Request, path: str, writer: asyncio.StreamWriter
    ) -> bool:
        rest = path[len("/v1/studies/"):]
        study_id, _, tail = rest.partition("/")
        record = self.store.get(study_id)  # UnknownStudyError -> 404
        if tail == "progress":
            self._require_method(request, "GET")
            await self._stream_progress(record, writer)
            return False  # streaming responses close the connection
        if tail == "result":
            self._require_method(request, "GET")
            return self._respond_result(request, record, writer)
        if tail == "":
            self._require_method(request, "GET")
            return self._respond_status(request, record, writer)
        raise _HttpError(
            404, "NotFound",
            f"unknown study subresource {tail!r}; expected no suffix, "
            f"'/result', or '/progress'",
        )

    # -- endpoint bodies ------------------------------------------------
    def _respond_health(
        self, request: _Request, writer: asyncio.StreamWriter
    ) -> bool:
        doc = {
            "status": "ok" if self.ready else "unavailable",
            "protocol_version": SERVE_PROTOCOL_VERSION,
            "studies": len(self.store),
        }
        status = 200 if self.ready else 503
        headers = {} if self.ready else {"Retry-After": "1"}
        self._write_json(writer, status, doc, extra_headers=headers)
        return self._keep_alive(request)

    async def _respond_analyze(
        self, request: _Request, writer: asyncio.StreamWriter
    ) -> bool:
        if not self.ready:
            raise ServiceUnavailableError(
                "server is not accepting analyze requests"
            )
        parsed = parse_analyze_request(self._json_body(request))
        report = await self._blocking(run_analyze, parsed)
        self.tracer.counter("serve.analyze.requests").add()
        self._write_json(writer, 200, report)
        return self._keep_alive(request)

    async def _respond_submit(
        self, request: _Request, writer: asyncio.StreamWriter
    ) -> bool:
        spec = parse_study_request(self._json_body(request))
        record, coalesced = await self._blocking(
            self.scheduler.submit, spec
        )
        ack = StudyAck(
            study_id=record.study_id,
            state=record.state,
            coalesced=coalesced,
            queue_depth=self.scheduler.queue_depth(),
        )
        # 202 acknowledges newly queued work; a coalesced duplicate is
        # a plain 200 because the work already exists.
        self._write_json(writer, 200 if coalesced else 202, ack.to_dict())
        return self._keep_alive(request)

    def _respond_status(
        self,
        request: _Request,
        record: StudyRecord,
        writer: asyncio.StreamWriter,
    ) -> bool:
        seq, state, progress = record.snapshot()
        status = StudyStatus(
            study_id=record.study_id,
            state=state,
            spec_digest=record.digest,
            queue_position=self.scheduler.queue_position(record),
            progress=progress,
            error=record.error,
            result_ready=state == "done",
        )
        doc = status.to_dict()
        # The issue contract: the status endpoint carries the full
        # StudyResult document once the study is done (clients that
        # need the bitwise-exact text use /result instead).
        result_json = record.result_json()
        doc["result"] = (
            json.loads(result_json) if result_json is not None else None
        )
        self._write_json(writer, 200, doc)
        return self._keep_alive(request)

    def _respond_result(
        self,
        request: _Request,
        record: StudyRecord,
        writer: asyncio.StreamWriter,
    ) -> bool:
        state = record.state
        if state == "failed":
            self._write_envelope(
                writer,
                ErrorEnvelope(
                    409, "StudyFailed",
                    record.error or "study failed with no message",
                ),
            )
            return self._keep_alive(request)
        result_json = record.result_json()
        if result_json is None:
            # Not an error: the study exists but has not finished.
            # 202 + the status envelope tells the client to keep
            # polling (Retry-After carries the scheduler's estimate).
            retry_s = self.scheduler.retry_after_s()
            seq, state, progress = record.snapshot()
            status = StudyStatus(
                study_id=record.study_id,
                state=state,
                spec_digest=record.digest,
                queue_position=self.scheduler.queue_position(record),
                progress=progress,
                error=None,
                result_ready=False,
            )
            self._write_json(
                writer, 202, status.to_dict(),
                extra_headers={
                    "Retry-After": str(int(math.ceil(retry_s)))
                },
            )
            return self._keep_alive(request)
        # The stored text verbatim: every waiter receives the same
        # bytes, so fan-out is bitwise identical by construction.
        self._write_raw(
            writer, 200, result_json.encode("utf-8"),
            content_type="application/json",
        )
        return self._keep_alive(request)

    async def _stream_progress(
        self, record: StudyRecord, writer: asyncio.StreamWriter
    ) -> None:
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Transfer-Encoding: chunked\r\n"
            b"Connection: close\r\n\r\n"
        )
        await writer.drain()
        self.tracer.counter("serve.progress.streams").add()
        last_seq = -1
        while True:
            seq, state, progress = await self._blocking(
                record.wait_update, last_seq, self.config.progress_poll_s
            )
            if seq <= last_seq:
                continue  # timeout tick with no news; wait again
            final = state in ("done", "failed")
            event = ProgressEvent(
                study_id=record.study_id,
                seq=seq,
                state=state,
                progress=progress,
                final=final,
            )
            payload = (
                json.dumps(event.to_dict(), sort_keys=True) + "\n"
            ).encode("utf-8")
            writer.write(
                f"{len(payload):X}\r\n".encode("ascii")
                + payload + b"\r\n"
            )
            await writer.drain()
            last_seq = seq
            if final:
                break
        writer.write(b"0\r\n\r\n")
        await writer.drain()

    # -- small helpers --------------------------------------------------
    def _require_method(self, request: _Request, method: str) -> None:
        if request.method != method:
            raise _HttpError(
                405, "MethodNotAllowed",
                f"method {request.method} not allowed on "
                f"{request.path.split('?', 1)[0]!r}; use {method}",
            )

    def _json_body(self, request: _Request) -> Any:
        if not request.body:
            raise ConfigurationError(
                "request field 'body': a JSON body is required"
            )
        try:
            return json.loads(request.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ConfigurationError(
                f"request field 'body': not valid JSON ({exc})"
            ) from exc

    def _keep_alive(self, request: _Request) -> bool:
        return request.headers.get("connection", "").lower() != "close"

    def _write_envelope(
        self, writer: asyncio.StreamWriter, envelope: ErrorEnvelope
    ) -> None:
        headers = {}
        if envelope.retry_after_s is not None:
            headers["Retry-After"] = str(
                int(math.ceil(envelope.retry_after_s))
            )
        self._write_json(
            writer, envelope.status, envelope.to_dict(),
            extra_headers=headers,
        )

    def _write_json(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        doc: Mapping[str, Any],
        extra_headers: Optional[Mapping[str, str]] = None,
    ) -> None:
        payload = json.dumps(doc, sort_keys=True).encode("utf-8")
        self._write_raw(
            writer, status, payload,
            content_type="application/json",
            extra_headers=extra_headers,
        )

    def _write_raw(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: bytes,
        content_type: str,
        extra_headers: Optional[Mapping[str, str]] = None,
    ) -> None:
        reason = _REASONS.get(status, "Unknown")
        head = [
            f"HTTP/1.1 {status} {reason}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(payload)}",
        ]
        for name, value in (extra_headers or {}).items():
            head.append(f"{name}: {value}")
        writer.write(
            ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + payload
        )


class ServerHandle:
    """A server running on its own thread (tests, smoke, and the CLI).

    ``start()`` blocks until the socket is bound and returns the
    handle; ``stop()`` shuts the event loop and scheduler down and
    joins the thread.  The asyncio loop lives entirely on the spawned
    thread — callers interact over HTTP (or via :attr:`server` for
    whitebox assertions on counters and the study store).
    """

    def __init__(
        self,
        config: Optional[ServeConfig] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.config = config if config is not None else ServeConfig()
        self.server = ReproServer(self.config, tracer=tracer)
        self._thread = threading.Thread(
            target=self._run, name="serve-loop", daemon=True
        )
        self._ready = threading.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._startup_error: Optional[BaseException] = None
        self.port: Optional[int] = None

    def start(self, timeout_s: float = 10.0) -> "ServerHandle":
        self._thread.start()
        if not self._ready.wait(timeout=timeout_s):
            raise ServiceUnavailableError(
                f"server failed to come up within {timeout_s:g}s"
            )
        if self._startup_error is not None:
            raise self._startup_error
        return self

    def stop(self, timeout_s: float = 10.0) -> None:
        if self._loop is not None and self._stop_event is not None:
            stop_event = self._stop_event
            self._loop.call_soon_threadsafe(stop_event.set)
        self._thread.join(timeout=timeout_s)

    def _run(self) -> None:
        asyncio.run(self._amain())

    async def _amain(self) -> None:
        try:
            await self.server.start()
        except BaseException as exc:
            self._startup_error = exc
            self._ready.set()
            return
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        self.port = self.server.port
        self._ready.set()
        await self._stop_event.wait()
        await self.server.stop()
