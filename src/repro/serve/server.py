"""The diagnosis service: asyncio front end over the batch pipeline.

``DiagnosisService`` binds the pieces of :mod:`repro.serve` into one
HTTP front end for :mod:`repro.api`:

* ``POST /v1/diagnose`` and ``POST /v1/diagnose/windowed`` take a
  :class:`repro.api.DiagnoseRequest` body and answer the **exact
  canonical bytes** a direct :func:`repro.api.diagnose` (or
  ``diagnose_windowed``) plus :func:`repro.core.serialize.canonical_json`
  would produce -- the service adds latency and headers, never bytes;
* ``POST /v1/fleet`` runs a supervised fleet diagnosis;
* ``GET /v1/health`` reports live counters, ``GET /v1/schema`` the
  report's JSON schema, and ``GET /v1/alerts/stream`` pushes the watch
  daemon's ``alerts.jsonl`` lines as a chunked ndjson stream;

with the service mechanics layered in front of the pipeline:

* **coalescing** -- identical concurrent requests (same canonical key)
  share one pipeline run and receive byte-identical bodies;
* **report cache** -- warm repeats answer from an LRU of response
  bytes, invalidated explicitly when a logdir's content fingerprint
  moves (an appended line re-keys; no TTL guessing);
* **quotas + backpressure** -- per-tenant token buckets and a global
  executor cap answer overload with 429 + honest ``Retry-After``;
* **executor offload** -- pipeline runs execute on a bounded thread
  pool, keeping the event loop free to accept, coalesce and answer
  cached requests at high concurrency;
* **graceful drain** -- SIGTERM/SIGINT stop the listener, let
  in-flight requests finish (bounded by ``drain_grace``), end alert
  streams cleanly, then return a :class:`ServeReport`.

Every stage mirrors into the PR 5 obs layer when a session is active:
``serve.latency.<endpoint>`` histograms, ``serve.cache.hit``/``miss``,
``serve.coalesced``, ``serve.quota.rejected``,
``serve.backpressure.rejected`` and the ``serve.in_flight`` gauge --
all visible through ``repro obs summary``.
"""

from __future__ import annotations

import asyncio
import dataclasses
import hashlib
import signal
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from repro import api
from repro.core.serialize import canonical_json
from repro.obs import OBS
from repro.runtime.journal import JournalError
from repro.serve.cache import (
    CachedResponse,
    ReportCache,
    logdir_fingerprint,
    request_key,
)
from repro.serve.coalesce import Coalescer
from repro.serve.http import (
    MAX_BODY_BYTES,
    HttpError,
    Request,
    end_chunked,
    error_body,
    read_request,
    response_bytes,
    start_chunked,
    write_chunk,
)
from repro.serve.quotas import Backpressure, QuotaRegistry
from repro.serve.router import Router

__all__ = ["ServiceConfig", "ServeReport", "DiagnosisService", "run_service"]


@dataclass
class ServiceConfig:
    """Every service knob, with production-shaped defaults."""

    #: directory every request ``logdir``/``out`` is resolved under;
    #: resolved paths escaping it answer 403
    root: Path = Path(".")
    host: str = "127.0.0.1"
    #: 0 binds an ephemeral port (the bound port lands on the service)
    port: int = 8787
    #: executor threads running pipeline work
    max_workers: int = 4
    #: LRU report-cache capacity (entries, i.e. distinct request keys)
    cache_entries: int = 128
    #: per-tenant token bucket: sustained requests/second ...
    quota_rate: float = 50.0
    #: ... and burst capacity
    quota_burst: float = 200.0
    #: global cap on admitted-but-unfinished pipeline runs
    max_pending: int = 64
    max_body: int = MAX_BODY_BYTES
    #: seconds to wait for in-flight requests on shutdown
    drain_grace: float = 30.0
    #: alert-stream poll interval (seconds)
    stream_poll: float = 0.25
    #: parse-cache policy when the request leaves ``cache`` unset
    default_cache: Union[bool, str, None] = True
    #: print ``serving on http://host:port`` once the socket is bound
    announce: bool = False


@dataclass
class ServeReport:
    """What one service lifetime did, summarized at shutdown."""

    host: str
    port: int
    requests: int
    endpoints: dict[str, int]
    cache: dict
    coalesce: dict
    quota: dict
    backpressure: dict
    errors: int
    #: True when every in-flight request finished inside the grace
    drained: bool

    def to_jsonable(self) -> dict:
        return dataclasses.asdict(self)


class DiagnosisService:
    """The service itself; one instance per listening socket."""

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        self.config = config or ServiceConfig()
        self.cache = ReportCache(self.config.cache_entries)
        self.coalescer = Coalescer()
        self.quotas = QuotaRegistry(self.config.quota_rate,
                                    self.config.quota_burst)
        self.backpressure = Backpressure(self.config.max_pending)
        self.router = Router()
        self.router.add("POST", "/v1/diagnose", self._ep_diagnose,
                        "diagnose")
        self.router.add("POST", "/v1/diagnose/windowed", self._ep_windowed,
                        "windowed")
        self.router.add("POST", "/v1/fleet", self._ep_fleet, "fleet")
        self.router.add("GET", "/v1/health", self._ep_health, "health")
        self.router.add("GET", "/v1/schema", self._ep_schema, "schema")
        self.router.add("GET", "/v1/alerts/stream", self._ep_alerts,
                        "alerts", streaming=True)
        self.host = self.config.host
        self.port = self.config.port
        self.requests = 0
        self.errors = 0
        self.endpoint_counts: dict[str, int] = {}
        self.drained = True
        self._root = Path(self.config.root).resolve()
        self._draining = False
        self._active = 0
        self._schema_text: Optional[str] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._conn_tasks: set[asyncio.Task] = set()
        self._idle = asyncio.Event()
        self._stopped = asyncio.Event()

    # ------------------------------------------------------------------
    # request plumbing

    def _count(self, metric: str, amount: int = 1) -> None:
        if OBS.enabled:
            OBS.metrics.counter(metric).inc(amount)

    def _resolve_dir(self, raw: str, what: str) -> Path:
        """A request path resolved under the service root, or 403."""
        if not raw:
            raise HttpError(400, f"missing {what}")
        candidate = Path(raw)
        path = candidate if candidate.is_absolute() else self._root / candidate
        resolved = path.resolve()
        if resolved != self._root and not resolved.is_relative_to(self._root):
            raise HttpError(
                403, f"{what} {raw!r} escapes the service root")
        return resolved

    def _admit(self, request: Request) -> str:
        """Quota admission for one request; the tenant name comes back."""
        tenant = request.headers.get("x-tenant", "anon").strip() or "anon"
        try:
            self.quotas.admit(tenant)
        except HttpError:
            self._count("serve.quota.rejected")
            raise
        return tenant

    async def _offload(self, fn, *args):
        """Run blocking pipeline work on the executor, under backpressure."""
        try:
            guard = self.backpressure.admit()
        except HttpError:
            self._count("serve.backpressure.rejected")
            raise
        with guard:
            loop = asyncio.get_running_loop()
            return await loop.run_in_executor(self._executor, fn, *args)

    # ------------------------------------------------------------------
    # endpoints

    async def _ep_diagnose(self, request: Request) -> api.ServiceResponse:
        return await self._diagnose_common(request, windowed=False)

    async def _ep_windowed(self, request: Request) -> api.ServiceResponse:
        return await self._diagnose_common(request, windowed=True)

    async def _diagnose_common(self, request: Request, *,
                               windowed: bool) -> api.ServiceResponse:
        try:
            req = api.DiagnoseRequest.from_wire(request.json())
        except (ValueError, TypeError) as exc:
            raise HttpError(400, str(exc))
        if windowed and req.window_days is None:
            raise HttpError(400, "windowed diagnosis needs window_days")
        if not windowed and req.window_days is not None:
            raise HttpError(
                400, "window_days belongs to POST /v1/diagnose/windowed")
        self._admit(request)
        logdir = self._resolve_dir(req.logdir, "logdir")
        if not (logdir / "manifest.json").is_file():
            raise HttpError(
                404, f"{req.logdir} is not a log store (no manifest.json)")
        endpoint = "windowed" if windowed else "diagnose"
        kind = "windows" if windowed else "report"
        fingerprint = logdir_fingerprint(logdir, req.platform)
        key = request_key(
            logdir, fingerprint, endpoint=endpoint,
            window_days=req.window_days, stride_days=req.stride_days,
            only=req.only, error_policy=req.error_policy,
            platform=req.platform)
        cached = self.cache.get(key)
        if cached is not None:
            self._count("serve.cache.hit")
            return api.ServiceResponse(
                200, kind, cached.body.decode("utf-8"), cached=True, key=key)
        self._count("serve.cache.miss")

        async def compute() -> bytes:
            return await self._offload(
                self._compute_diagnose, req, logdir, windowed)

        try:
            body, joined = await self.coalescer.run(key, compute)
        except HttpError:
            raise
        except FileNotFoundError as exc:
            raise HttpError(404, str(exc))
        except (ValueError, KeyError) as exc:
            raise HttpError(400, str(exc))
        if joined:
            self._count("serve.coalesced")
        self.cache.put(key, CachedResponse(body, str(logdir), fingerprint))
        return api.ServiceResponse(
            200, kind, body.decode("utf-8"), coalesced=joined, key=key)

    def _compute_diagnose(self, req: "api.DiagnoseRequest", logdir: Path,
                          windowed: bool) -> bytes:
        """Blocking pipeline run (executor thread); canonical bytes out."""
        cache_opt = (req.cache if req.cache is not None
                     else self.config.default_cache)
        if windowed:
            windows = api.diagnose_windowed(
                str(logdir), window_days=req.window_days,
                stride_days=req.stride_days, error_policy=req.error_policy,
                only=req.only, cache=cache_opt, platform=req.platform)
            payload = [{"start_day": w.start_day, "end_day": w.end_day,
                        "report": w.report} for w in windows]
            return canonical_json(payload).encode("utf-8")
        report = api.diagnose(
            str(logdir), error_policy=req.error_policy, only=req.only,
            cache=cache_opt, platform=req.platform)
        return canonical_json(report).encode("utf-8")

    async def _ep_fleet(self, request: Request) -> api.ServiceResponse:
        data = request.json()
        known = {"out", "systems", "days", "seed", "resume", "platform"}
        unknown = sorted(set(data) - known)
        if unknown:
            raise HttpError(
                400, f"unknown fleet field(s) {', '.join(unknown)}; "
                     f"expected a subset of {', '.join(sorted(known))}")
        self._admit(request)
        raw_out = str(data.get("out", ""))
        out = self._resolve_dir(raw_out, "out")
        try:
            params = {
                "systems": int(data.get("systems", 100)),
                "days": int(data.get("days", 2)),
                "seed": int(data.get("seed", 7)),
                "resume": bool(data.get("resume", False)),
                "platform": data.get("platform"),
            }
        except (TypeError, ValueError) as exc:
            raise HttpError(400, f"malformed fleet parameter: {exc}")
        key = hashlib.sha256(canonical_json(
            {"endpoint": "fleet", "out": str(out), **params}
        ).encode("utf-8")).hexdigest()

        async def compute() -> bytes:
            return await self._offload(self._compute_fleet, out, params)

        try:
            # coalesced (concurrent identical runs share one supervisor)
            # but never report-cached: a fleet run owns on-disk artifacts
            # and resume semantics that a byte cache would misrepresent
            body, joined = await self.coalescer.run(key, compute)
        except HttpError:
            raise
        except JournalError as exc:
            # a refused resume is the client's conflict, not a server
            # fault; name the fleet as the client did, never by the
            # server-side path
            raise HttpError(409, f"fleet journal in {raw_out!r} "
                                 f"{exc.detail}")
        except (ValueError, KeyError, OSError) as exc:
            raise HttpError(400, str(exc))
        return api.ServiceResponse(
            200, "fleet", body.decode("utf-8"), coalesced=joined, key=key)

    def _compute_fleet(self, out: Path, params: dict) -> bytes:
        report = api.diagnose_fleet(
            out, systems=params["systems"], days=params["days"],
            seed=params["seed"], resume=params["resume"],
            platform=params["platform"])
        return canonical_json(report.to_jsonable()).encode("utf-8")

    async def _ep_health(self, request: Request) -> api.ServiceResponse:
        # deliberately unthrottled: health probes must not spend quota
        payload = {
            "status": "draining" if self._draining else "ok",
            "requests": self.requests,
            "errors": self.errors,
            "endpoints": dict(sorted(self.endpoint_counts.items())),
            "active_requests": self._active,
            "in_flight_runs": self.coalescer.in_flight,
            "coalesce": {"flights": self.coalescer.flights,
                         "coalesced": self.coalescer.coalesced},
            "cache": self.cache.stats(),
            "quota": self.quotas.stats(),
            "backpressure": self.backpressure.stats(),
        }
        return api.ServiceResponse(200, "health", canonical_json(payload))

    async def _ep_schema(self, request: Request) -> api.ServiceResponse:
        self._admit(request)
        if self._schema_text is None:
            self._schema_text = canonical_json(api.report_schema())
        return api.ServiceResponse(200, "schema", self._schema_text)

    async def _ep_alerts(self, request: Request,
                         writer: asyncio.StreamWriter) -> None:
        """Chunked ndjson push of a watch directory's alerts.jsonl."""
        self._admit(request)
        out = self._resolve_dir(request.query.get("out", ""), "out")
        alerts = out / "alerts.jsonl"
        try:
            poll = float(request.query.get("poll", self.config.stream_poll))
        except ValueError:
            raise HttpError(400, "malformed poll value")
        idle_limit: Optional[int] = None
        if "idle_polls" in request.query:
            try:
                idle_limit = int(request.query["idle_polls"])
            except ValueError:
                raise HttpError(400, "malformed idle_polls value")
        await start_chunked(writer)
        offset = 0
        idle = 0
        while not writer.is_closing():
            data = b""
            if alerts.is_file():
                with alerts.open("rb") as fh:
                    fh.seek(offset)
                    data = fh.read()
            newline = data.rfind(b"\n")
            if newline >= 0:
                # push only complete lines; a torn tail waits for its poll
                complete = data[:newline + 1]
                offset += len(complete)
                idle = 0
                await write_chunk(writer, complete)
            else:
                idle += 1
            if self._draining:
                break
            if idle_limit is not None and idle >= idle_limit:
                break
            await asyncio.sleep(max(poll, 0.01))
        await end_chunked(writer)

    # ------------------------------------------------------------------
    # connection handling

    def _response_headers(self, response: api.ServiceResponse) -> dict:
        headers: dict[str, str] = {}
        if response.key:
            headers["X-Request-Key"] = response.key
        if response.kind in ("report", "windows"):
            headers["X-Cache"] = "hit" if response.cached else "miss"
        if response.coalesced:
            headers["X-Coalesced"] = "1"
        return headers

    async def _dispatch(self, request: Request,
                        writer: asyncio.StreamWriter,
                        keep_alive: bool) -> bool:
        """Route and answer one request; returns whether to keep alive."""
        route = self.router.resolve(request)
        self.requests += 1
        self.endpoint_counts[route.name] = (
            self.endpoint_counts.get(route.name, 0) + 1)
        if OBS.enabled:
            OBS.metrics.gauge("serve.in_flight").set(self._active)
        started = time.perf_counter()
        try:
            if route.streaming:
                await route.handler(request, writer)
                return False  # chunked responses close the connection
            response = await route.handler(request)
            writer.write(response_bytes(
                response.status, response.body_bytes,
                self._response_headers(response), keep_alive=keep_alive))
            await writer.drain()
            return keep_alive
        finally:
            if OBS.enabled:
                OBS.metrics.histogram(
                    f"serve.latency.{route.name}").observe(
                        time.perf_counter() - started)

    async def _write_error(self, writer: asyncio.StreamWriter,
                           exc: HttpError, keep_alive: bool) -> None:
        try:
            writer.write(response_bytes(
                exc.status, error_body(exc.detail), exc.headers,
                keep_alive=keep_alive))
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            while not writer.is_closing():
                try:
                    request = await read_request(reader,
                                                 self.config.max_body)
                except HttpError as exc:
                    await self._write_error(writer, exc, keep_alive=False)
                    break
                if request is None:
                    break
                keep = request.keep_alive and not self._draining
                self._active += 1
                try:
                    keep = await self._dispatch(request, writer, keep)
                except HttpError as exc:
                    await self._write_error(writer, exc, keep_alive=keep)
                except (ConnectionResetError, BrokenPipeError):
                    break
                except Exception as exc:  # the 500 of last resort
                    self.errors += 1
                    self._count("serve.errors")
                    await self._write_error(
                        writer,
                        HttpError(500, f"internal error: {exc}"),
                        keep_alive=False)
                    keep = False
                finally:
                    self._active -= 1
                    if OBS.enabled:
                        OBS.metrics.gauge(
                            "serve.in_flight").set(self._active)
                    if self._draining and self._active == 0:
                        self._idle.set()
                if not keep:
                    break
        except asyncio.CancelledError:
            pass  # shutdown cancelling an idle keep-alive reader
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    def _client_connected(self, reader: asyncio.StreamReader,
                          writer: asyncio.StreamWriter) -> None:
        # tracked tasks, so drain can cancel idle keep-alive readers
        task = asyncio.get_running_loop().create_task(
            self._handle_connection(reader, writer))
        self._conn_tasks.add(task)
        task.add_done_callback(self._conn_tasks.discard)

    # ------------------------------------------------------------------
    # lifecycle

    async def start(self) -> "DiagnosisService":
        """Bind the socket and start accepting; returns self."""
        self._root = Path(self.config.root).resolve()
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.max_workers,
            thread_name_prefix="repro-serve")
        self._server = await asyncio.start_server(
            self._client_connected, self.config.host, self.config.port)
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        if self.config.announce:
            print(f"serving on http://{self.host}:{self.port}", flush=True)
        return self

    async def shutdown(self) -> None:
        """Drain: stop accepting, finish in-flight, close everything."""
        if self._draining:
            return
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._active == 0:
            self._idle.set()
        try:
            await asyncio.wait_for(self._idle.wait(),
                                   self.config.drain_grace)
            self.drained = True
        except asyncio.TimeoutError:
            self.drained = False
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        if self._executor is not None:
            self._executor.shutdown(wait=True)
        self._stopped.set()

    def report(self) -> ServeReport:
        return ServeReport(
            host=self.host, port=self.port, requests=self.requests,
            endpoints=dict(sorted(self.endpoint_counts.items())),
            cache=self.cache.stats(),
            coalesce={"flights": self.coalescer.flights,
                      "coalesced": self.coalescer.coalesced},
            quota=self.quotas.stats(),
            backpressure=self.backpressure.stats(),
            errors=self.errors, drained=self.drained)

    async def run_async(self) -> ServeReport:
        """Start, serve until SIGTERM/SIGINT, drain, report."""
        await self.start()
        loop = asyncio.get_running_loop()
        installed = []
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(
                    sig, lambda: asyncio.ensure_future(self.shutdown()))
                installed.append(sig)
            except (NotImplementedError, RuntimeError, ValueError):
                pass  # non-main thread or unsupported platform
        try:
            await self._stopped.wait()
        finally:
            for sig in installed:
                loop.remove_signal_handler(sig)
        return self.report()


def run_service(config: Optional[ServiceConfig] = None) -> ServeReport:
    """Blocking entry point: serve until a signal, return the report."""
    return asyncio.run(DiagnosisService(config).run_async())
