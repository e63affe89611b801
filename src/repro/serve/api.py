"""The HTTP/JSON face of the experiment service (stdlib only).

:class:`ExperimentService` ties the durable :class:`JobStore`, the
spawn-based :class:`WorkerPool`, per-tenant :class:`RunCatalog` roots,
and cached :class:`AnalysisEngine`\\ s behind a small REST surface on a
:class:`ThreadingHTTPServer`:

====================================  ========================================
``POST /v1/jobs``                     submit a job (priority, depends_on)
``GET /v1/jobs``                      job table (``?state=``, ``?format=text``)
``GET /v1/jobs/{id}``                 one job's durable state
``GET /v1/jobs/{id}/events``          live progress as Server-Sent Events
``POST /v1/jobs/{id}/cancel``         cancel a queued or running job
``GET /v1/runs``                      browse catalog runs (``?catalog=``)
``GET /v1/analysis/{run}/{pipeline}`` cached analysis query (ETag / 304)
``GET /v1/metrics``                   the service's obs snapshot
``GET /v1/status``                    daemon health + job counts
====================================  ========================================

Analysis queries never re-simulate: they are answered from the
signature-guarded ``analysis.json`` cache next to each run manifest, and
the response carries a strong ETag derived from the engine's cache
signature (trace chunk CRCs + scenario fingerprint) plus the pipeline
name/version and any pushdown predicates.  A repeat request with
``If-None-Match`` on an unchanged run is a ``304 Not Modified`` that
touches only file headers.

The events route is a plain-``ThreadingHTTPServer`` SSE stream: one
``id:``/``event:``/``data:`` frame per progress event off the job's
append-only event log, resumable via ``Last-Event-ID`` (or ``?after=``),
closed when the job reaches a terminal state.  When a ``tenants.toml``
exists in the service root, **every** ``/v1/jobs`` route — and the
catalog read routes ``/v1/runs`` and ``/v1/analysis/...`` —
authenticates ``Authorization: Bearer`` tokens: submission enforces
per-tenant quotas, the job table and the runs index are scoped to the
caller's own jobs and catalogs, and reading, cancelling, or streaming
a job — or reading a catalog — another tenant owns is 403 — see
:mod:`repro.serve.tenants`.
"""

from __future__ import annotations

import hashlib
import json
import re
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Dict, Optional, Union
from urllib.parse import parse_qs, urlsplit

from repro.obs.registry import FOLD_EVERY
from repro.serve.errors import AuthError, ServeError
from repro.serve.jobs import (
    ACTIVE_STATES,
    Job,
    JobError,
    JobStore,
    STATES,
    render_jobs_table,
)
from repro.serve.pool import (
    CATALOGS_DIR,
    DEFAULT_CATALOG,
    JOBS_DIR,
    WorkerPool,
    catalog_root,
)
from repro.serve.tenants import Tenants, directory_bytes

SERVER_NAME = "repro-serve/1"
#: filename in the service root that switches tenant enforcement on
TENANTS_FILE = "tenants.toml"
#: concurrent SSE streams; each pins one server thread until terminal
MAX_EVENT_STREAMS = 32
#: floor/ceiling for the ``?poll=`` follow interval (seconds)
MIN_EVENT_POLL, MAX_EVENT_POLL = 0.05, 5.0


class ApiError(Exception):
    """An error with an HTTP status (and machine code) attached."""

    def __init__(self, status: int, message: str, code: str = "error"):
        super().__init__(message)
        self.status = status
        self.code = code


class ExperimentService:
    """One daemon: a service root, its jobs, workers, and HTTP server.

    The service root contains ``jobs/`` (durable job state) and
    ``catalogs/<tenant>/`` (one :class:`RunCatalog` per tenant).  State
    is all on disk: stopping the daemon and starting a new one on the
    same root reloads every job — queued work is never lost.
    """

    def __init__(self, root: Union[str, Path], host: str = "127.0.0.1",
                 port: int = 0, workers: int = 2, obs=None,
                 tenants: Optional[Union[str, Path, Tenants]] = None):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        (self.root / JOBS_DIR).mkdir(exist_ok=True)
        (self.root / CATALOGS_DIR).mkdir(exist_ok=True)
        if obs is None:
            from repro.obs import MetricsRegistry
            obs = MetricsRegistry()
        self.registry = obs
        if isinstance(tenants, Tenants):
            self.tenants = tenants
        else:
            # an explicitly named tenants file must exist: a typo'd
            # path silently starting an open daemon would fail open
            self.tenants = Tenants.load(tenants or
                                        self.root / TENANTS_FILE,
                                        required=tenants is not None)
        self.store = JobStore(self.root / JOBS_DIR)
        self.pool = WorkerPool(self.root, self.store, workers=workers,
                               obs=self.registry, tenants=self.tenants)
        self.started_at = time.time()
        self._engines: Dict[str, object] = {}
        self._engines_lock = threading.Lock()
        self._stream_slots = threading.BoundedSemaphore(MAX_EVENT_STREAMS)
        handler = type("BoundHandler", (_Handler,), {"service": self})
        self.httpd = ThreadingHTTPServer((host, port), handler)
        self.httpd.daemon_threads = True
        self.host, self.port = self.httpd.server_address[:2]
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle ------------------------------------------------------------
    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ExperimentService":
        """Start pool + HTTP server on background threads (non-blocking)."""
        self.pool.start()
        self._thread = threading.Thread(target=self.httpd.serve_forever,
                                        name="repro-serve-http",
                                        daemon=True)
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Blocking variant for the CLI daemon."""
        self.pool.start()
        try:
            self.httpd.serve_forever()
        finally:
            self.pool.stop(wait=False)

    def shutdown(self, wait_jobs: bool = False) -> None:
        self.httpd.shutdown()
        self.httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
        self.pool.stop(wait=wait_jobs)

    # -- shared backends ------------------------------------------------------
    def catalog(self, name: str = DEFAULT_CATALOG):
        from repro.store import RunCatalog
        return RunCatalog(catalog_root(self.root, name))

    def engine(self, name: str = DEFAULT_CATALOG):
        """One cached :class:`AnalysisEngine` per tenant catalog."""
        with self._engines_lock:
            engine = self._engines.get(name)
            if engine is None:
                from repro.analysis import AnalysisEngine
                engine = AnalysisEngine(self.catalog(name), workers=1,
                                        cache=True, obs=self.registry)
                self._engines[name] = engine
            return engine

    def catalogs(self) -> list:
        base = self.root / CATALOGS_DIR
        return sorted(p.name for p in base.iterdir() if p.is_dir()) \
            if base.is_dir() else []

    # -- operations (HTTP-independent, reused by tests) -----------------------
    def submit(self, payload: dict, tenant=None) -> Job:
        """Validate a submission payload, persist it, queue it.

        ``tenant`` is the authenticated :class:`~repro.serve.tenants.
        Tenant` (or ``None`` on an open daemon): its catalog ownership
        and queued/disk quotas gate the submission, and its name is
        stamped on the job for the scheduler's ``max_running`` cap.
        """
        if not isinstance(payload, dict):
            raise ApiError(400, "body must be a JSON object")
        from repro.config import ConfigError, Scenario
        grid = payload.get("grid") or []
        if not isinstance(grid, list) or \
                not all(isinstance(g, str) for g in grid):
            raise ApiError(400, "grid must be a list of 'axis=v1,v2' "
                                "strings")
        kind = payload.get("kind") or ("sweep" if grid else "experiment")
        if kind not in ("experiment", "sweep"):
            raise ApiError(400, f"unknown job kind {kind!r}")
        if kind == "sweep" and not grid:
            raise ApiError(400, "sweep jobs need at least one grid axis")
        depends_on = payload.get("depends_on") or []
        if not isinstance(depends_on, list) or \
                not all(isinstance(d, str) for d in depends_on):
            raise ApiError(400, "depends_on must be a list of job ids")
        scenario_data = payload.get("scenario")
        try:
            if isinstance(scenario_data, str):       # TOML text
                scenario = Scenario.from_toml(scenario_data)
            elif scenario_data is not None:
                scenario = Scenario.from_dict(scenario_data)
            else:
                scenario = Scenario()
            default_catalog = tenant.default_catalog if tenant \
                else DEFAULT_CATALOG
            catalog = str(payload.get("catalog") or default_catalog)
            catalog_root(self.root, catalog)         # validates the name
            experiment = str(payload.get("experiment") or "baseline")
            from repro.core.experiments import EXPERIMENTS, check_duration
            if experiment not in EXPERIMENTS + ("serial",):
                raise ApiError(400,
                               f"unknown experiment {experiment!r}")
            duration = payload.get("duration")
            if duration is not None:
                duration = float(duration)
            check_duration(experiment, duration)
            priority = int(payload.get("priority") or 0)
            if kind == "sweep":
                from repro.config import parse_axis_spec, expand_grid
                expand_grid(scenario,
                            [parse_axis_spec(s) for s in grid])
        except ConfigError as exc:
            raise ApiError(400, f"bad scenario: {exc}") from exc
        except JobError as exc:
            raise ApiError(400, str(exc)) from exc
        except (TypeError, ValueError) as exc:
            raise ApiError(400, str(exc)) from exc
        self._authorize_submit(tenant, catalog)
        spec = {"scenario": scenario.to_dict(),
                "experiment": experiment,
                "duration": duration,
                "catalog": catalog}
        if kind == "sweep":
            spec["grid"] = list(grid)
            spec["parallel"] = bool(payload.get("parallel", False))
            if payload.get("workers") is not None:
                spec["workers"] = int(payload["workers"])
        try:
            job = self.store.create(
                kind, spec, priority=priority, depends_on=depends_on,
                tenant=tenant.name if tenant else None)
        except JobError as exc:      # unknown dependency id
            raise ApiError(400, str(exc)) from exc
        self.store.events(job.id).append(
            "queued", job=job.id, kind=kind, priority=priority,
            depends_on=list(depends_on))
        self.pool.submit(job.id)
        self.registry.counter("serve.jobs_submitted").child(kind).inc()
        if tenant is not None:
            self.registry.counter("serve.tenant.jobs_submitted") \
                .child(tenant.name).inc()
        return job

    def _authorize_submit(self, tenant, catalog: str) -> None:
        """Enforce the tenant's catalog ownership and quotas (403/429)."""
        if tenant is None:
            return
        queued = sum(1 for job in self.store.jobs("queued")
                     if job.tenant == tenant.name)
        usage = directory_bytes(catalog_root(self.root, catalog))
        self.registry.gauge("serve.tenant.catalog_bytes") \
            .child(tenant.name).set(usage)
        try:
            self.tenants.authorize_submit(tenant, catalog, queued, usage)
        except ServeError as exc:
            reason = "catalog" if exc.status == 403 else "quota"
            self.registry.counter("serve.tenant.rejected") \
                .child(reason).inc()
            raise

    def cancel(self, job_id: str) -> Job:
        try:
            return self.pool.cancel(job_id)
        except JobError as exc:
            message = str(exc)
            if "no job" in message:
                raise ApiError(404, message,
                               code="job_not_found") from exc
            raise ApiError(409, message) from exc

    def status(self) -> dict:
        counts = self.store.counts()
        return {"server": SERVER_NAME,
                "root": str(self.root),
                "uptime_seconds": round(time.time() - self.started_at, 3),
                "workers": self.pool.workers,
                "queue_depth": self.pool.depth(),
                "running": self.pool.running(),
                "jobs": counts,
                "tenants": sorted(self.tenants.tenants)
                if self.tenants.enforced else None,
                "catalogs": self.catalogs()}

    def runs_index(self, catalog: Optional[str] = None) -> dict:
        names = [catalog] if catalog else self.catalogs()
        out = {}
        for name in names:
            cat = self.catalog(name)
            rows = []
            for run_id in cat.runs():
                manifest = cat.manifest(run_id)
                rows.append({
                    "run": run_id,
                    "name": manifest.get("name", run_id),
                    "nnodes": manifest.get("nnodes"),
                    "seed": manifest.get("seed"),
                    "records": manifest.get("records", 0),
                    "duration": manifest.get("duration"),
                    "fingerprint": _scenario_fingerprint(manifest),
                })
            out[name] = rows
        return {"catalogs": out}

    def analysis_etag(self, catalog: str, run_id: str, pipeline,
                      predicates: dict) -> str:
        """Strong ETag: engine cache signature + pipeline + predicates."""
        signature = self.engine(catalog).signature(run_id)
        pred = ",".join(f"{k}={v}" for k, v in sorted(predicates.items())
                        if v is not None)
        seed = f"{signature}|{pipeline.name}@v{pipeline.version}|{pred}"
        return '"' + hashlib.sha1(seed.encode()).hexdigest()[:20] + '"'


def _scenario_fingerprint(manifest: dict) -> Optional[str]:
    data = manifest.get("scenario")
    if not data:
        return None
    try:
        from repro.config import Scenario
        return Scenario.from_dict(data, validate=False).fingerprint()
    except Exception:
        return None


# -- request handling -----------------------------------------------------------
_ROUTES = (
    ("GET", re.compile(r"^/v1/status/?$"), "_get_status"),
    ("GET", re.compile(r"^/v1/metrics/?$"), "_get_metrics"),
    ("GET", re.compile(r"^/v1/jobs/?$"), "_get_jobs"),
    ("POST", re.compile(r"^/v1/jobs/?$"), "_post_jobs"),
    ("GET", re.compile(r"^/v1/jobs/(?P<job_id>[\w.-]+)/?$"), "_get_job"),
    ("GET", re.compile(r"^/v1/jobs/(?P<job_id>[\w.-]+)/events/?$"),
     "_get_job_events"),
    ("POST", re.compile(r"^/v1/jobs/(?P<job_id>[\w.-]+)/cancel/?$"),
     "_post_cancel"),
    ("GET", re.compile(r"^/v1/runs/?$"), "_get_runs"),
    ("GET", re.compile(r"^/v1/analysis/(?P<run_id>[\w@,=.+-]+)/"
                       r"(?P<pipeline>[\w-]+)/?$"), "_get_analysis"),
)


class _Handler(BaseHTTPRequestHandler):
    """Routes ``/v1/*`` onto the bound :class:`ExperimentService`."""

    service: ExperimentService          # bound by ExperimentService
    server_version = SERVER_NAME
    protocol_version = "HTTP/1.1"

    # -- plumbing -------------------------------------------------------------
    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass                               # quiet; obs counts requests

    def do_GET(self) -> None:
        self._dispatch("GET")

    def do_POST(self) -> None:
        self._dispatch("POST")

    def _dispatch(self, method: str) -> None:
        split = urlsplit(self.path)
        self.query = {k: v[-1] for k, v in
                      parse_qs(split.query).items()}
        started = time.perf_counter()
        route = "unmatched"
        registry = self.service.registry
        try:
            for verb, pattern, handler_name in _ROUTES:
                match = pattern.match(split.path)
                if match:
                    if verb != method:
                        continue
                    route = handler_name.strip("_")
                    getattr(self, handler_name)(**match.groupdict())
                    break
            else:
                raise ApiError(404, f"no route {method} {split.path}")
        except ApiError as exc:
            self._send_json({"error": str(exc), "code": exc.code},
                            status=exc.status)
        except ServeError as exc:
            # the typed hierarchy (auth, quota, cycle): status + code
            self._send_json({"error": exc.message, "code": exc.code},
                            status=exc.status or 500)
        except BrokenPipeError:
            pass
        except Exception as exc:           # never take the daemon down
            registry.counter("serve.errors").inc()
            self._send_json(
                {"error": f"{type(exc).__name__}: {exc}"}, status=500)
        finally:
            registry.counter("serve.requests").child(route).inc()
            seconds = registry.histogram("serve.request_seconds") \
                .child(route)
            seconds.observe(time.perf_counter() - started)
            if len(seconds.raw) >= FOLD_EVERY:
                seconds.fold()

    def _send_json(self, payload, status: int = 200,
                   headers: Optional[dict] = None) -> None:
        body = json.dumps(payload, indent=2).encode() + b"\n"
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_text(self, text: str, status: int = 200) -> None:
        body = text.encode() + b"\n"
        self.send_response(status)
        self.send_header("Content-Type", "text/plain; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self) -> dict:
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise ApiError(400, "empty request body")
        try:
            return json.loads(raw)
        except ValueError as exc:
            raise ApiError(400, f"bad JSON body: {exc}") from exc

    # -- routes ---------------------------------------------------------------
    def _get_status(self) -> None:
        self._send_json(self.service.status())

    def _get_metrics(self) -> None:
        self._send_json(self.service.registry.snapshot())

    def _tenant(self):
        """Authenticate the request (None on an open daemon).

        Every ``/v1/jobs`` route calls this: on a tenants-enforcing
        daemon a missing, malformed, or unknown bearer token is a 401
        no matter the verb — listing, reading, streaming, and
        cancelling jobs are as gated as submitting them.
        """
        return self.service.tenants.authenticate(
            self.headers.get("Authorization"))

    def _get_jobs(self) -> None:
        tenant = self._tenant()
        state = self.query.get("state")
        if state is not None and state not in STATES + ("active",):
            raise ApiError(400, f"unknown state {state!r}; choose from "
                                f"{', '.join(STATES)}")
        jobs = self.service.store.jobs()
        if tenant is not None:
            # scope the table to the caller's own jobs (plus un-owned
            # ones submitted before tenancy was switched on)
            jobs = [j for j in jobs if j.tenant in (None, tenant.name)]
        if state == "active":
            jobs = [j for j in jobs if j.state in ACTIVE_STATES]
        elif state:
            jobs = [j for j in jobs if j.state == state]
        if self.query.get("format") == "text":
            self._send_text(render_jobs_table(jobs))
        else:
            self._send_json({"jobs": [j.to_dict() for j in jobs]})

    def _post_jobs(self) -> None:
        job = self.service.submit(self._read_body(),
                                  tenant=self._tenant())
        self._send_json(job.to_dict(), status=201,
                        headers={"Location": f"/v1/jobs/{job.id}"})

    def _load_job(self, job_id: str) -> Job:
        """Authenticate, load, and authorize one job (401/404/403)."""
        tenant = self._tenant()
        try:
            job = self.service.store.load(job_id)
        except JobError as exc:
            raise ApiError(404, str(exc), code="job_not_found") from exc
        if tenant is not None and job.tenant not in (None, tenant.name):
            raise AuthError(f"job {job_id} belongs to another tenant",
                            status=403)
        return job

    def _get_job(self, job_id: str) -> None:
        self._send_json(self._load_job(job_id).to_dict())

    def _get_job_events(self, job_id: str) -> None:
        """Stream a job's progress events as Server-Sent Events.

        Resumable: ``Last-Event-ID`` (per the SSE spec) or ``?after=N``
        skips already-seen events.  The stream ends — and the connection
        closes, which is what delimits the body — once the job is
        terminal and its log is drained.  ``?poll=`` tunes the follow
        latency for tests (clamped to [``MIN_EVENT_POLL``,
        ``MAX_EVENT_POLL``] so ``poll=0`` cannot busy-spin a server
        thread); at most ``MAX_EVENT_STREAMS`` streams run at once
        (503 beyond that), since each pins one server thread.
        """
        job = self._load_job(job_id)
        try:
            after = max(int(self.headers.get("Last-Event-ID")
                            or self.query.get("after") or 0), 0)
            poll = float(self.query.get("poll") or 0.2)
        except ValueError as exc:
            raise ApiError(400, f"bad event cursor: {exc}") from exc
        poll = min(max(poll, MIN_EVENT_POLL), MAX_EVENT_POLL)
        if not self.service._stream_slots.acquire(blocking=False):
            raise ApiError(503, "too many concurrent event streams",
                           code="busy")
        try:
            self._stream_job_events(job, job_id, after, poll)
        finally:
            self.service._stream_slots.release()

    def _stream_job_events(self, job: Job, job_id: str,
                           after: int, poll: float) -> None:
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-cache")
        self.send_header("Connection", "close")
        self.end_headers()
        self.close_connection = True
        self.service.registry.counter("serve.event_streams").inc()
        log = self.service.store.events(job_id)

        def job_terminal() -> bool:
            try:
                return self.service.store.load(job_id).terminal
            except JobError:
                return True
        sent = 0
        try:
            for record in log.follow(after=after, poll=poll,
                                     done=job_terminal):
                frame = (f"id: {record['id']}\n"
                         f"event: {record['event']}\n"
                         f"data: {json.dumps(record)}\n\n")
                self.wfile.write(frame.encode())
                self.wfile.flush()
                sent += 1
                self.service.registry.counter("serve.events_sent").inc()
        except (BrokenPipeError, ConnectionResetError):
            return                    # client went away mid-stream
        if sent == 0 and job.terminal and not log.read():
            # a job that never ran (e.g. cancelled pre-start on an old
            # root) has no event log at all: synthesize its terminal
            # event so such streams still end with one
            frame = (f"event: {job.state}\n"
                     f"data: {json.dumps({'job': job_id, 'event': job.state})}"
                     "\n\n")
            self.wfile.write(frame.encode())
            self.wfile.flush()

    def _post_cancel(self, job_id: str) -> None:
        self._load_job(job_id)        # 401/404/403 before any action
        self._send_json(self.service.cancel(job_id).to_dict())

    def _get_runs(self) -> None:
        tenant = self._tenant()
        catalog = self.query.get("catalog")
        if catalog is not None:
            # authorization before existence: a foreign catalog 403s
            # whether or not it exists (no probing for names)
            if tenant is not None:
                self.service.tenants.authorize_read(tenant, catalog)
            if catalog not in self.service.catalogs():
                raise ApiError(404, f"no catalog {catalog!r}")
            self._send_json(self.service.runs_index(catalog))
            return
        if tenant is None:
            self._send_json(self.service.runs_index())
            return
        # no explicit catalog on a tenants-enforcing daemon: index only
        # the caller's own catalogs
        catalogs: dict = {}
        for name in self.service.catalogs():
            if tenant.owns_catalog(name):
                catalogs.update(
                    self.service.runs_index(name)["catalogs"])
        self._send_json({"catalogs": catalogs})

    def _get_analysis(self, run_id: str, pipeline: str) -> None:
        from repro.analysis import make_pipelines
        tenant = self._tenant()
        try:
            pipe = make_pipelines([pipeline])[0]
        except ValueError as exc:
            raise ApiError(404, str(exc)) from exc
        catalog = self.query.get("catalog")
        if catalog is None:
            catalog = tenant.default_catalog if tenant is not None \
                else DEFAULT_CATALOG
        if tenant is not None:
            self.service.tenants.authorize_read(tenant, catalog)
        predicates = self._predicates()
        service = self.service
        try:
            etag = service.analysis_etag(catalog, run_id, pipe,
                                         predicates)
        except FileNotFoundError as exc:
            raise ApiError(
                404, f"no run {run_id!r} in catalog {catalog!r}") from exc
        if self._etag_matches(etag):
            service.registry.counter("serve.analysis_304s").inc()
            self.send_response(304)
            self.send_header("ETag", etag)
            self.end_headers()
            return
        engine = service.engine(catalog)
        result = engine.analyze(run_id, [pipe], **predicates)[pipe.name]
        payload = {
            "run": run_id,
            "catalog": catalog,
            "pipeline": pipe.name,
            "version": pipe.version,
            "predicates": {k: v for k, v in predicates.items()
                           if v is not None},
            "result": None if result is None else pipe.to_json(result),
        }
        self._send_json(payload, headers={"ETag": etag})

    # -- helpers --------------------------------------------------------------
    def _predicates(self) -> dict:
        query = self.query
        try:
            t0 = float(query["t0"]) if "t0" in query else None
            t1 = float(query["t1"]) if "t1" in query else None
            node = int(query["node"]) if "node" in query else None
        except ValueError as exc:
            raise ApiError(400, f"bad predicate: {exc}") from exc
        write: Optional[bool] = None
        rw = query.get("rw")
        if rw == "reads":
            write = False
        elif rw == "writes":
            write = True
        elif rw is not None:
            raise ApiError(400, "rw must be 'reads' or 'writes'")
        return {"t0": t0, "t1": t1, "node": node, "write": write}

    def _etag_matches(self, etag: str) -> bool:
        header = self.headers.get("If-None-Match")
        if not header:
            return False
        candidates = [c.strip() for c in header.split(",")]
        return "*" in candidates or etag in candidates
