"""The worker pool: a priority/DAG scheduler over spawned processes.

Each job runs in its own ``multiprocessing`` (spawn) process so a
simulation crash, a hard kill, or an out-of-memory death never takes the
daemon down.  The worker owns the ``running -> finished/failed`` edge of
the job file (written durably via :class:`~repro.serve.jobs.JobStore`);
the pool's scheduler thread only spawns, reaps, and reconciles — if a
worker vanishes without writing a terminal state, the pool records
``failed`` (or ``cancelled`` when the pool itself terminated it).

Scheduling is not FIFO: each pass dispatches the highest-``priority``
*runnable* queued job (ties break by job id, i.e. submit order).  A job
with ``depends_on`` is held until every dependency is ``finished``; a
dependency that ends ``failed``/``cancelled``/``blocked`` transitions
the dependent to ``blocked`` (see :meth:`JobStore.readiness` — the
verdict is re-derived from job files each pass, so a daemon crash
between passes loses nothing).  Tenants with a ``max_running`` limit
are likewise held, not rejected, while at their concurrency cap.

While a job runs its worker appends progress events — ``started``, one
``point`` per grid point with the simulator's achieved events/sec, and
a terminal ``finished``/``failed`` — to the job's
:class:`~repro.serve.events.EventLog`, which the API streams as
Server-Sent Events.

Execution is :func:`repro.config.run_sweep`, storing every run in
the job's multi-tenant catalog root: a ``sweep`` job over its grid
axes, an ``experiment`` job as the one point of a sweep with no axes.
The stamped ``SweepResult.run_id``s map points back to stored runs.
"""

from __future__ import annotations

import multiprocessing as mp
import threading
import time
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple, Union

from repro.serve.jobs import Job, JobError, JobStore

#: subdirectory of the service root holding per-tenant run catalogs
CATALOGS_DIR = "catalogs"
#: subdirectory of the service root holding job state files
JOBS_DIR = "jobs"
#: subdirectory of the service root holding per-job checkpoint files
CHECKPOINTS_DIR = "checkpoints"
DEFAULT_CATALOG = "default"
#: simulated seconds between worker checkpoints (spec key
#: ``checkpoint_every`` overrides; 0/false disables)
DEFAULT_CHECKPOINT_EVERY = 60.0


def catalog_root(root: Union[str, Path], name: str = DEFAULT_CATALOG) -> Path:
    """The run-catalog directory of one tenant under a service root."""
    if not name or not all(c.isalnum() or c in "-_." for c in name):
        raise JobError(f"bad catalog name {name!r}")
    return Path(root) / CATALOGS_DIR / name


def execute_job(job: Job, root: Union[str, Path],
                progress: Optional[Callable[..., object]] = None) -> dict:
    """Run one job's work in-process; returns ``{summary, run_ids}``.

    Top-level and importable so both the spawned worker and direct
    callers (tests, a future synchronous mode) share one code path.
    ``progress(event, **data)`` is called per finished run when given —
    the worker wires it to the job's event log.

    Both kinds run through :func:`repro.config.run_sweep`: an
    experiment job is a sweep of one point with no axes.  Workers
    checkpoint periodically (every ``checkpoint_every`` simulated
    seconds from the spec, default :data:`DEFAULT_CHECKPOINT_EVERY`; 0
    disables) into ``<root>/checkpoints/<job-id>/``.  A job re-queued
    after a worker death resumes from those files: finished runs are
    recalled from their done markers, the interrupted one continues
    bit-identically from its last checkpoint.  The directory is removed
    once the job finishes.
    """
    import shutil

    from repro.config import Scenario, parse_axis_spec, run_sweep

    emit = progress or (lambda event, **data: None)
    spec = job.spec
    scenario = Scenario.from_dict(spec["scenario"]) \
        if spec.get("scenario") else Scenario()
    experiment = spec.get("experiment", "baseline")
    sink = catalog_root(root, spec.get("catalog", DEFAULT_CATALOG))
    sink.mkdir(parents=True, exist_ok=True)
    every = spec.get("checkpoint_every", DEFAULT_CHECKPOINT_EVERY) or None
    ckdir = Path(root) / CHECKPOINTS_DIR / job.id

    axes = []
    if job.kind == "sweep":
        axes = [parse_axis_spec(s) for s in spec.get("grid", [])]
        if not axes:
            raise JobError("sweep job lists no grid axes")

    def on_point(done, total, result, eps):
        emit("point", k=done, n=total,
             label=result.label if axes else experiment,
             run_id=result.run_id, events_per_sec=eps,
             metrics={k: result.metrics.get(k) for k in
                      ("total_requests", "requests_per_second")})

    results = run_sweep(scenario, axes, experiment=experiment,
                        duration=spec.get("duration"), sink=str(sink),
                        parallel=bool(spec.get("parallel", False)),
                        workers=spec.get("workers"),
                        obs=True, on_point=on_point,
                        checkpoint_every=every,
                        checkpoint_dir=str(ckdir) if every else None)
    shutil.rmtree(ckdir, ignore_errors=True)
    run_ids = [r.run_id for r in results if r.run_id]
    if not axes:
        return {"summary": results[0].metrics, "run_ids": run_ids}
    return {"summary": [r.to_dict() for r in results], "run_ids": run_ids}


def _job_main(root: str, job_id: str) -> None:
    """Worker process entry point (top level: must pickle under spawn)."""
    store = JobStore(Path(root) / JOBS_DIR)
    try:
        job = store.transition(job_id, "running",
                               pid=mp.current_process().pid)
    except JobError:
        return                    # cancelled between spawn and start
    log = store.events(job_id)
    log.append("started", job=job_id, kind=job.kind,
               experiment=job.spec.get("experiment", "baseline"),
               pid=job.pid)
    # terminal events go into the log *before* the terminal job-file
    # write: SSE followers close once the job file is terminal, so the
    # reverse order could end a stream without its terminal event
    try:
        outcome = execute_job(job, root,
                              progress=lambda event, **data:
                              log.append(event, job=job_id, **data))
    except Exception as exc:
        error = f"{type(exc).__name__}: {exc}"
        log.append("failed", job=job_id, error=error)
        try:
            store.transition(job_id, "failed", error=error)
        except JobError:
            pass                  # cancelled underneath us; keep that
        return
    log.append("finished", job=job_id, run_ids=outcome["run_ids"])
    try:
        store.transition(job_id, "finished",
                         result=outcome["summary"],
                         run_ids=outcome["run_ids"])
    except JobError:
        pass                      # cancelled in the final instants


class WorkerPool:
    """Runs up to ``workers`` concurrent job processes off the DAG.

    ``workers=0`` makes an accept-only pool: jobs queue durably but
    nothing executes — the mode a drained or restarting daemon uses, and
    what the restart-survival tests exercise.  ``tenants`` (a
    :class:`~repro.serve.tenants.Tenants`) supplies per-tenant
    ``max_running`` concurrency caps.
    """

    def __init__(self, root: Union[str, Path], store: JobStore,
                 workers: int = 2, obs=None, poll: float = 0.05,
                 tenants=None):
        self.root = Path(root)
        self.store = store
        self.workers = max(int(workers), 0)
        self.poll = poll
        self.tenants = tenants
        if obs is None:
            from repro.obs import MetricsRegistry
            obs = MetricsRegistry()
        self.registry = obs
        self._ctx = mp.get_context("spawn")
        #: queued job id -> (priority, depends_on, tenant)
        self._queue: Dict[str, Tuple[int, Tuple[str, ...],
                                     Optional[str]]] = {}
        self._procs: Dict[str, object] = {}
        #: running job id -> tenant (for max_running accounting)
        self._proc_tenants: Dict[str, Optional[str]] = {}
        self._cancelling: set = set()
        self._cond = threading.Condition()
        self._stopping = False
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle ------------------------------------------------------------
    def start(self) -> "WorkerPool":
        """Recover durable state and start the scheduler thread."""
        for job in self.store.recover():
            with self._cond:
                self._enqueue(job)
        self._observe_depth()
        if self.workers > 0:
            self._thread = threading.Thread(target=self._run,
                                            name="repro-serve-pool",
                                            daemon=True)
            self._thread.start()
        return self

    def stop(self, wait: bool = True, timeout: float = 30.0) -> None:
        """Stop scheduling; optionally wait for running jobs to finish."""
        with self._cond:
            self._stopping = True
            self._cond.notify_all()
        if self._thread is not None:
            self._thread.join(timeout=timeout)
        if wait:
            for proc in list(self._procs.values()):
                proc.join(timeout=timeout)
            self._reap()

    # -- queue ----------------------------------------------------------------
    def submit(self, job_id: str) -> None:
        with self._cond:
            self._enqueue(self.store.load(job_id))
            self._cond.notify_all()
        self._observe_depth()

    def cancel(self, job_id: str) -> Job:
        """Cancel a queued or running job; returns its new state."""
        job = self.store.load(job_id)
        if job.terminal:
            raise JobError(f"job {job_id} already {job.state}")
        with self._cond:
            self._queue.pop(job_id, None)
            proc = self._procs.get(job_id)
            if proc is not None:
                self._cancelling.add(job_id)
                proc.terminate()
        if proc is None:
            # not started (or a worker that just exited): mark directly
            # (event before state — see _job_main on ordering)
            self.store.events(job_id).append("cancelled", job=job_id)
            job = self.store.transition(job_id, "cancelled")
            self._count_terminal("cancelled")
        else:
            proc.join(timeout=10.0)
            job = self._reconcile(job_id, cancelled=True)
        self._observe_depth()
        return job

    def depth(self) -> int:
        with self._cond:
            return len(self._queue)

    def running(self) -> int:
        with self._cond:
            return len(self._procs)

    def drain(self, timeout: float = 120.0) -> None:
        """Block until queue and workers are empty (tests, shutdown)."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with self._cond:
                if not self._queue and not self._procs:
                    return
            time.sleep(self.poll)
        raise TimeoutError("worker pool did not drain in time")

    # -- scheduler ------------------------------------------------------------
    def _enqueue(self, job: Job) -> None:
        """Record a queued job's dispatch metadata (under the lock)."""
        self._queue[job.id] = (job.priority, tuple(job.depends_on),
                               job.tenant)

    def _pick_ready(self) -> Optional[str]:
        """Highest-priority runnable queued job; settles doomed ones.

        Called under the lock.  Jobs whose dependencies failed are
        transitioned to ``blocked`` right here (and dropped from the
        queue), so the cascade happens on the next scheduler pass after
        the dependency settles — and is re-derived from job files after
        a crash (see :meth:`JobStore.recover`).
        """
        dep_states: Dict[str, str] = {}
        order = sorted(self._queue,
                       key=lambda jid: (-self._queue[jid][0], jid))
        for job_id in order:
            priority, depends_on, tenant = self._queue[job_id]
            try:
                job = self.store.load(job_id)
            except JobError:
                del self._queue[job_id]
                continue
            if job.state != "queued":     # cancelled under us
                del self._queue[job_id]
                continue
            verdict, dep = self.store.readiness(job, dep_states)
            if verdict == "doomed":
                del self._queue[job_id]
                self.store.block(job_id, dep)
                self._count_terminal("blocked")
                continue
            if verdict == "held":
                continue
            limit = self.tenants.running_limit(tenant) \
                if self.tenants is not None else 0
            if limit and sum(1 for t in self._proc_tenants.values()
                             if t == tenant) >= limit:
                continue                  # at the tenant's running cap
            return job_id
        return None

    def _run(self) -> None:
        while True:
            with self._cond:
                if self._stopping:
                    return
                while len(self._procs) < self.workers:
                    job_id = self._pick_ready()
                    if job_id is None:
                        break
                    _, _, tenant = self._queue.pop(job_id)
                    proc = self._ctx.Process(
                        target=_job_main, args=(str(self.root), job_id),
                        name=f"repro-serve-{job_id}", daemon=True)
                    proc.start()
                    self._procs[job_id] = proc
                    self._proc_tenants[job_id] = tenant
                self._cond.wait(timeout=self.poll)
            self._reap()
            self._observe_depth()

    def _reap(self) -> None:
        with self._cond:
            done = [(job_id, proc) for job_id, proc in self._procs.items()
                    if not proc.is_alive()]
            for job_id, _ in done:
                del self._procs[job_id]
                self._proc_tenants.pop(job_id, None)
        for job_id, proc in done:
            proc.join()
            self._reconcile(job_id,
                            cancelled=job_id in self._cancelling,
                            exitcode=proc.exitcode)
            self._cancelling.discard(job_id)

    def _reconcile(self, job_id: str, cancelled: bool = False,
                   exitcode: Optional[int] = None) -> Job:
        """After a worker exits, settle the durable state.

        The worker normally wrote ``finished``/``failed`` itself; if the
        file still says ``queued``/``running`` the process died first —
        record ``cancelled`` (we terminated it) or ``failed``.
        """
        with self._cond:
            self._procs.pop(job_id, None)
            self._proc_tenants.pop(job_id, None)
        job = self.store.load(job_id)
        if job.terminal:
            self._count_terminal(job.state)
            return job
        if cancelled:
            self.store.events(job_id).append("cancelled", job=job_id)
            job = self.store.transition(job_id, "cancelled")
        else:
            error = f"worker died (exit code {exitcode})"
            self.store.events(job_id).append("failed", job=job_id,
                                             error=error)
            job = self.store.transition(job_id, "failed", error=error)
        self._count_terminal(job.state)
        return job

    # -- observability ---------------------------------------------------------
    def _observe_depth(self) -> None:
        with self._cond:
            depth, running = len(self._queue), len(self._procs)
        self.registry.gauge("serve.queue_depth").set(depth)
        self.registry.gauge("serve.jobs_running").set(running)

    def _count_terminal(self, state: str) -> None:
        self.registry.counter("serve.jobs_completed").child(state).inc()
