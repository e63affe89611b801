"""Durable experiment jobs: one JSON state file per job, atomic renames.

A :class:`Job` is one submitted unit of work — a single experiment or a
grid sweep — moving through the simexpal-style lifecycle::

    queued ──> running ──> finished
        │         │    └─> failed
        │         └──────> cancelled        (queued jobs cancel directly)
        └────────────────> blocked          (a dependency failed)

Jobs form a DAG: each carries an integer ``priority`` (higher runs
first) and a ``depends_on`` list of job ids.  A job is *runnable* only
once every dependency is ``finished``; a dependency that ends
``failed``/``cancelled``/``blocked`` transitions its dependents to the
``blocked`` terminal state instead — the cascade is **derived from
dependency states on disk**, never from in-memory bookkeeping, so it
is exactly as crash-safe as the job files themselves.

The :class:`JobStore` keeps every job as ``jobs/<id>.json`` under the
service root.  All writes go through :func:`repro.durable.publish`
(a temp file, fsync and ``os.replace``), so a crash at any instant
leaves either the old state or the new state on disk — never a torn
file.  Two processes legitimately
write job files (the daemon owns submission/cancellation, the spawned
worker owns the running→terminal edge); atomic whole-file replacement is
what makes that safe.

On daemon restart :meth:`JobStore.recover` reloads the directory:
``queued`` jobs re-enter the queue (jobs whose dependencies already
failed are settled to ``blocked`` immediately), and ``running`` jobs
whose worker process no longer exists (the daemon died mid-run) are
re-queued — a submitted job is never silently lost, and a half-
dispatched DAG resumes exactly where it stopped.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.durable import publish
from repro.serve.errors import DependencyCycle
from repro.serve.events import EventLog

JOB_FORMAT = "repro-serve-job-v1"

#: lifecycle states, in order of appearance
STATES = ("queued", "running", "finished", "failed", "cancelled",
          "blocked")
#: states a job can still move out of
ACTIVE_STATES = ("queued", "running")
#: states a job never leaves
TERMINAL_STATES = ("finished", "failed", "cancelled", "blocked")

#: legal lifecycle edges (anything else is a store bug)
_TRANSITIONS = {
    "queued": {"running", "cancelled", "failed", "blocked"},
    "running": {"finished", "failed", "cancelled", "queued"},  # requeue
}

#: dependency states that doom a dependent (vs. merely holding it)
_DOOMED_DEP_STATES = ("failed", "cancelled", "blocked")


class JobError(ValueError):
    """An illegal job operation (bad state transition, unknown id)."""


@dataclass
class Job:
    """One submitted unit of work and its durable state."""

    id: str
    kind: str                    # "experiment" | "sweep"
    state: str = "queued"
    #: what to run: scenario dict, experiment name, duration, grid
    #: specs, catalog name, parallelism — see ``repro.serve.pool``
    spec: Dict[str, object] = field(default_factory=dict)
    created: float = 0.0         # epoch seconds
    started: Optional[float] = None
    finished: Optional[float] = None
    pid: Optional[int] = None    # worker process while running
    error: Optional[str] = None
    #: catalog run ids this job produced (one per grid point)
    run_ids: List[str] = field(default_factory=list)
    #: summary metrics (experiment) or per-point dicts (sweep)
    result: Optional[object] = None
    #: dispatch order: higher runs first, ties break by job id
    priority: int = 0
    #: job ids that must reach ``finished`` before this one starts
    depends_on: List[str] = field(default_factory=list)
    #: owning tenant name (None on an open, tenant-less daemon)
    tenant: Optional[str] = None

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def to_dict(self) -> dict:
        out = asdict(self)
        out["format"] = JOB_FORMAT
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "Job":
        if data.get("format") not in (None, JOB_FORMAT):
            raise JobError(f"not a {JOB_FORMAT} record")
        fields = {k: v for k, v in data.items() if k != "format"}
        job = cls(**fields)
        if job.state not in STATES:
            raise JobError(f"job {job.id}: unknown state {job.state!r}")
        return job


def _pid_alive(pid: Optional[int]) -> bool:
    if not pid:
        return False
    try:
        os.kill(pid, 0)
    except (OSError, ProcessLookupError):
        return False
    return True


class JobStore:
    """The ``jobs/`` directory: create, persist, and reload jobs."""

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)

    # -- creation -------------------------------------------------------------
    def create(self, kind: str, spec: Optional[dict] = None, *,
               priority: int = 0,
               depends_on: Optional[Sequence[str]] = None,
               tenant: Optional[str] = None) -> Job:
        """Claim the next free job id and persist it as ``queued``.

        ``O_CREAT|O_EXCL`` is the atomic primitive: whichever process
        creates ``<id>.json`` first owns that id, so concurrent
        submissions never collide.  ``depends_on`` ids must name
        existing jobs, and the dependency closure must be acyclic —
        a cycle is rejected here, at submit time, before anything is
        persisted.
        """
        if kind not in ("experiment", "sweep"):
            raise JobError(f"unknown job kind {kind!r}")
        depends_on = [str(d) for d in (depends_on or [])]
        self.check_dependencies(depends_on)
        self.root.mkdir(parents=True, exist_ok=True)
        existing = self.ids()
        n = 1 + (int(existing[-1].rpartition("-")[2]) if existing else 0)
        while True:
            job_id = f"job-{n:06d}"
            path = self._path(job_id)
            try:
                fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                n += 1
                continue
            job = Job(id=job_id, kind=kind, spec=dict(spec or {}),
                      created=time.time(), priority=int(priority),
                      depends_on=depends_on, tenant=tenant)
            payload = json.dumps(job.to_dict(), indent=2)
            try:
                os.write(fd, payload.encode())
            finally:
                os.close(fd)
            return job

    def check_dependencies(self, depends_on: Sequence[str]) -> None:
        """Reject unknown dependency ids and dependency cycles.

        A job submitted through the API can only depend on jobs that
        already exist, so the API alone can never close a cycle — but
        hand-edited job files (or direct store use) can, and a cyclic
        DAG would hold its members ``queued`` forever.  Walking the
        closure here turns that silent hang into a submit-time error.
        """
        seen: Dict[str, int] = {}      # id -> 0 visiting, 1 done

        def visit(job_id: str, trail: Tuple[str, ...]) -> None:
            mark = seen.get(job_id)
            if mark == 1:
                return
            if mark == 0:
                cycle = trail[trail.index(job_id):] + (job_id,)
                raise DependencyCycle(
                    "dependency cycle: " + " -> ".join(cycle))
            seen[job_id] = 0
            for dep in self.load(job_id).depends_on:
                visit(dep, trail + (job_id,))
            seen[job_id] = 1

        for dep in depends_on:
            if not self._path(dep).exists():
                raise JobError(f"unknown dependency {dep!r}")
        for dep in depends_on:
            visit(dep, ())

    # -- persistence ----------------------------------------------------------
    def save(self, job: Job) -> Path:
        """Atomically (re)write one job's state file."""
        self.root.mkdir(parents=True, exist_ok=True)
        path = self._path(job.id)
        publish(path, json.dumps(job.to_dict(), indent=2))
        return path

    def load(self, job_id: str) -> Job:
        path = self._path(job_id)
        try:
            return Job.from_dict(json.loads(path.read_text()))
        except FileNotFoundError:
            raise JobError(f"no job {job_id!r} under {self.root}") from None

    def ids(self) -> List[str]:
        if not self.root.is_dir():
            return []
        return sorted(p.stem for p in self.root.glob("job-*.json"))

    def jobs(self, state: Optional[str] = None) -> List[Job]:
        """Every stored job (optionally one state), sorted by id."""
        out = []
        for job_id in self.ids():
            try:
                job = self.load(job_id)
            except (JobError, ValueError):
                continue          # torn by hand-editing; never by us
            if state is None or job.state == state:
                out.append(job)
        return out

    def events(self, job_id: str) -> EventLog:
        """The job's progress-event log (exists once anything ran)."""
        path = self._path(job_id)          # validates the id
        return EventLog(path.with_name(f"{job_id}.events.jsonl"))

    # -- lifecycle ------------------------------------------------------------
    def transition(self, job_id: str, state: str, **fields) -> Job:
        """Load, legally transition, stamp timestamps, save, return."""
        job = self.load(job_id)
        allowed = _TRANSITIONS.get(job.state, set())
        if state not in allowed:
            raise JobError(f"job {job_id}: cannot go "
                           f"{job.state} -> {state}")
        job.state = state
        for name, value in fields.items():
            setattr(job, name, value)
        if state == "running" and job.started is None:
            job.started = time.time()
        if state in TERMINAL_STATES and job.finished is None:
            job.finished = time.time()
        if state == "queued":     # requeued after a daemon crash
            job.pid = None
            job.started = None
        self.save(job)
        return job

    # -- scheduling -----------------------------------------------------------
    def readiness(self, job: Job,
                  cache: Optional[Dict[str, str]] = None
                  ) -> Tuple[str, Optional[str]]:
        """Is a queued job dispatchable?  ``(verdict, blocking_dep)``.

        * ``("ready", None)`` — every dependency is ``finished``;
        * ``("held", dep_id)`` — some dependency is still active;
        * ``("doomed", dep_id)`` — a dependency failed / was cancelled /
          is itself blocked: the job should transition to ``blocked``.

        ``cache`` memoizes dependency states across one scheduling pass
        (id -> state) so a pass over N dependents costs one load per
        distinct dependency, not one per edge.
        """
        cache = cache if cache is not None else {}
        for dep_id in job.depends_on:
            state = cache.get(dep_id)
            if state is None:
                try:
                    state = self.load(dep_id).state
                except JobError:
                    state = "failed"       # dep file vanished: doomed
                cache[dep_id] = state
            if state in _DOOMED_DEP_STATES:
                return "doomed", dep_id
            if state != "finished":
                return "held", dep_id
        return "ready", None

    def completed_run_ids(self, job_id: str) -> List[str]:
        """Catalog run ids of grid points a (possibly dead) worker
        finished, from the job's event log — one ``point`` event lands
        per completed point, so the log is the durable progress record
        even when the worker never wrote a terminal state."""
        out: List[str] = []
        for record in self.events(job_id).read():
            if record.get("event") == "point" and record.get("run_id"):
                run_id = str(record["run_id"])
                if run_id not in out:
                    out.append(run_id)
        return out

    def block(self, job_id: str, dep_id: str) -> Job:
        """Settle a queued job whose dependency failed, with an event.

        The event lands before the terminal state write so a follower
        closing on "job is terminal" still sees it.
        """
        self.events(job_id).append("blocked", job=job_id,
                                   dependency=dep_id)
        return self.transition(
            job_id, "blocked",
            error=f"dependency {dep_id} did not finish")

    def recover(self) -> List[Job]:
        """Reload after a restart; returns the jobs ready to schedule.

        ``queued`` jobs pass through (ones whose dependencies already
        failed are settled to ``blocked`` here — the cascade survives
        the daemon that should have applied it).  ``running`` jobs whose
        recorded worker pid is gone are re-queued (the daemon died under
        them; re-running is safe — the worker's periodic checkpoints
        let the new run resume rather than start over, and the
        partially-written catalog run keeps its own directory).  The
        run ids of grid points the dead worker already completed are
        harvested from the job's event log onto the job file, so the
        progress survives the requeue and the resumed sweep skips those
        points.  Running jobs whose pid is still alive are left alone:
        their worker will write the terminal state itself.  The
        returned jobs may still be *held* by unfinished dependencies —
        the scheduler re-derives readiness per pass.
        """
        requeued = []
        for job in self.jobs():
            if job.state == "running" and not _pid_alive(job.pid):
                run_ids = self.completed_run_ids(job.id)
                requeued.append(self.transition(job.id, "queued",
                                                run_ids=run_ids))
        ready: List[Job] = []
        dep_states: Dict[str, str] = {}
        for job in self.jobs("queued"):
            verdict, dep = self.readiness(job, dep_states)
            if verdict == "doomed":
                self.block(job.id, dep)
            else:
                ready.append(job)
        return ready

    def counts(self) -> Dict[str, int]:
        """Jobs per state (zero-filled), for status endpoints and obs."""
        out = {state: 0 for state in STATES}
        for job in self.jobs():
            out[job.state] += 1
        return out

    # -- internals ------------------------------------------------------------
    def _path(self, job_id: str) -> Path:
        if not job_id.startswith("job-") or "/" in job_id or "\\" in job_id:
            raise JobError(f"bad job id {job_id!r}")
        return self.root / f"{job_id}.json"


# -- presentation --------------------------------------------------------------
def render_jobs_table(jobs: Sequence[Job]) -> str:
    """Fixed-width status table, simexpal-style: one line per job."""
    if not jobs:
        return "no jobs"
    headers = ("job", "kind", "experiment", "state", "pri", "deps",
               "runs", "info")
    rows = []
    for job in jobs:
        experiment = str(job.spec.get("experiment", "baseline"))
        if job.kind == "sweep":
            grid = job.spec.get("grid") or []
            experiment += f" x {len(grid)} axis" + \
                ("es" if len(grid) != 1 else "")
        info = job.error or ""
        if job.state == "finished" and job.started and job.finished:
            info = f"{job.finished - job.started:.1f}s"
        deps = ",".join(d.rpartition("-")[2].lstrip("0") or "0"
                        for d in job.depends_on) or "-"
        rows.append((job.id, job.kind, experiment, job.state,
                     str(job.priority), deps,
                     str(len(job.run_ids)) if job.run_ids else "-",
                     info))
    widths = [max(len(h), *(len(r[i]) for r in rows))
              for i, h in enumerate(headers)]

    def line(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()

    bar = tuple("-" * w for w in widths)
    return "\n".join([line(headers), line(bar)] + [line(r) for r in rows])
