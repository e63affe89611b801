"""A time-sliced CPU shared by the applications on a node.

Applications express compute phases in seconds on a dedicated reference
CPU; when several applications run (the combined experiment) round-robin
timeslicing stretches each application's phases — which is why the
combined run takes ~700 s while individual runs are shorter.

The CPU is *replayed*, not scheduled.  Nothing outside it can see a
timeslice boundary, so no event marks one: the CPU keeps a FIFO run
queue of ``[remaining, done]`` jobs and the start of the head job's
current slice, and folds slices forward in plain float arithmetic — the
very steps a per-slice loop takes (``s = min(timeslice, remaining)``,
``t + s``, ``remaining - s``, ``busy_time + s``; a job whose slice ends
re-joins the queue behind everyone already waiting).  The event heap
holds one entry, at the next instant that *is* visible: a completion.
An arrival folds the slices that ended strictly before it, joins the
queue, and re-arms that entry if the instant moved; a superseded entry
fires inert.

One trap keeps a sliver of the per-slice machinery.  A slice with
``t + s == t`` — the 1.4e-17 residue five 0.05 s slices leave of a
0.25 s chunk — takes no time, yet a per-slice CPU spends two delay-0
events on it (the grant, then the slice's timeout).  Folded into a
wake-up that resumed no process, they are invisible.  But once process
code has run at that instant — a completion resumed its process, or an
arrival is calling in — the events it queues at delay 0 interleave with
those two, so such a slice runs as two queued hops and same-instant
resumption order stays exactly the per-slice CPU's.
"""

from __future__ import annotations

from repro.sim import Event, Simulator

#: ``CPU._hop`` states of a zero-length slice run as queued hops
_NO_HOP, _GRANT, _SLICE = 0, 1, 2


class _Wake:
    """One queued CPU wake-up; inert once the CPU has armed another."""

    __slots__ = ("cpu",)

    def __init__(self, cpu: "CPU"):
        self.cpu = cpu

    def _fire(self) -> None:
        cpu = self.cpu
        if cpu._wake is self:
            cpu._woken()


class CPU:
    """Single execution unit with round-robin timeslicing."""

    def __init__(self, sim: Simulator, speed: float = 1.0,
                 timeslice: float = 0.05):
        if speed <= 0:
            raise ValueError("speed must be positive")
        if timeslice <= 0:
            raise ValueError("timeslice must be positive")
        self.sim = sim
        self.speed = speed
        self.timeslice = timeslice
        self.busy_time = 0.0
        #: run queue in round-robin order; the head holds the CPU
        self._jobs: list = []
        #: when the head job's current slice began
        self._start = 0.0
        #: the live wake-up and its time (None: idle, or arming deferred)
        self._wake = None
        self._wake_at = 0.0
        #: queue state at the armed completion: ``(index of the job
        #: finishing, busy_time, every job's remaining)``; the last is
        #: None for a lone job
        self._plan = None
        #: progress of a zero-length slice run as hops
        self._hop = _NO_HOP
        #: a wake-up is resuming its finished process; it arms afterwards
        self._waking = False

    # -- checkpoint state surface ---------------------------------------
    def snapshot_state(self) -> dict:
        """The busy-time counter of an *idle* CPU.

        A queued compute phase is in-flight work, not data; the settle
        protocol captures only with every application parked.
        """
        if self._jobs:
            raise RuntimeError(
                f"cpu is not idle ({len(self._jobs)} on the run queue)")
        return {"busy_time": self.busy_time}

    def restore_state(self, state: dict) -> None:
        self.busy_time = float(state["busy_time"])

    @property
    def load(self) -> int:
        """Processes holding or waiting for the CPU right now."""
        return len(self._jobs)

    def execute(self, reference_seconds: float):
        """Burn ``reference_seconds`` of compute, shared fairly.

        A generator: joins the run queue and sleeps until its last
        timeslice ends.
        """
        if reference_seconds < 0:
            raise ValueError("negative compute time")
        remaining = reference_seconds / self.speed
        if remaining > 0:
            done = Event(self.sim)
            self._arrive([remaining, done])
            yield done

    # -- the replay -----------------------------------------------------
    def _arrive(self, job: list) -> None:
        jobs = self._jobs
        if jobs:
            if self._hop:
                jobs.append(job)
                return
            self._advance(self.sim.now)
            jobs.append(job)
        else:
            jobs.append(job)
            now = self._start = self.sim.now
            ts = self.timeslice
            rem = job[0]
            if now + (ts if ts < rem else rem) == now:
                self._hop = _GRANT
                self._push(now)
                return
        if not self._waking:
            self._arm(self._project())

    def _advance(self, now: float) -> None:
        """Fold every slice that ends strictly before ``now``.

        None of them completes a job: a completion is a wake-up, and the
        armed one is not before ``now``.
        """
        jobs = self._jobs
        ts = self.timeslice
        t = self._start
        busy = self.busy_time
        job = jobs[0]
        rem = job[0]
        s = ts if ts < rem else rem
        rotate = len(jobs) > 1
        while t + s < now:
            t += s
            busy += s
            job[0] = rem = rem - s
            if rotate:
                jobs.append(jobs.pop(0))
                job = jobs[0]
                rem = job[0]
            s = ts if ts < rem else rem
        self._start = t
        self.busy_time = busy

    def _project(self) -> float:
        """Fold forward from the head's current slice to the next
        completion; store the queue state there as the plan and return
        its time."""
        jobs = self._jobs
        ts = self.timeslice
        t = self._start
        busy = self.busy_time
        if len(jobs) == 1:
            rem = jobs[0][0]
            while True:
                s = ts if ts < rem else rem
                t += s
                rem -= s
                busy += s
                if not rem > 0:
                    self._plan = (0, busy, None)
                    return t
        rems = [job[0] for job in jobs]
        n = len(rems)
        i = 0
        while True:
            rem = rems[i]
            s = ts if ts < rem else rem
            t += s
            rem -= s
            busy += s
            rems[i] = rem
            if not rem > 0:
                self._plan = (i, busy, rems)
                return t
            i += 1
            if i == n:
                i = 0

    def _arm(self, time: float) -> None:
        if self._wake is not None and self._wake_at == time:
            return  # unmoved: keep its place in the same-instant order
        self._push(time)

    def _push(self, time: float) -> None:
        wake = self._wake = _Wake(self)
        self._wake_at = time
        self.sim._enqueue_at(time, wake)

    def _woken(self) -> None:
        self._wake = None
        jobs = self._jobs
        now = self.sim.now
        ts = self.timeslice
        if self._hop == _GRANT:
            self._hop = _SLICE
            self._push(now)
            return
        if self._hop == _SLICE:
            self._hop = _NO_HOP
            job = jobs[0]
            rem = job[0]
            s = ts if ts < rem else rem
            job[0] = rem = rem - s
            self.busy_time += s
            if rem > 0:
                done = None
                if len(jobs) > 1:
                    jobs.append(jobs.pop(0))
            else:
                done = jobs.pop(0)[1]
        else:
            i, self.busy_time, rems = self._plan
            if rems is None:
                done = jobs.pop()[1]
            else:
                for job, rem in zip(jobs, rems):
                    job[0] = rem
                done = jobs[i][1]
                jobs[:] = jobs[i + 1:] + jobs[:i]
        self._start = now
        # hand the CPU on before the finished process resumes, as the
        # per-slice release did; process code runs at this instant from
        # here on, so a zero-length slice next takes the queued hops
        if jobs:
            rem = jobs[0][0]
            if now + (ts if ts < rem else rem) == now:
                self._hop = _GRANT
                self._push(now)
        if done is not None:
            # resume the finished process right here, where the
            # per-slice CPU's last timeout fired
            self._waking = True
            try:
                done._ok = True
                done._fire()
            finally:
                self._waking = False
        if jobs and not self._hop and self._wake is None:
            self._arm(self._project())
