"""A time-sliced CPU shared by the applications on a node.

Applications express compute phases in seconds on a dedicated reference
CPU; when several applications run (the combined experiment) round-robin
timeslicing stretches each application's phases — which is why the
combined run takes ~700 s while individual runs are shorter.

The CPU is *replayed*, not scheduled.  A per-slice CPU spends two events
on every timeslice: a delay-0 grant as the slice starts, whose firing
queues the slice's timeout.  Nobody outside the CPU sees those events,
except through the order of entries that share an instant, which the
heap's ``(time, priority, seq)`` key settles.  The replay keeps a FIFO
run queue of ``[remaining, done]`` jobs and the start of the head job's
current slice, and folds slices forward in plain float arithmetic — the
very steps a per-slice loop takes (``s = min(timeslice, remaining)``,
``t + s``, ``remaining - s``, ``busy_time + s``; a job whose slice ends
re-joins the queue behind everyone already waiting).  An arrival folds
the slices that ended strictly before it and joins the queue.

A completion is the one thing that must happen in the event order, and
its place there is the per-slice CPU's last timeout's: queued when the
grant of the job's last slice fired.  So the CPU queues the completion
at that grant's moment, and needs a queue entry of its own for the grant
only when something else could run before it:

* at an arrival to an idle CPU the grant is queued there, as the
  per-slice request queued it, whenever the last slice is the first;
* at a completion the grant of the next job was queued before the
  finished process resumed, so its sequence number is reserved then, and
  used only if entries are due at that instant once the process has run;
* a last slice that starts later needs a grant entry at its start,
  unless nothing else is queued up to then.  Queued ahead of its
  instant, that entry first lets the entries already due there go
  (queued before the slice began, they precede the grant), then queues
  the completion.

An arrival that moves the next completion re-arms; a superseded entry
fires inert.  An uncontended execute in an otherwise quiet simulation is
one heap entry.
"""

from __future__ import annotations

from repro.sim import Event, Simulator

#: kinds of the CPU's queued entry: the grant of a job's last slice, and
#: the completion that slice ends in
_GRANT, _DONE = 0, 1


class _Wake:
    """One queued CPU entry; inert once the CPU has armed another.

    The CPU knows its live entry by ``serial``, not by reference, so
    the pair is not a reference cycle.
    """

    __slots__ = ("cpu", "serial")

    def __init__(self, cpu: "CPU", serial: int):
        self.cpu = cpu
        self.serial = serial

    def _fire(self) -> None:
        cpu = self.cpu
        if cpu._wake == self.serial:
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
        #: the serial of the live entry, its time and kind (None: idle,
        #: or arming deferred)
        self._wake = None
        self._serial = 0
        self._wake_at = 0.0
        self._kind = _DONE
        #: a grant queued ahead of its instant first lets the entries due
        #: there go
        self._defer = False
        #: queue state where the next completing job's last slice starts:
        #: ``(start, index of that job, busy_time, remaining)``, the last
        #: a list per job, or the lone job's float; None once folded
        self._plan = None
        #: a completion is resuming its process; it arms afterwards
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
        now = self.sim.now
        if jobs:
            self._advance(now)
            jobs.append(job)
            if self._waking:
                return  # the completion re-arms once its process has run
        else:
            jobs.append(job)
            self._start = now
        self._rearm(now)

    def _advance(self, now: float) -> None:
        """Fold every slice that ends strictly before ``now``.

        None of them completes a job: the next completion's last slice
        ends at an armed entry, which is not before ``now``.
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

    def _project(self) -> tuple:
        """Fold forward to where the next completing job's last slice
        starts; store the queue state there as the plan and return that
        start and the completion time."""
        jobs = self._jobs
        ts = self.timeslice
        t = self._start
        busy = self.busy_time
        if len(jobs) == 1:
            rem = jobs[0][0]
            while ts < rem:
                t += ts
                rem -= ts
                busy += ts
            self._plan = (t, 0, busy, rem)
            return t, t + rem
        rems = [job[0] for job in jobs]
        n = len(rems)
        i = 0
        while True:
            rem = rems[i]
            if not ts < rem:
                self._plan = (t, i, busy, rems)
                return t, t + rem
            t += ts
            rems[i] = rem - ts
            busy += ts
            i += 1
            if i == n:
                i = 0

    def _fold_to_plan(self) -> None:
        """Apply the plan: the completing job heads the queue, its last
        slice starting now."""
        self._start, i, self.busy_time, rems = self._plan
        self._plan = None
        jobs = self._jobs
        if len(jobs) == 1:
            jobs[0][0] = rems
            return
        for job, rem in zip(jobs, rems):
            job[0] = rem
        if i:
            jobs[:] = jobs[i:] + jobs[:i]

    def _rearm(self, now: float, reserved=None) -> None:
        """Arm the entry the next completion needs (see the module
        docstring); ``reserved`` is the grant's sequence number taken
        at the completion that handed the CPU on."""
        start, end = self._project()
        if start < now:
            # the last slice runs: its grant fired, its completion is queued
            self._arm(_DONE, end)
        elif start == now:
            if (self._wake is not None and self._kind == _DONE
                    and self._wake_at == end):
                return  # the grant fired at this instant already
            if reserved is not None and self.sim.peek() > now:
                self._arm(_DONE, end)  # the grant would fire next
            else:
                self._arm(_GRANT, now, reserved)
        elif self.sim.peek() > start:
            self._arm(_DONE, end)  # nothing else runs before the grant
        else:
            self._arm(_GRANT, start, defer=True)

    def _arm(self, kind: int, time: float, seq=None,
             defer: bool = False) -> None:
        if (self._wake is not None and self._wake_at == time
                and self._kind == kind):
            return  # unmoved: keep its place in the same-instant order
        self._serial += 1
        self._wake = self._serial
        self._wake_at = time
        self._kind = kind
        self._defer = defer
        self.sim._enqueue_at(time, _Wake(self, self._serial), seq)

    def _woken(self) -> None:
        self._wake = None
        sim = self.sim
        now = sim.now
        if self._kind == _GRANT:
            if self._defer and sim.peek() == now:
                # entries due here were queued before this slice began,
                # so before its grant: let them go first
                self._arm(_GRANT, now)
                return
            self._fold_to_plan()
            self._arm(_DONE, now + self._jobs[0][0])
            return
        if self._plan is not None:
            self._fold_to_plan()
        jobs = self._jobs
        job = jobs.pop(0)
        self.busy_time += job[0]
        self._start = now
        reserved = None
        if jobs and not self.timeslice < jobs[0][0]:
            # the per-slice release queued the next job's grant before
            # the finished process resumed; that grant may time the
            # next completion
            reserved = sim._reserve_seq()
        # resume the finished process right here, where the per-slice
        # CPU's last timeout fired
        done = job[1]
        self._waking = True
        try:
            done._ok = True
            done._fire()
        finally:
            self._waking = False
        if jobs and self._wake is None:
            self._rearm(now, reserved)
