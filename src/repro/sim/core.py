"""Simulator, events, and generator-based processes.

The engine keeps a binary heap of ``(time, priority, seq, event)`` keys
and fires them in that total order.

An :class:`Event` carries callbacks; a :class:`Process` wraps a generator
and is itself an event that fires when the generator returns, so
processes compose (one process can ``yield`` another and sleep until it
finishes).
"""

from __future__ import annotations

import heapq
from time import perf_counter
from typing import Any, Callable, Generator, Iterable, Optional

# Event priorities: URGENT events scheduled at the same instant run before
# NORMAL ones.  The engine uses URGENT internally for process resumption so
# that a process observes the state change that woke it before anything else
# scheduled at that time runs.
URGENT = 0
NORMAL = 1


class SimulationError(RuntimeError):
    """Raised for engine misuse (re-triggering events, bad yields, ...)."""


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`.

    The interrupted process receives this exception at its current yield
    point; ``cause`` carries whatever object the interrupter supplied.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A thing that may happen at a point in simulated time.

    An event starts *pending*, becomes *triggered* once given a value (or an
    exception) and scheduled, and is *processed* after its callbacks ran.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_scheduled", "processed")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: Optional[list] = []
        self._value: Any = None
        self._ok: Optional[bool] = None
        self._scheduled = False
        self.processed = False

    @property
    def triggered(self) -> bool:
        return self._ok is not None

    @property
    def ok(self) -> bool:
        if self._ok is None:
            raise SimulationError("event not yet triggered")
        return self._ok

    @property
    def value(self) -> Any:
        if self._ok is None:
            raise SimulationError("event not yet triggered")
        return self._value

    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Trigger the event successfully, firing callbacks after ``delay``."""
        if self._ok is not None:
            raise SimulationError("event already triggered")
        self._ok = True
        self._value = value
        self.sim._enqueue(delay, NORMAL, self)
        return self

    def fail(self, exception: BaseException, delay: float = 0.0) -> "Event":
        """Trigger the event with an exception to be raised in waiters."""
        if self._ok is not None:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() needs an exception instance")
        self._ok = False
        self._value = exception
        self.sim._enqueue(delay, NORMAL, self)
        return self

    def _fire(self) -> None:
        callbacks, self.callbacks = self.callbacks, None
        for cb in callbacks:
            cb(self)
        self.processed = True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "processed" if self.processed else (
            "triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at t={self.sim.now:.6g}>"


class Timeout(Event):
    """An event that fires after a fixed delay from its creation."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative timeout delay {delay!r}")
        super().__init__(sim)
        self.delay = delay
        self._ok = True
        self._value = value
        sim._enqueue(delay, NORMAL, self)


class Tick(Timeout):
    """A daemon's self-rescheduling sleep, tagged with a stable owner key.

    Ticks are the only events allowed to sit in the queue across a
    checkpoint: ``(time, priority, seq, owner)`` fully describes one, so
    the queue becomes plain data.  Periodic daemons (bdflush, update,
    syslog flush, table lookups, ...) create them through
    :meth:`Simulator.tick` instead of :meth:`Simulator.timeout`; in an
    un-checkpointed run the two are bit-identical (same enqueue, same
    sequence numbers).
    """

    __slots__ = ("owner",)

    def __init__(self, sim: "Simulator", delay: float, owner: str,
                 value: Any = None):
        super().__init__(sim, delay, value)
        self.owner = owner


class Initialize(Event):
    """Internal event used to start a process at its spawn time."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", process: "Process"):
        super().__init__(sim)
        self.callbacks.append(process._resume)
        self._ok = True
        sim._enqueue(0.0, URGENT, self)


class Process(Event):
    """A running generator; also an event that fires when it returns.

    The generator may yield:

    * another :class:`Event` (timeout, resource request, another process) —
      the process sleeps until it triggers;
    * nothing else.  Yielding a non-event raises :class:`SimulationError`.
    """

    __slots__ = ("generator", "_target", "name", "_resume_counter")

    def __init__(self, sim: "Simulator", generator: Generator,
                 name: Optional[str] = None):
        if not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(sim)
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._target: Optional[Event] = None
        # Resolve the per-prefix resume counter once at spawn; _resume
        # runs tens of thousands of times per simulated second.
        instr = sim._instr
        self._resume_counter = None if instr is None else \
            instr.resumes.child(self.name.split(":", 1)[0])
        Initialize(sim, self)

    @property
    def is_alive(self) -> bool:
        return self._ok is None

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its yield point."""
        if not self.is_alive:
            raise SimulationError(f"{self.name} already terminated")
        if self._target is None:
            raise SimulationError(f"{self.name} not yet started")
        # Detach from the event we were waiting on; it may still fire but we
        # no longer care.
        target = self._target
        if target.callbacks is not None and self._resume in target.callbacks:
            target.callbacks.remove(self._resume)
        interrupt_event = Event(self.sim)
        interrupt_event.callbacks.append(self._resume)
        interrupt_event.fail(Interrupt(cause))

    def _resume(self, event: Event) -> None:
        self._target = None
        sim = self.sim
        counter = self._resume_counter
        if counter is not None:
            counter.value += 1
        sim._active_process = self
        try:
            if event._ok:
                next_event = self.generator.send(event._value)
            else:
                next_event = self.generator.throw(event._value)
        except StopIteration as stop:
            sim._active_process = None
            self.succeed(stop.value)
            return
        except BaseException as exc:
            sim._active_process = None
            if sim._fail_fast:
                raise
            self.fail(exc)
            return
        sim._active_process = None
        if not isinstance(next_event, Event):
            raise SimulationError(
                f"process {self.name!r} yielded non-event {next_event!r}")
        if next_event.sim is not sim:
            raise SimulationError("yielded event belongs to another simulator")
        self._target = next_event
        if next_event.callbacks is None:
            # Already processed: resume immediately (urgent, same timestamp).
            resumed = Event(sim)
            resumed.callbacks.append(self._resume)
            resumed._ok = next_event._ok
            resumed._value = next_event._value
            sim._enqueue(0.0, URGENT, resumed)
            self._target = resumed
        else:
            next_event.callbacks.append(self._resume)


class _SimInstruments:
    """The engine's observability instruments (only built when enabled)."""

    __slots__ = ("events", "heap_depth", "resumes",
                 "wall_seconds", "sim_seconds")

    def __init__(self, registry):
        self.events = registry.counter(
            "sim.events_processed", "events popped from the heap")
        self.heap_depth = registry.gauge(
            "sim.heap_depth", "heap size after each pop (max = high water)")
        self.resumes = registry.counter(
            "sim.process_resumes",
            "generator resumptions, by process-name prefix")
        self.wall_seconds = registry.counter(
            "sim.wall_seconds", "wall time spent inside run()")
        self.sim_seconds = registry.counter(
            "sim.sim_seconds", "simulated time advanced by run()")


class Simulator:
    """The event loop: owns simulated time and the event queue.

    ``obs`` takes a :class:`~repro.obs.registry.MetricsRegistry`; when
    given (and enabled) the loop counts events, samples queue depth, and
    tracks wall time per simulated second.  The default is no
    instrumentation.
    """

    def __init__(self, fail_fast: bool = True, obs=None):
        self.now: float = 0.0
        self._seq = 0
        self._active_process: Optional[Process] = None
        # fail_fast=True propagates uncaught process exceptions out of run(),
        # which is what tests and experiment drivers want.
        self._fail_fast = fail_fast
        self._instr: Optional[_SimInstruments] = None
        if obs is not None and getattr(obs, "enabled", False):
            self._instr = _SimInstruments(obs)
        #: owner -> (time, priority, seq, value): the snapshotted queue
        #: entry to replay on that owner's next tick() (restore path)
        self._tick_preloads: dict = {}
        self._heap: list = []

    # -- construction helpers -------------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        # Hand-inlined Timeout construction (one per sleep, per request,
        # per frame — the most-allocated event kind): skips the
        # Timeout.__init__ → Event.__init__ chain but produces an
        # identical object.  ``Timeout(sim, delay)`` remains supported.
        if delay < 0:
            raise ValueError(f"negative timeout delay {delay!r}")
        event = Timeout.__new__(Timeout)
        event.sim = self
        event.callbacks = []
        event._value = value
        event._ok = True
        event._scheduled = False
        event.processed = False
        event.delay = delay
        self._enqueue(delay, NORMAL, event)
        return event

    def tick(self, owner: str, delay_fn: Callable[[], float]) -> Timeout:
        """A checkpoint-aware daemon sleep (see :class:`Tick`).

        ``delay_fn`` is called lazily — only when no preloaded tick
        exists for ``owner``.  After a restore the first sleep per owner
        replays the snapshotted queue entry (same wake time, priority,
        and sequence number) *without* re-drawing the delay, so RNG
        streams stay aligned with the uninterrupted run.  In a normal
        run this is exactly ``timeout(delay_fn())`` plus an owner tag.
        """
        pre = self._tick_preloads
        if pre:
            entry = pre.pop(owner, None)
            if entry is not None:
                time, priority, seq, value = entry
                event = Tick.__new__(Tick)
                event.sim = self
                event.callbacks = []
                event._value = value
                event._ok = True
                event._scheduled = False
                event.processed = False
                event.delay = max(0.0, time - self.now)
                event.owner = owner
                self._enqueue_exact(time, priority, seq, event)
                return event
        return Tick(self, delay_fn(), owner)

    def process(self, generator: Generator, name: Optional[str] = None) -> Process:
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> Event:
        from repro.sim.conditions import AllOf
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> Event:
        from repro.sim.conditions import AnyOf
        return AnyOf(self, events)

    # -- engine ---------------------------------------------------------------
    def _enqueue(self, delay: float, priority: int, event: Event) -> None:
        if event._scheduled:
            raise SimulationError("event already scheduled")
        event._scheduled = True
        self._seq += 1
        heapq.heappush(self._heap, (self.now + delay, priority, self._seq, event))

    def _enqueue_at(self, time: float, entry) -> None:
        """Queue ``entry`` at absolute ``time`` (>= ``now``), NORMAL lane.

        For models that replay their own timeline and wake only at the
        instants that matter (:class:`~repro.kernel.cpu.CPU`): ``entry``
        is anything with a ``_fire()`` method, and an entry the caller
        has superseded simply ignores its firing.
        """
        self._seq += 1
        heapq.heappush(self._heap, (time, NORMAL, self._seq, entry))

    def _enqueue_exact(self, time: float, priority: int, seq: int,
                       event: Event) -> None:
        """Insert a restored queue entry under its snapshotted key.

        Restore-path only: the sequence number comes from the snapshot,
        so ``_seq`` is *not* advanced (the caller resets it separately).
        """
        event._scheduled = True
        heapq.heappush(self._heap, (time, priority, seq, event))

    def queue_items(self) -> list:
        """The queued ``(time, priority, seq, event)`` entries in firing
        order.  Checkpoint-path only — O(n log n), never on the hot path.
        """
        return sorted(self._heap)

    def settle(self, max_events: int = 5_000_000) -> float:
        """Advance to the next quiescent instant: fire events (in the
        normal total order) until every queued entry is a :class:`Tick`.

        At such an instant the event queue is pure data — every daemon
        is parked on an owner-tagged sleep and every process is either
        finished or parked on a pending (queue-absent) event — which is
        the precondition for :mod:`repro.checkpoint` capturing it.
        Returns the reached time.
        """
        budget = max_events
        while True:
            horizon = None
            for time, _prio, _seq, event in self.queue_items():
                if type(event) is not Tick:
                    horizon = time  # entries are sorted: keeps the max
            if horizon is None:
                return self.now
            # fire everything scheduled up to the horizon instant, in
            # exactly the order run() would have fired it
            while self.peek() <= horizon:
                self.step()
                budget -= 1
                if budget <= 0:
                    raise SimulationError(
                        "settle() exceeded its event budget without "
                        "reaching a tick-only queue")

    def clock_state(self) -> dict:
        """The engine-level snapshot scalars (time and sequence counter)."""
        return {"now": self.now, "seq": self._seq}

    def restore_clock(self, state: dict) -> None:
        """Restore :meth:`clock_state` (queue entries travel separately)."""
        self.now = float(state["now"])
        self._seq = int(state["seq"])

    def schedule_callback(self, delay: float,
                          callback: Callable[[], None]) -> Event:
        """Run a plain callable at ``now + delay`` (no process needed)."""
        ev = Event(self)
        ev.callbacks.append(lambda _ev: callback())
        ev.succeed(delay=delay)
        return ev

    def peek(self) -> float:
        """Time of the next event, or ``inf`` if the heap is empty."""
        return self._heap[0][0] if self._heap else float("inf")

    def step(self) -> None:
        """Process exactly one event (error if nothing is queued)."""
        heap = self._heap
        if not heap:
            raise SimulationError("empty event queue")
        time, _prio, _seq, event = heapq.heappop(heap)
        if time < self.now:  # pragma: no cover - heap guarantees order
            raise SimulationError("time went backwards")
        self.now = time
        instr = self._instr
        if instr is not None:
            # Inlined counter/gauge updates: this runs once per event.
            instr.events.value += 1
            depth = len(self._heap)
            gauge = instr.heap_depth
            gauge.value = depth
            if depth > gauge.max:
                gauge.max = depth
        event._fire()

    def run(self, until: Optional[float] = None,
            stop: Optional[Event] = None) -> None:
        """Run until the heap drains or simulated time reaches ``until``.

        ``stop`` — an :class:`Event` — returns as soon as it has
        triggered (checked once per processed event): the engine-level
        way to run "until this completes or the deadline passes" without
        an external step loop re-testing conditions per event.

        Event and heap-depth tallies accumulate in locals and are written
        back once per call, only when observability is on.  (Direct
        :meth:`step` calls count through their own inline path.)
        """
        if until is not None and until < self.now:
            raise ValueError(f"until={until} is in the past (now={self.now})")
        heap = self._heap
        pop = heapq.heappop
        nevents = 0
        depth_max = 0
        wall0, sim0 = perf_counter(), self.now
        try:
            while heap:
                if stop is not None and stop._ok is not None:
                    return
                if until is not None and heap[0][0] > until:
                    self.now = until
                    return
                time, _prio, _seq, event = pop(heap)
                self.now = time
                nevents += 1
                if len(heap) > depth_max:
                    depth_max = len(heap)
                event._fire()
            if until is not None:
                self.now = until
        finally:
            instr = self._instr
            if instr is not None:
                instr.events.value += nevents
                gauge = instr.heap_depth
                gauge.value = len(heap)
                if depth_max > gauge.max:
                    gauge.max = depth_max
                instr.wall_seconds.inc(perf_counter() - wall0)
                instr.sim_seconds.inc(self.now - sim0)
