"""Composite events: wait for all of a set of events."""

from __future__ import annotations

from typing import Iterable

from repro.sim.core import Event, SimulationError, Simulator


class AllOf(Event):
    """Fires when every child fired; value is ``{index: value}``.

    Fails fast with the first child failure.
    """

    __slots__ = ("_events", "_pending", "_results")

    def __init__(self, sim: Simulator, events: Iterable[Event]):
        super().__init__(sim)
        self._events = list(events)
        for ev in self._events:
            if ev.sim is not sim:
                raise SimulationError("child event belongs to another simulator")
        self._pending = len(self._events)
        self._results = {}
        if not self._events:
            self.succeed({})
            return
        for i, ev in enumerate(self._events):
            if ev.callbacks is None:
                self._child_done(i, ev)
            else:
                ev.callbacks.append(lambda e, i=i: self._child_done(i, e))

    def _child_done(self, index: int, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            self.fail(event._value)
            return
        self._results[index] = event._value
        self._pending -= 1
        if self._pending == 0:
            self.succeed(dict(self._results))
