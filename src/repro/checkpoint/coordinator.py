"""Quiescence coordination: holding applications at safe points.

A checkpoint can only capture the stack when the event queue is pure
data (owner-tagged :class:`~repro.sim.Tick` sleeps) and every process is
parked on a *pending* event.  Daemons reach that state on their own —
:meth:`Simulator.settle` just fires what is in flight — but applications
would keep generating work forever, so they cooperate through this
coordinator:

* the experiment runner calls :meth:`arm` at a checkpoint epoch;
* each application checks :meth:`should_hold` between *bodies* (the
  numbered sections its ``run()`` is built from) and parks on
  :meth:`hold` when its cursor reaches the family's target;
* once :attr:`all_held` is true the runner settles the simulator,
  captures, and :meth:`release`\\ s everyone in a deterministic order.

The per-family target is ``max(cursor) + 1`` over the family's live
members: every member runs to exactly that body boundary, so any
message or barrier inside a completed body has already been matched by
its peers (sends precede receives within a body), and none can deadlock
waiting for a held partner.

On a restore the coordinator stays unarmed: re-spawned applications
park on their holds before running their next body (they resume from a
token, not through :meth:`should_hold`), the runner settles the
re-parked daemons, and the same ordered release makes the continuation
consume sequence numbers exactly as the uninterrupted (armed) run did.
"""

from __future__ import annotations

from typing import Dict, List

from repro.sim import Event, Simulator


class CheckpointCoordinator:
    """Arms/holds/releases the applications around a capture point."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.armed = False
        #: family name -> body cursor a member holds at (armed mode)
        self._targets: Dict[str, int] = {}
        #: applications whose ``run()`` began and has not returned; a
        #: finished one is dropped, so it is not kept alive from here
        self._live: List[object] = []
        self._held: Dict[object, Event] = {}

    # -- application side ---------------------------------------------------
    def started(self, app) -> None:
        """An application's ``run()`` began (or resumed)."""
        self._live.append(app)

    def finished(self, app) -> None:
        """An application's ``run()`` returned (or raised)."""
        self._live.remove(app)

    def should_hold(self, app) -> bool:
        """Checked by applications at each body boundary."""
        if not self.armed:
            return False
        target = self._targets.get(app.name)
        return target is not None and app.cursor >= target

    def hold(self, app) -> Event:
        """A pending event the application parks on until release."""
        event = self.sim.event()
        self._held[app] = event
        return event

    # -- runner side --------------------------------------------------------
    def arm(self) -> None:
        """Start a checkpoint epoch: compute each family's hold target."""
        deepest: Dict[str, int] = {}
        for app in self._live:
            cursor = deepest.get(app.name, -1)
            if app.cursor > cursor:
                deepest[app.name] = app.cursor
        self._targets = {name: cursor + 1
                         for name, cursor in deepest.items()}
        self.armed = True

    @property
    def all_held(self) -> bool:
        """Every live application is parked (vacuously true with none)."""
        return all(a in self._held for a in self._live)

    def release(self) -> None:
        """Wake every held application, in sorted (family, node) order.

        The order is the determinism contract: each ``succeed`` consumes
        one sequence number, so a restored run — which resets the
        sequence counter to the captured value first — schedules the
        continuations under exactly the sequence numbers the armed
        uninterrupted run used.
        """
        held = sorted(self._held.items(),
                      key=lambda item: (item[0].name, item[0].node_id))
        self._held.clear()
        self.armed = False
        self._targets = {}
        for _app, event in held:
            event.succeed()
