"""Stateful property tests for the simulation engine's counted resource."""

from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.sim import Resource, Simulator

CAPACITY = 3


class ResourceMachine(RuleBasedStateMachine):
    """Random acquire/release traffic against a counted resource."""

    @initialize()
    def setup(self):
        self.sim = Simulator()
        self.res = Resource(self.sim, capacity=CAPACITY)
        self.granted = []       # requests we hold
        self.waiting = []       # requests not yet granted

    @rule()
    def request(self):
        req = self.res.request()
        self.sim.run(until=self.sim.now + 1.0)
        if req.triggered:
            self.granted.append(req)
        else:
            self.waiting.append(req)

    @rule(data=st.data())
    def release(self, data):
        if not self.granted:
            return
        idx = data.draw(st.integers(0, len(self.granted) - 1))
        req = self.granted.pop(idx)
        self.res.release(req)
        self.sim.run(until=self.sim.now + 1.0)
        # a waiter may have been promoted
        promoted = [w for w in self.waiting if w.triggered]
        for w in promoted:
            self.waiting.remove(w)
            self.granted.append(w)

    @rule(data=st.data())
    def cancel_waiting(self, data):
        if not self.waiting:
            return
        idx = data.draw(st.integers(0, len(self.waiting) - 1))
        req = self.waiting.pop(idx)
        req.cancel()

    @invariant()
    def counts_consistent(self):
        if not hasattr(self, "res"):
            return
        assert self.res.count == len(self.granted)
        assert self.res.count <= CAPACITY
        assert self.res.queue_length == len(self.waiting)
        # FIFO fairness: nobody waits while capacity is free
        if self.waiting:
            assert self.res.count == CAPACITY


TestResourceMachine = ResourceMachine.TestCase
TestResourceMachine.settings = settings(max_examples=30,
                                        stateful_step_count=25,
                                        deadline=None)
