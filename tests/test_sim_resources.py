"""Unit tests for Resource."""

import pytest

from repro.sim import Resource, Simulator
from repro.sim.core import SimulationError


def test_resource_grants_up_to_capacity():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    grants = []

    def user(sim, res, name, hold):
        req = res.request()
        yield req
        grants.append((name, sim.now))
        yield sim.timeout(hold)
        res.release(req)

    for name in ("a", "b", "c"):
        sim.process(user(sim, res, name, 5.0))
    sim.run()
    assert grants == [("a", 0.0), ("b", 0.0), ("c", 5.0)]


def test_resource_fifo_order():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    order = []

    def user(sim, res, name):
        with res.request() as req:
            yield req
            order.append(name)
            yield sim.timeout(1.0)

    for name in range(5):
        sim.process(user(sim, res, name))
    sim.run()
    assert order == [0, 1, 2, 3, 4]


def test_resource_counts_and_queue_length():
    sim = Simulator()
    res = Resource(sim, capacity=1)

    def holder(sim, res):
        with res.request() as req:
            yield req
            assert res.count == 1
            yield sim.timeout(10.0)

    def waiter(sim, res):
        yield sim.timeout(1.0)
        req = res.request()
        assert res.queue_length == 1
        yield req
        res.release(req)

    sim.process(holder(sim, res))
    sim.process(waiter(sim, res))
    sim.run()
    assert res.count == 0
    assert res.queue_length == 0


def test_release_ungranted_request_is_error():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    held = res.request()  # grabs the unit
    waiting = res.request()
    with pytest.raises(SimulationError):
        res.release(waiting)
    res.release(held)


def test_cancel_removes_from_queue():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    res.request()
    waiting = res.request()
    waiting.cancel()
    assert res.queue_length == 0


def test_capacity_must_be_positive():
    sim = Simulator()
    with pytest.raises(ValueError):
        Resource(sim, capacity=0)
