"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim import Simulator, SimulationError


def call_at(sim, delay, callback):
    """Run ``callback()`` at ``now + delay``: a timeout carrying a callback."""
    sim.timeout(delay).callbacks.append(lambda _ev: callback())


def test_timeout_advances_clock():
    sim = Simulator()
    log = []

    def proc(sim):
        yield sim.timeout(2.5)
        log.append(sim.now)
        yield sim.timeout(1.0)
        log.append(sim.now)

    sim.process(proc(sim))
    sim.run()
    assert log == [2.5, 3.5]
    assert sim.now == 3.5


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1.0)


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []
    for delay in (3.0, 1.0, 2.0):
        call_at(sim, delay, lambda d=delay: order.append(d))
    sim.run()
    assert order == [1.0, 2.0, 3.0]


def test_ties_fire_in_schedule_order():
    sim = Simulator()
    order = []
    for tag in "abc":
        call_at(sim, 1.0, lambda t=tag: order.append(t))
    sim.run()
    assert order == ["a", "b", "c"]


def test_run_until_stops_clock_exactly():
    sim = Simulator()

    def ticker(sim):
        while True:
            yield sim.timeout(1.0)

    sim.process(ticker(sim))
    sim.run(until=5.5)
    assert sim.now == 5.5


def test_run_until_past_raises():
    sim = Simulator()
    sim.run(until=3.0)
    with pytest.raises(ValueError):
        sim.run(until=1.0)


def test_process_return_value_propagates():
    sim = Simulator()
    results = []

    def child(sim):
        yield sim.timeout(1.0)
        return 42

    def parent(sim):
        value = yield sim.process(child(sim))
        results.append(value)

    sim.process(parent(sim))
    sim.run()
    assert results == [42]


def test_waiting_on_finished_process_resumes_immediately():
    sim = Simulator()
    results = []

    def child(sim):
        return 7
        yield  # pragma: no cover

    def parent(sim, childproc):
        yield sim.timeout(5.0)
        value = yield childproc
        results.append((sim.now, value))

    childproc = sim.process(child(sim))
    sim.process(parent(sim, childproc))
    sim.run()
    assert results == [(5.0, 7)]


def test_event_succeed_wakes_waiter():
    sim = Simulator()
    gate = sim.event()
    log = []

    def waiter(sim):
        value = yield gate
        log.append((sim.now, value))

    def opener(sim):
        yield sim.timeout(3.0)
        gate.succeed("open")

    sim.process(waiter(sim))
    sim.process(opener(sim))
    sim.run()
    assert log == [(3.0, "open")]


def test_event_cannot_trigger_twice():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_event_fail_raises_in_waiter():
    sim = Simulator()
    ev = sim.event()
    caught = []

    def waiter(sim):
        try:
            yield ev
        except RuntimeError as exc:
            caught.append(str(exc))

    sim.process(waiter(sim))
    ev.fail(RuntimeError("boom"))
    sim.run()
    assert caught == ["boom"]


def test_uncaught_process_exception_propagates_from_run():
    sim = Simulator()

    def bad(sim):
        yield sim.timeout(1.0)
        raise ValueError("exploded")

    proc = sim.process(bad(sim))
    with pytest.raises(ValueError, match="exploded"):
        sim.run()
    assert not proc.triggered         # a crash is raised, never recorded


def test_yield_non_event_raises():
    sim = Simulator()

    def bad(sim):
        yield 42

    sim.process(bad(sim))
    with pytest.raises(SimulationError, match="non-event"):
        sim.run()


def test_peek_reports_next_event_time():
    sim = Simulator()
    assert sim.peek() == float("inf")
    sim.timeout(4.0)
    assert sim.peek() == 4.0


def test_urgent_resumption_beats_same_time_callback():
    """Yielding an already-processed event resumes URGENTly — before a
    NORMAL-priority callback that entered the heap first."""
    sim = Simulator()
    order = []

    def noop(sim):
        yield sim.timeout(0.0)

    def parent(sim):
        child = sim.process(noop(sim))
        yield sim.timeout(1.0)        # child finished long ago
        call_at(sim, 0.0, lambda: order.append("callback"))
        yield child                   # already processed: urgent resume
        order.append("resumed")

    sim.process(parent(sim))
    sim.run()
    assert order == ["resumed", "callback"]


def test_run_until_exactly_on_event_timestamp_processes_it():
    """run(until=t) includes events scheduled at exactly t."""
    sim = Simulator()
    hits = []
    call_at(sim, 5.0, lambda: hits.append(sim.now))
    call_at(sim, 7.0, lambda: hits.append(sim.now))
    sim.run(until=5.0)
    assert hits == [5.0]
    assert sim.now == 5.0
    sim.run()                         # the rest still runs to completion
    assert hits == [5.0, 7.0]
