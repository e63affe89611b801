"""step()/peek()/run() edge cases, including on restored clocks.

The event queue used to be selectable (a calendar queue or a binary
heap); clock snapshots taken then still name it in ``queue_kind``.  The
``calendar``/``heap`` cases run each edge case on a simulator restored
from such a snapshot — the stale name must change nothing — and the
``current`` case on a fresh one.
"""

import pytest

from repro.obs import MetricsRegistry
from repro.sim import SimulationError, Simulator

ENGINES = [pytest.param(None, id="current"),
           pytest.param("calendar", id="calendar"),
           pytest.param("heap", id="heap")]


def call_at(sim, delay, callback):
    """Run ``callback()`` at ``now + delay``: a timeout carrying a callback."""
    sim.timeout(delay).callbacks.append(lambda _ev: callback())


def _sim(engine, **kwargs):
    """A simulator at time zero, restored from a clock snapshot naming
    ``engine`` (a fresh one for ``engine=None``)."""
    sim = Simulator(**kwargs)
    if engine is not None:
        sim.restore_clock({"now": 0.0, "seq": 0, "queue_kind": engine})
    return sim


@pytest.mark.parametrize("kind", ENGINES)
def test_step_on_empty_queue_raises_simulation_error(kind):
    sim = _sim(kind)
    with pytest.raises(SimulationError, match="empty event queue"):
        sim.step()


@pytest.mark.parametrize("kind", ENGINES)
def test_step_after_drain_raises(kind):
    sim = _sim(kind)
    sim.timeout(1.0)
    sim.run()
    with pytest.raises(SimulationError, match="empty event queue"):
        sim.step()


@pytest.mark.parametrize("kind", ENGINES)
def test_peek_on_empty_queue_is_inf(kind):
    assert _sim(kind).peek() == float("inf")


@pytest.mark.parametrize("kind", ENGINES)
def test_run_until_stops_clock_exactly(kind):
    sim = _sim(kind)
    fired = []

    def ticker(sim):
        while True:
            yield sim.timeout(1.0)
            fired.append(sim.now)

    sim.process(ticker(sim))
    sim.run(until=5.5)
    assert sim.now == 5.5
    assert fired == [1.0, 2.0, 3.0, 4.0, 5.0]
    # resumable: the pending tick is still queued
    sim.run(until=6.5)
    assert fired[-1] == 6.0


@pytest.mark.parametrize("kind", ENGINES)
def test_run_until_on_empty_queue_advances_clock(kind):
    sim = _sim(kind)
    sim.run(until=3.0)
    assert sim.now == 3.0
    with pytest.raises(ValueError):
        sim.run(until=1.0)


@pytest.mark.parametrize("kind", ENGINES)
def test_run_until_boundary_event_fires(kind):
    sim = _sim(kind)
    fired = []
    call_at(sim, 5.0, lambda: fired.append(sim.now))
    call_at(sim, 5.0 + 1e-9, lambda: fired.append("late"))
    sim.run(until=5.0)
    # an event exactly at the deadline fires; anything past it waits
    assert fired == [5.0]
    assert sim.now == 5.0


@pytest.mark.parametrize("kind", ENGINES)
def test_run_stop_event_halts_both_engines(kind):
    sim = _sim(kind)
    fired = []

    def worker(sim):
        yield sim.timeout(2.0)
        fired.append("stopper")

    proc = sim.process(worker(sim))
    for d in (1.0, 3.0, 4.0):
        call_at(sim, d, lambda d=d: fired.append(d))
    sim.run(stop=proc)
    # checked once per event: the 1.0 and 2.0 events ran, 3.0+ did not
    assert fired == [1.0, "stopper"]
    sim.run()
    assert fired == [1.0, "stopper", 3.0, 4.0]


@pytest.mark.parametrize("kind", ENGINES)
def test_double_schedule_rejected(kind):
    sim = _sim(kind)
    ev = sim.event()
    ev.succeed(delay=1.0)
    with pytest.raises(SimulationError):
        ev.succeed(delay=2.0)


@pytest.mark.parametrize("kind", ENGINES)
def test_instrumented_run_counts_events(kind):
    registry = MetricsRegistry()
    sim = _sim(kind, obs=registry)
    for d in (1.0, 2.0, 3.0):
        sim.timeout(d)
    sim.run()
    assert registry.counter("sim.events_processed").value == 3
