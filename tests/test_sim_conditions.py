"""Unit tests for the AllOf composite event."""


from repro.sim import Simulator


def test_all_of_waits_for_slowest():
    sim = Simulator()
    results = []

    def waiter(sim):
        values = yield sim.all_of([sim.timeout(1.0, "a"), sim.timeout(3.0, "b")])
        results.append((sim.now, values))

    sim.process(waiter(sim))
    sim.run()
    assert results == [(3.0, {0: "a", 1: "b"})]


def test_all_of_empty_fires_immediately():
    sim = Simulator()
    results = []

    def waiter(sim):
        values = yield sim.all_of([])
        results.append((sim.now, values))

    sim.process(waiter(sim))
    sim.run()
    assert results == [(0.0, {})]


def test_all_of_propagates_child_failure():
    sim = Simulator()
    failing = sim.event()
    caught = []

    def waiter(sim):
        try:
            yield sim.all_of([sim.timeout(10.0), failing])
        except RuntimeError as exc:
            caught.append(str(exc))

    sim.process(waiter(sim))
    failing.fail(RuntimeError("child died"))
    sim.run()
    assert caught == ["child died"]


def test_all_of_with_already_processed_child():
    sim = Simulator()
    done = sim.timeout(0.0, "early")
    sim.run()
    results = []

    def waiter(sim):
        values = yield sim.all_of([done, sim.timeout(1.0, "late")])
        results.append(values)

    sim.process(waiter(sim))
    sim.run()
    assert results == [{0: "early", 1: "late"}]
