"""Tests for media-error injection and driver retry behaviour."""

import numpy as np
import pytest

from repro.disk import Disk, IORequest, SingleVolume
from repro.driver import InstrumentedIDEDriver, ProcTraceTransport
from repro.sim import Simulator


def rig(error_rate, seed=0, max_retries=4):
    sim = Simulator()
    disk = Disk(sim, rng=np.random.default_rng(seed),
                media_error_rate=error_rate)
    transport = ProcTraceTransport(sim)
    driver = InstrumentedIDEDriver(sim, SingleVolume([disk]),
                                   transport=transport,
                                   max_retries=max_retries)
    return sim, disk, transport, driver


def test_error_rate_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        Disk(sim, media_error_rate=1.0)
    with pytest.raises(ValueError):
        Disk(sim, media_error_rate=-0.1)


def test_device_marks_failed_requests():
    sim, disk, _, _ = rig(error_rate=0.999)
    req = IORequest(sector=100, nsectors=2, is_write=False)
    disk.submit(req)
    sim.run()
    assert req.failed
    assert disk.stats.media_errors == 1


def test_no_errors_at_zero_rate():
    sim, disk, transport, driver = rig(error_rate=0.0)
    for s in range(0, 100, 4):
        driver.read_sectors(s, 2)
    sim.run(until=30.0)
    assert disk.stats.media_errors == 0
    assert driver.retries == 0


def test_driver_retries_until_success():
    # ~50% error rate: retries almost always recover within 4 attempts
    sim, disk, transport, driver = rig(error_rate=0.5, seed=1)
    results = []

    def app():
        for s in (100, 5000, 9000, 20_000):
            req = yield driver.read_sectors(s, 2)
            results.append(req.failed)

    sim.process(app())
    sim.run(until=60.0)
    assert results == [False, False, False, False]
    assert driver.retries > 0
    assert driver.hard_failures == 0


def test_each_retry_is_traced():
    sim, disk, transport, driver = rig(error_rate=0.5, seed=1)

    def app():
        yield driver.read_sectors(100, 2)

    sim.process(app())
    sim.run(until=30.0)
    transport.drain_now()
    arr = transport.user_buffer.to_array()
    # the trace shows one record per attempt: issued = 1 + retries
    assert len(arr) == 1 + driver.retries
    assert (arr["sector"] == 100).all()


def test_unrecoverable_error_raises_in_caller():
    sim, disk, transport, driver = rig(error_rate=0.98, seed=2,
                                       max_retries=2)
    caught = []

    def app():
        try:
            yield driver.read_sectors(100, 2)
        except IOError as exc:
            caught.append(str(exc))

    sim.process(app())
    sim.run(until=60.0)
    assert caught and "unrecoverable" in caught[0]
    assert driver.hard_failures == 1


def test_retry_costs_simulated_time():
    def completion_time(error_rate, seed):
        sim, disk, transport, driver = rig(error_rate=error_rate, seed=seed)
        box = {}

        def app():
            yield driver.read_sectors(500_000, 2)
            box["t"] = sim.now

        sim.process(app())
        sim.run(until=60.0)
        return box["t"]

    clean = completion_time(0.0, seed=3)
    # moderate error rate so retries recover within the limit
    flaky = completion_time(0.5, seed=3)
    assert flaky > clean
