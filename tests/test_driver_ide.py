"""Unit tests for the instrumented IDE driver and /proc transport."""

import numpy as np
import pytest

from repro.disk import Disk, SingleVolume
from repro.driver import (
    HDIO_GET_TRACE,
    HDIO_SET_TRACE,
    InstrumentedIDEDriver,
    ProcTraceTransport,
    TraceLevel,
)
from repro.sim import Simulator


@pytest.fixture
def rig():
    sim = Simulator()
    disk = Disk(sim, rng=np.random.default_rng(0))
    transport = ProcTraceTransport(sim, drain_interval=0.5)
    driver = InstrumentedIDEDriver(sim, SingleVolume([disk]), node_id=3,
                                   transport=transport)
    return sim, disk, transport, driver


def test_each_request_generates_one_trace_record(rig):
    sim, disk, transport, driver = rig
    driver.read_sectors(1000, 2)
    driver.write_sectors(2000, 8)
    sim.run(until=10)
    transport.drain_now()
    arr = transport.user_buffer.to_array()
    assert len(arr) == 2
    assert arr["sector"].tolist() == [1000, 2000]
    assert arr["write"].tolist() == [0, 1]
    assert arr["node"].tolist() == [3, 3]
    assert arr["size_kb"].tolist() == [1.0, 4.0]


def test_pending_count_reflects_queue_depth(rig):
    sim, disk, transport, driver = rig
    for s in (100, 200, 300):
        driver.read_sectors(s, 2)
    sim.run(until=10)
    transport.drain_now()
    arr = transport.user_buffer.to_array()
    # First record logged with itself as the only pending request, etc.
    assert arr["pending"].tolist() == [1, 2, 3]


def test_ioctl_toggles_instrumentation(rig):
    sim, disk, transport, driver = rig
    driver.ioctl(HDIO_SET_TRACE, TraceLevel.OFF)
    assert driver.ioctl(HDIO_GET_TRACE) == TraceLevel.OFF
    driver.read_sectors(100, 2)
    sim.run(until=5)
    driver.ioctl(HDIO_SET_TRACE, TraceLevel.BASIC)
    driver.read_sectors(200, 2)
    sim.run(until=10)
    transport.drain_now()
    arr = transport.user_buffer.to_array()
    assert len(arr) == 1
    assert arr["sector"][0] == 200
    # but the disk serviced both
    assert disk.stats.reads == 2


def test_unknown_ioctl_rejected(rig):
    _, _, _, driver = rig
    with pytest.raises(ValueError):
        driver.ioctl(0xDEAD)


def test_verbose_level_adds_completion_records(rig):
    sim, disk, transport, driver = rig
    driver.ioctl(HDIO_SET_TRACE, TraceLevel.VERBOSE)
    driver.read_sectors(100, 2)
    sim.run(until=10)
    transport.drain_now()
    arr = transport.user_buffer.to_array()
    assert len(arr) == 2  # submit + completion
    assert arr["time"][1] > arr["time"][0]


def test_reset_clock_offsets_timestamps(rig):
    sim, disk, transport, driver = rig

    def scenario(sim):
        yield sim.timeout(100.0)
        driver.reset_clock()
        driver.read_sectors(100, 2)

    sim.process(scenario(sim))
    sim.run(until=200)
    transport.drain_now()
    arr = transport.user_buffer.to_array()
    assert arr["time"][0] == pytest.approx(0.0)


def test_sector_handlers_trace_sector_and_size(rig):
    sim, disk, transport, driver = rig
    driver.write_sectors(1, 1)
    driver.read_sectors(0, 3)
    sim.run(until=10)
    transport.drain_now()
    arr = transport.user_buffer.to_array()
    assert arr["sector"].tolist() == [1, 0]
    assert arr["size_kb"].tolist() == [0.5, 1.5]


def test_sector_handlers_reject_empty(rig):
    _, _, _, driver = rig
    with pytest.raises(ValueError):
        driver.read_sectors(0, 0)


def test_ring_overflow_drops_and_counts():
    sim = Simulator()
    disk = Disk(sim, rng=np.random.default_rng(0))
    transport = ProcTraceTransport(sim, ring_capacity=2, drain_interval=100.0)
    driver = InstrumentedIDEDriver(sim, SingleVolume([disk]),
                                   transport=transport)
    for s in (100, 200, 300, 400):
        driver.read_sectors(s, 2)
    assert transport.ring_fill == 2
    assert transport.dropped == 2


def test_drain_loop_moves_records_periodically():
    sim = Simulator()
    disk = Disk(sim, rng=np.random.default_rng(0))
    transport = ProcTraceTransport(sim, drain_interval=1.0)
    driver = InstrumentedIDEDriver(sim, SingleVolume([disk]),
                                   transport=transport)
    driver.read_sectors(100, 2)
    sim.run(until=1.5)
    assert len(transport.user_buffer) == 1
    assert transport.ring_fill == 0


def test_sink_called_with_drain_count():
    sim = Simulator()
    counts = []
    disk = Disk(sim, rng=np.random.default_rng(0))
    transport = ProcTraceTransport(sim, drain_interval=1.0,
                                   sink=counts.append)
    driver = InstrumentedIDEDriver(sim, SingleVolume([disk]),
                                   transport=transport)
    driver.read_sectors(100, 2)
    driver.read_sectors(300, 2)
    sim.run(until=1.5)
    assert counts == [2]
