"""Shared fixtures and helpers for the test suite."""

import numpy as np
import pytest

from repro.disk import Disk, SingleVolume
from repro.driver import InstrumentedIDEDriver, ProcTraceTransport
from repro.sim import Simulator


def drive(sim, gen, until=None):
    """Run generator ``gen`` as a process and return its value."""
    box = {}

    def runner():
        box["value"] = yield from gen

    sim.process(runner())
    sim.run(until=until)
    return box.get("value")


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def traced_driver(sim):
    """A disk + instrumented driver pair with a fast-draining transport."""
    disk = Disk(sim, rng=np.random.default_rng(0))
    transport = ProcTraceTransport(sim, drain_interval=0.25)
    driver = InstrumentedIDEDriver(sim, SingleVolume([disk]),
                                   transport=transport)
    return driver
