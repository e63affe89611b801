"""Tests for the kswapd-style background reclaimer."""

import numpy as np
import pytest

from repro.disk import Disk, SingleVolume
from repro.driver import InstrumentedIDEDriver, ProcTraceTransport
from repro.kernel import VirtualMemory
from repro.sim import Simulator


def make_vm(sim, frames=100):
    disk = Disk(sim, rng=np.random.default_rng(0))
    transport = ProcTraceTransport(sim)
    driver = InstrumentedIDEDriver(sim, SingleVolume([disk]),
                                   transport=transport)
    return VirtualMemory(driver, frames_total=frames, page_kb=4)


def test_reclaimer_maintains_free_pool():
    sim = Simulator()
    vm = make_vm(sim, frames=100)
    vm.attach_reclaimer(sim, low_fraction=0.05, high_fraction=0.10)
    aspace = vm.create_space("app")

    def workload():
        for page in range(100):
            yield from vm.access(aspace, page, write=True)
        # give kswapd time to run after the pool filled
        yield sim.timeout(10.0)

    sim.process(workload())
    sim.run(until=60.0)
    assert vm.frames_free >= 10                    # back above high mark
    assert vm.stats.background_evictions > 0


def test_reclaimer_reduces_direct_reclaims():
    def run(with_reclaimer):
        sim = Simulator()
        vm = make_vm(sim, frames=64)
        if with_reclaimer:
            vm.attach_reclaimer(sim, low_fraction=0.1, high_fraction=0.3)
        aspace = vm.create_space("app")
        rng = np.random.default_rng(1)

        def workload():
            for _ in range(400):
                page = int(rng.integers(0, 128))
                yield from vm.access(aspace, page, write=True)
                yield sim.timeout(0.05)   # time for kswapd to keep up

        sim.process(workload())
        sim.run(until=120.0)
        return vm.stats

    without = run(False)
    with_k = run(True)
    assert without.direct_reclaims > 0
    assert with_k.direct_reclaims < without.direct_reclaims


def test_fault_with_empty_pool_still_direct_reclaims():
    sim = Simulator()
    vm = make_vm(sim, frames=4)
    vm.attach_reclaimer(sim, low_fraction=0.2, high_fraction=0.5)
    aspace = vm.create_space("app")

    def burst():
        # back-to-back faults give kswapd no time to run
        for page in range(12):
            yield from vm.access(aspace, page, write=True)

    sim.process(burst())
    sim.run(until=30.0)
    assert vm.stats.direct_reclaims > 0
    assert vm.frames_used <= 4


def test_reclaimer_validation():
    sim = Simulator()
    vm = make_vm(sim)
    with pytest.raises(ValueError):
        vm.attach_reclaimer(sim, low_fraction=0.5, high_fraction=0.2)
    vm.attach_reclaimer(sim)
    with pytest.raises(RuntimeError):
        vm.attach_reclaimer(sim)


def test_reclaimer_idle_does_not_block_simulation_end():
    sim = Simulator()
    vm = make_vm(sim)
    vm.attach_reclaimer(sim)
    sim.run(until=5.0)
    sim.run()   # an idle kswapd parks off the queue: it drains, no hang
    assert sim.now >= 5.0
