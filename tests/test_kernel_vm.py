"""Unit tests for the virtual memory / demand paging substrate."""

import numpy as np
import pytest

from repro.config import LayoutConfig
from repro.disk import Disk, SingleVolume
from repro.driver import InstrumentedIDEDriver, ProcTraceTransport
from repro.kernel import VirtualMemory
from repro.kernel.vm import OutOfSwap
from repro.sim import Simulator
from tests.conftest import drive


@pytest.fixture
def vm_rig():
    sim = Simulator()
    disk = Disk(sim, rng=np.random.default_rng(0))
    transport = ProcTraceTransport(sim)
    driver = InstrumentedIDEDriver(sim, SingleVolume([disk]),
                                   transport=transport)
    vm = VirtualMemory(driver, frames_total=4, page_kb=4)
    return sim, vm, transport


def traces(transport):
    transport.drain_now()
    return transport.user_buffer.to_array()


def test_zero_fill_costs_no_io(vm_rig):
    sim, vm, transport = vm_rig
    aspace = vm.create_space("app")
    drive(sim, vm.access(aspace, 0))
    assert vm.stats.zero_fills == 1
    assert len(traces(transport)) == 0
    assert aspace.rss == 1


def test_resident_hit_costs_nothing(vm_rig):
    sim, vm, transport = vm_rig
    aspace = vm.create_space("app")
    drive(sim, vm.access(aspace, 0))
    drive(sim, vm.access(aspace, 0))
    assert vm.stats.hits == 1
    assert vm.stats.faults == 1


def test_demand_load_reads_4kb_from_file_location(vm_rig):
    sim, vm, transport = vm_rig
    aspace = vm.create_space("app")
    aspace.map_file_page(0, 32_000)  # file-backed page at sector 32000
    drive(sim, vm.access(aspace, 0))
    arr = traces(transport)
    assert len(arr) == 1
    assert arr["write"][0] == 0
    assert arr["sector"][0] == 32_000
    assert arr["size_kb"][0] == 4.0
    assert vm.stats.demand_loads == 1


def test_dirty_eviction_writes_to_swap_and_swapin_reads_back(vm_rig):
    sim, vm, transport = vm_rig
    aspace = vm.create_space("app")
    # Fill all 4 frames with dirty pages, then touch a 5th.
    for page in range(4):
        drive(sim, vm.access(aspace, page, write=True))
    drive(sim, vm.access(aspace, 4, write=True))
    arr = traces(transport)
    writes = arr[arr["write"] == 1]
    assert len(writes) == 1
    layout = LayoutConfig()
    assert writes["sector"][0] >= layout.swap_start
    assert writes["size_kb"][0] == 4.0
    assert aspace.has_swap_copy(0)
    # Touch page 0 again: swap-in read from the same slot.
    drive(sim, vm.access(aspace, 0))
    arr = traces(transport)
    reads = arr[arr["write"] == 0]
    assert len(reads) == 1
    assert reads["sector"][0] == writes["sector"][0]
    assert vm.stats.swap_ins == 1


def test_clean_eviction_is_silent(vm_rig):
    sim, vm, transport = vm_rig
    aspace = vm.create_space("app")
    for page in range(5):  # clean zero-fill pages, one eviction
        drive(sim, vm.access(aspace, page, write=False))
    assert vm.stats.evictions == 1
    assert vm.stats.swap_outs == 0
    assert len(traces(transport)) == 0


def test_global_lru_evicts_across_spaces(vm_rig):
    sim, vm, transport = vm_rig
    a = vm.create_space("a")
    b = vm.create_space("b")
    for page in range(4):
        drive(sim, vm.access(a, page, write=True))
    drive(sim, vm.access(b, 0, write=True))  # pressure from b evicts a's LRU
    assert a.has_swap_copy(0)
    assert b.rss == 1


def test_touch_range_demand_loads_sequentially(vm_rig):
    sim, vm, transport = vm_rig
    aspace = vm.create_space("app")
    for i in range(3):
        aspace.map_file_page(i, 40_000 + i * 8)
    drive(sim, vm.touch_range(aspace, 0, 3))
    arr = traces(transport)
    assert len(arr) == 3
    assert list(arr["sector"]) == [40_000, 40_008, 40_016]


def test_destroy_space_releases_frames(vm_rig):
    sim, vm, transport = vm_rig
    aspace = vm.create_space("app")
    for page in range(4):
        drive(sim, vm.access(aspace, page))
    assert vm.frames_free == 0
    vm.destroy_space(aspace)
    assert vm.frames_free == 4


def test_out_of_swap_raises():
    sim = Simulator()
    disk = Disk(sim, rng=np.random.default_rng(0))
    driver = InstrumentedIDEDriver(sim, SingleVolume([disk]))
    layout = LayoutConfig(swap_sectors=8)  # exactly one 4 KB slot
    vm = VirtualMemory(driver, frames_total=1, page_kb=4, layout=layout)
    aspace = vm.create_space("app")
    drive(sim, vm.access(aspace, 0, write=True))
    drive(sim, vm.access(aspace, 1, write=True))  # uses the only slot
    with pytest.raises(OutOfSwap):
        drive(sim, vm.access(aspace, 2, write=True))


def test_rss_accounting(vm_rig):
    sim, vm, transport = vm_rig
    aspace = vm.create_space("app")
    for page in range(6):  # 4 frames; rss capped
        drive(sim, vm.access(aspace, page))
    assert aspace.rss == 4
    assert vm.frames_used == 4
