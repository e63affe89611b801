"""What the kernel's page and block bookkeeping costs in memory.

The VM, the filesystem and the buffer cache keep one entry per page or
block of a run: resident frames, swap copies, file-backed pages, inode
block maps, zone free lists and cached buffers.  Each is a flat
container of machine words, so its cost per page or block is bounded
here with ``tracemalloc``, counting only what the kernel module itself
allocated.  A finished application also leaves no frame table behind.
"""

import random
import tracemalloc

import pytest

import repro.kernel.buffercache as buffercache_module
import repro.kernel.fs as fs_module
import repro.kernel.vm as vm_module
from repro.config import LayoutConfig, Scenario
from repro.core import ExperimentRunner
from repro.kernel import BufferCache, FileSystem, VirtualMemory
from tests.conftest import drive

N = 20_000


class NullDriver:
    """Completes every request after a fixed delay; keeps no trace."""

    def __init__(self, sim):
        self.sim = sim

    def read_sectors(self, sector, nsectors, origin=None):
        return self.sim.timeout(0.001)

    write_sectors = read_sectors


@pytest.fixture
def traced():
    tracemalloc.start()
    try:
        yield
    finally:
        tracemalloc.stop()


def held_by(module) -> int:
    """Bytes alive now that were allocated in ``module``'s source file."""
    snapshot = tracemalloc.take_snapshot().filter_traces(
        [tracemalloc.Filter(True, module.__file__)])
    return sum(stat.size for stat in snapshot.statistics("filename"))


def test_swap_bookkeeping_costs_about_nine_bytes_a_page(sim, traced):
    layout = LayoutConfig(swap_sectors=(N + 1) * 8)
    vm = VirtualMemory(NullDriver(sim), frames_total=1, layout=layout)
    aspace = vm.create_space("app")
    before = held_by(vm_module)
    # every page comes in dirty and pushes the one before it to swap
    drive(sim, vm.touch_range(aspace, 0, N, write=True))
    assert vm.stats.swap_outs == N - 1
    # slot map and slot order (4 bytes each), the copy bitmap (1) and
    # the page -> frame map (2)
    assert (held_by(vm_module) - before) / N < 12
    assert all(aspace.has_swap_copy(p) for p in range(N - 1))
    assert not aspace.has_swap_copy(N - 1)


def test_a_resident_frame_costs_under_24_bytes(sim, traced):
    frames = 2304                       # a 16 MB node's user frames
    vm = VirtualMemory(NullDriver(sim), frames_total=frames)
    aspace = vm.create_space("app")
    rng = random.Random(1)
    before = held_by(vm_module)

    def fill_and_churn():
        yield from vm.touch_range(aspace, 0, frames)
        # clean touches over twice as many pages: hits and evictions,
        # and no swap bookkeeping
        for page in rng.choices(range(2 * frames), k=4 * frames):
            yield from vm.access(aspace, page)

    drive(sim, fill_and_churn())
    assert vm.frames_used == aspace.rss == frames
    assert vm.stats.hits > frames and vm.stats.evictions > frames
    assert vm.stats.swap_outs == 0
    # space index, page, dirty byte and two LRU links (13 bytes a frame)
    # plus the space's page -> frame map (2 bytes a page)
    assert (held_by(vm_module) - before) / frames < 24


def test_file_backed_pages_cost_four_bytes_a_page(sim, traced):
    vm = VirtualMemory(NullDriver(sim), frames_total=1)
    aspace = vm.create_space("app")
    before = held_by(vm_module)
    for page in range(N):
        aspace.map_file_page(page, 8 * page)
    assert (held_by(vm_module) - before) / N < 5
    file_pages = vm.snapshot_state()["spaces"][0]["file_pages"]
    assert file_pages == [[p, 8 * p, 8] for p in range(N)]


def test_inode_maps_and_free_lists_cost_four_bytes_a_block(sim, traced):
    cache = BufferCache(sim, NullDriver(sim), capacity_blocks=512)
    fs = FileSystem(cache)
    inode = drive(sim, fs.create("/big"))
    free = fs.zone_blocks_free("data")
    before = held_by(fs_module)
    drive(sim, fs.truncate_extend(inode, N * 1024))
    assert inode.nblocks == N
    assert (held_by(fs_module) - before) / N < 5
    drive(sim, fs.unlink("/big"))
    del inode
    # every data and indirect block now sits on the zone's free list
    assert fs.zone_blocks_free("data") == free
    assert (held_by(fs_module) - before) / N < 5


def test_cached_buffers_cost_no_object_of_their_own(sim, traced):
    cache = BufferCache(sim, NullDriver(sim), capacity_blocks=N)
    before = held_by(buffercache_module)
    drive(sim, cache.write_range(0, N))
    assert len(cache) == cache.dirty_count == N
    held = held_by(buffercache_module) - before
    drive(sim, cache.sync())
    assert cache.dirty_count == 0 and len(cache) == N
    # an LRU entry and a dirty-index entry a block; a buffer object
    # for each block as well would cost over 180 bytes a block
    assert held / N < 160


def test_a_finished_app_leaves_no_frame_table(traced):
    runner = ExperimentRunner(scenario=Scenario().with_overrides(
        {"cluster.nnodes": 2, "seed": 1}))
    runner.run("wavelet")
    vms = [node.kernel.vm for node in runner.last_cluster.nodes]
    assert all(vm.stats.swap_outs > 0 for vm in vms)
    assert all(vm.frames_used == 0 for vm in vms)
    # what stays is mostly the free-slot list, 4 bytes a slot (about
    # 2,700 slots a node here); frame tables left at their high-water
    # mark of 2,304 frames and more would hold about 70 KiB more
    assert held_by(vm_module) < 64 * 1024
