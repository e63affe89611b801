"""Integration tests for the NodeKernel facade."""

import numpy as np
import pytest

from repro.config import ConfigError, LayoutConfig, NodeConfig, VMConfig
from repro.kernel import NodeKernel
from repro.sim import RandomStreams
from tests.conftest import drive


@pytest.fixture
def node(sim):
    return NodeKernel(sim, streams=RandomStreams(seed=1), node_id=0)


def test_node_wires_all_subsystems(node):
    assert node.disk is not None
    assert node.fs.cache.driver is node.driver
    assert node.vm.driver is node.driver
    assert node.node_config == NodeConfig()


def test_user_frames_reflect_beowulf_memory():
    # 16 MB - 5 MB kernel - 2 MB buffer cache = 9 MB user = 2304 frames
    assert NodeConfig().user_frames == 2304


#: every kernel tunable off its default
TUNED = NodeConfig(
    block_kb=2, cpu_speed=2.0, timeslice=0.1, buffer_cache_kb=4096,
    writeback_cluster_blocks=4, max_readahead_kb=64, atime_updates=True,
    vm=VMConfig(ram_mb=32, page_kb=8),
    layout=LayoutConfig(swap_start=300_000, highlog_start=900_000))


def test_node_config_reaches_the_built_kernel(sim):
    node = NodeKernel(sim, TUNED, housekeeping=False)
    assert node.node_config is TUNED
    assert node.cache.capacity == 2048           # 4096 KB of 2 KB blocks
    assert node.cache.spb == 4
    assert node.cache.cluster_blocks == 4
    assert node.fs.block_kb == 2
    assert node.fs.atime_updates is True
    assert node.fs.layout is TUNED.layout
    # (32 MB - 5 MB kernel) - 4 MB buffer cache = 23 MB = 2944 8 KB frames
    assert node.vm.frames_total == TUNED.user_frames == 2944
    assert node.vm.page_kb == 8
    assert node.vm.swap_start == 300_000
    assert (node.cpu.speed, node.cpu.timeslice) == (2.0, 0.1)
    assert node.effective_readahead_kb() == 64
    handle = drive(sim, node.create("/f.dat"), until=1.0)
    assert handle.readahead.block_kb == 2


def test_bdflush_follows_node_config_interval_and_age(sim):
    """A block dirtied at t=0 goes out on the first bdflush tick at
    which it is ``bdflush_age`` old: t=3 with 1 s ticks and a 3 s age
    (t=5 under the defaults)."""
    node = NodeKernel(sim, NodeConfig(bdflush_interval=1.0,
                                      bdflush_age=3.0),
                      housekeeping=False)

    def writer():
        handle = yield from node.create("/data.out")
        yield from handle.write(1024)

    drive(sim, writer(), until=10.0)
    writes = node.trace_array()
    assert len(writes)
    assert 3.0 <= writes["time"].min() < 4.0


def test_invalid_node_config_given_to_kernel_raises(sim):
    with pytest.raises(ConfigError, match="node_config.buffer_cache_kb"):
        NodeKernel(sim, NodeConfig(buffer_cache_kb=12288))
    with pytest.raises(ConfigError, match="node_config.vm.page_kb"):
        NodeKernel(sim, NodeConfig(block_kb=3))


def test_baseline_run_produces_write_dominated_trace(sim, node):
    sim.run(until=600.0)
    arr = node.trace_array()
    assert len(arr) > 10
    assert (arr["write"] == 1).mean() > 0.9
    # 1 KB is the dominant request size (block I/O)
    sizes, counts = np.unique(arr["size_kb"], return_counts=True)
    assert sizes[np.argmax(counts)] <= 4.0


def test_baseline_rate_is_order_one_per_second(sim, node):
    sim.run(until=1000.0)
    arr = node.trace_array()
    rate = len(arr) / 1000.0
    assert 0.2 < rate < 3.0  # paper: 0.9 req/s


def test_baseline_touches_low_and_high_sectors(sim, node):
    sim.run(until=600.0)
    arr = node.trace_array()
    layout = node.node_config.layout
    assert (arr["sector"] < layout.swap_start).any()
    assert (arr["sector"] >= layout.highlog_start).any()


def test_app_file_io_through_node(sim, node):
    def app():
        handle = yield from node.create("/home/data.out")
        yield from handle.write(8 * 1024)
        handle.seek(0)
        n = yield from handle.read(8 * 1024)
        return n

    def main():
        yield from node.fs.makedirs("/home")
        proc = node.spawn(app(), name="writer")
        value = yield proc
        return value

    assert drive(sim, main(), until=50.0) == 8 * 1024
    assert node.fs.lookup("/home/data.out").size_bytes == 8 * 1024


def test_spawn_tracks_multiprogramming_level(sim, node):
    assert node.effective_readahead_kb() == 16

    def app(duration):
        yield sim.timeout(duration)

    node.spawn(app(10.0))
    node.spawn(app(10.0))
    assert node.apps_running == 2
    assert node.effective_readahead_kb() == 32  # scaled under load
    sim.run(until=20.0)
    assert node.apps_running == 0
    assert node.effective_readahead_kb() == 16


def test_set_trace_level_off_silences_trace(sim, node):
    from repro.driver import TraceLevel
    node.set_trace_level(TraceLevel.OFF)
    sim.run(until=120.0)
    assert len(node.trace_array()) == 0


def test_trace_timestamps_relative_to_reset(sim, node):
    def scenario():
        yield sim.timeout(50.0)
        node.driver.reset_clock()
        node.transport.drain_now()
        node.transport.user_buffer.clear()

    sim.process(scenario())
    sim.run(until=300.0)
    arr = node.trace_array()
    assert len(arr) > 0
    assert arr["time"].min() >= 0.0
    assert arr["time"].max() <= 250.0


def test_two_nodes_are_independent(sim):
    n0 = NodeKernel(sim, streams=RandomStreams(seed=1), node_id=0)
    n1 = NodeKernel(sim, streams=RandomStreams(seed=2), node_id=1)
    sim.run(until=300.0)
    a0 = n0.trace_array()
    a1 = n1.trace_array()
    assert set(a0["node"]) == {0}
    assert set(a1["node"]) == {1}
    # different seeds -> different arrival patterns
    assert len(a0) != len(a1) or not np.array_equal(a0["time"], a1["time"])


def test_failing_app_does_not_corrupt_multiprogramming_level(sim, node):
    """An application crash still decrements apps_running (finally path)."""
    def bad_app():
        yield sim.timeout(1.0)
        raise RuntimeError("app crashed")

    sim._fail_fast = False
    node.spawn(bad_app(), name="crasher")
    sim.run(until=5.0)
    assert node.apps_running == 0
    assert node.effective_readahead_kb() == 16


def test_failing_app_releases_vm_space(sim, node):
    from repro.apps import PPMApplication, PPMParams

    class ExplodingPPM(PPMApplication):
        def run(self):
            self._setup_address_space()
            self.stats.started_at = self.kernel.sim.now
            try:
                yield self.kernel.sim.timeout(1.0)
                raise RuntimeError("mid-run failure")
            finally:
                self.stats.finished_at = self.kernel.sim.now
                self._teardown_address_space()

    sim._fail_fast = False
    app = ExplodingPPM(node, params=PPMParams(steps=1))

    def setup():
        yield from app.install()

    sim.process(setup())
    sim.run(until=0.5)
    node.spawn(app.run(), name="exploder")
    sim.run(until=10.0)
    assert node.vm.frames_used == 0
    assert app.aspace is None
