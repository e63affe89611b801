"""Limit-only scenario knobs, each shown biting through the scenario.

A limit-only knob bounds something a default run never reaches (a ring
the drain keeps empty, a zone the run never fills, a segment longer
than any read), so perturbing it moves no trace.  Each test here sets
one through ``Scenario`` tight enough that the bound decides what
happens; the volume knobs act once a node has a second disk.
``tools/knob_liveness.py`` lists these tests in its ``LIMIT_ONLY``
table, and ``test_knob_liveness_table`` checks that every entry there
names a real leaf and a real test.
"""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.config import ConfigError, LayoutConfig, Scenario
from repro.core import ExperimentRunner
from repro.disk import IORequest
from repro.kernel import NodeKernel
from repro.kernel.fs import FsError
from repro.kernel.vm import OutOfSwap
from repro.obs import flatten_snapshot
from repro.sim import Simulator
from tests.conftest import drive

ROOT = Path(__file__).resolve().parent.parent


def test_small_ring_drops_trace_records():
    # the drain empties the /proc ring every 60 s; 8 slots overflow
    # between drains, 4096 never do
    scenario = Scenario().with_overrides({
        "cluster.nnodes": 1, "seed": 1,
        "node.driver.drain_interval": 60.0})
    flats, lengths = [], []
    for capacity in (4096, 8):
        result = ExperimentRunner(
            scenario=scenario.with_override("node.driver.ring_capacity",
                                            capacity),
            obs=True).run("baseline", duration=120.0)
        flats.append(flatten_snapshot(result.obs))
        lengths.append(len(result.trace))
    assert flats[0]["trace.ring_dropped{0}"] == 0
    assert flats[1]["trace.ring_dropped{0}"] > 0
    assert lengths[1] < lengths[0]


def cached_reread(segment_sectors: int, nsectors: int) -> bool:
    """Read ``nsectors`` at sector 1000 of a scenario-built disk, then
    re-read them: did the re-read hit the drive cache?"""
    node = Scenario().with_override(
        "node.disks[0].cache.segment_sectors", segment_sectors).node
    sim = Simulator()
    disk = node.build_volume(sim, [np.random.default_rng(0)]).disks[0]

    def reads():
        yield disk.submit(IORequest(sector=1000, nsectors=nsectors,
                                    is_write=False))
        yield disk.submit(IORequest(sector=1000, nsectors=nsectors,
                                    is_write=False))

    sim.process(reads())
    sim.run()
    return disk.cache.hits == 1


def test_segment_size_bounds_a_cached_read():
    # a segment holds the read plus its 32-sector look-ahead: a 16 KB
    # read fits the default 64-sector segment, a 24 KB read does not
    assert cached_reread(64, 32)
    assert not cached_reread(64, 48)
    assert cached_reread(128, 48)


def test_volume_knobs_act_only_over_several_disks():
    # a one-disk volume maps every sector to itself whatever its policy
    # and stripe unit; over two disks both decide where a block lands
    def records(disks, policy, stripe_kb):
        scenario = Scenario.from_dict({
            "cluster": {"nnodes": 1}, "seed": 1,
            "node": {"disks": [{}] * disks,
                     "volume": {"policy": policy, "stripe_kb": stripe_kb}}})
        return ExperimentRunner(scenario=scenario).run(
            "baseline", duration=120.0).trace.records.tobytes()

    one = {records(1, policy, stripe_kb) for policy in ("concat", "raid0",
                                                        "raid1")
           for stripe_kb in (8, 16)}
    assert one == {records(1, "single", 8)}
    two = [records(2, "raid0", 8), records(2, "raid0", 16),
           records(2, "concat", 8), records(2, "raid1", 8)]
    assert len(set(two)) == 4


def small_zone_kernel(zone: str, nsectors: int, **overrides):
    scenario = Scenario().with_overrides(
        {f"node.layout.{zone}_sectors": nsectors, **overrides}).validate()
    return NodeKernel(Simulator(), node_config=scenario.node,
                      housekeeping=False)


def fill(kernel, zone: str, nbytes: int):
    def write():
        handle = yield from kernel.create(f"/fill-{zone}", zone=zone)
        yield from handle.write(nbytes)
    return drive(kernel.sim, write(), until=1.0)


@pytest.mark.parametrize("zone", LayoutConfig.ZONES)
def test_zone_size_bounds_what_the_zone_holds(zone):
    if zone == "metadata":
        # the superblock, bitmaps and inode table must fit the zone:
        # a smaller one fails at validate, before a kernel is built
        small_zone_kernel(zone, 4096)
        small_zone_kernel(zone, 1154)
        with pytest.raises(ConfigError) as err:
            small_zone_kernel(zone, 1152)
        assert str(err.value) == (
            "scenario.node.layout.metadata_sectors: metadata zone of 1152 "
            "sectors cannot hold the superblock, block bitmap and inode "
            "table (1154 sectors)")
    elif zone == "swap":
        # one user frame, and a swap zone of one 4 KB slot: the third
        # dirty page has nowhere to go
        kernel = small_zone_kernel(zone, 8, **{"node.buffer_cache_kb":
                                               11260})
        vm, sim = kernel.vm, kernel.sim
        space = vm.create_space("app")
        drive(sim, vm.access(space, 0, write=True), until=1.0)
        drive(sim, vm.access(space, 1, write=True), until=2.0)
        with pytest.raises(OutOfSwap):
            drive(sim, vm.access(space, 2, write=True), until=3.0)
    else:
        # 64 KB of file data fits a 256-sector zone, not a 64-sector one
        fill(small_zone_kernel(zone, 256), zone, 64 * 1024)
        with pytest.raises(FsError, match="zone full"):
            fill(small_zone_kernel(zone, 64), zone, 64 * 1024)


def test_knob_liveness_table():
    """Every LIMIT_ONLY entry names a scenario leaf and a test that
    pytest collects."""
    sys.path.insert(0, str(ROOT / "tools"))
    try:
        import knob_liveness
    finally:
        sys.path.remove(str(ROOT / "tools"))
    leaves = {path for path, _ in
              knob_liveness.leaves(Scenario().to_dict())}
    assert set(knob_liveness.LIMIT_ONLY) <= leaves
    ids = sorted(set(knob_liveness.LIMIT_ONLY.values()))
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-o", "addopts=",
         "-q", "-p", "no:cacheprovider", *ids],
        cwd=ROOT, capture_output=True, text=True)
    assert done.returncode == 0, done.stdout + done.stderr
    collected = set(done.stdout.splitlines())
    assert [i for i in ids if i not in collected] == []
