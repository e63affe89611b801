"""Fabric configuration: network, PIOUS, multi-disk nodes, volumes.

The scenario tree's new axes — ``network.*``, ``pious.*``,
``node.disks[*]`` and ``node.volume.*`` — with their validation paths,
serialization round trips, the builders that realise them, and the v2
manifest carrying them into stored runs.
"""

import json

import numpy as np
import pytest

from repro.cluster.beowulf import BeowulfCluster
from repro.config import (
    ConfigError,
    NetworkConfig,
    NodeConfig,
    PiousConfig,
    Scenario,
    VolumeConfig,
)
from repro.core.trace import TraceDataset
from repro.disk import FIFOScheduler
from repro.disk.volume import Raid0Volume, SingleVolume
from repro.driver.trace import TRACE_DTYPE
from repro.kernel import NodeKernel
from repro.sim import Simulator
from repro.synth.replay import replay_trace


RAID0_DICT = {"node": {"disks": [{}, {}],
                       "volume": {"policy": "raid0", "stripe_kb": 16}}}


# -- defaults preserve the prototype ------------------------------------------
def test_default_fabric_matches_the_prototype():
    scenario = Scenario().validate()
    assert scenario.network == NetworkConfig(
        channels=2, bandwidth_bps=10e6, latency=0.3e-3, mtu=1500)
    assert scenario.pious == PiousConfig(stripe_kb=8, nservers=0,
                                         first_server=0)
    assert scenario.node.volume == VolumeConfig(policy="single",
                                                stripe_kb=8)
    assert len(scenario.node.disks) == 1
    assert scenario.node.disk is scenario.node.disks[0]


def test_fingerprint_distinguishes_ablated_fabrics():
    base = Scenario()
    prints = {base.fingerprint(),
              base.with_override("network.channels", 1).fingerprint(),
              base.with_override("pious.stripe_kb", 64).fingerprint(),
              Scenario.from_dict(RAID0_DICT).fingerprint()}
    assert len(prints) == 4


# -- validation names exact paths ---------------------------------------------
@pytest.mark.parametrize("path,value", [
    ("network.channels", 0),
    ("network.bandwidth_bps", 0.0),
    ("network.latency", -1.0),
    ("network.mtu", 0),
    ("pious.stripe_kb", 0),
    ("pious.nservers", -1),
    ("node.volume.stripe_kb", 0),
])
def test_fabric_range_errors_name_exact_path(path, value):
    with pytest.raises(ConfigError) as err:
        Scenario().with_override(path, value).validate()
    assert err.value.path == f"scenario.{path}"


def test_unknown_volume_policy_lists_the_menu():
    with pytest.raises(ConfigError) as err:
        Scenario().with_override("node.volume.policy", "raid6").validate()
    assert err.value.path == "scenario.node.volume.policy"
    assert str(err.value) == (
        "scenario.node.volume.policy: unknown volume policy 'raid6'; "
        "choose from ['concat', 'raid0', 'raid1', 'single']")


def test_single_policy_rejects_multiple_disks():
    with pytest.raises(ConfigError) as err:
        Scenario.from_dict({"node": {"disks": [{}, {}]}}).validate()
    assert err.value.path == "scenario.node.volume.policy"
    assert "exactly one disk, got 2" in str(err.value)


def test_pious_placement_bounds_checked_against_cluster():
    with pytest.raises(ConfigError) as err:
        Scenario().with_overrides({"cluster.nnodes": 4,
                                   "pious.nservers": 5}).validate()
    assert err.value.path == "scenario.pious.nservers"
    with pytest.raises(ConfigError) as err:
        Scenario().with_overrides({"cluster.nnodes": 4,
                                   "pious.first_server": 4}).validate()
    assert err.value.path == "scenario.pious.first_server"


def test_pious_server_ids_wrap_round_the_cluster():
    cfg = PiousConfig(nservers=3, first_server=2)
    assert cfg.server_ids(4) == [2, 3, 0]
    assert PiousConfig().server_ids(3) == [0, 1, 2]


# -- the legacy single-disk spelling ------------------------------------------
def test_legacy_disk_key_still_loads():
    scenario = Scenario.from_dict(
        {"node": {"disk": {"scheduler": {"kind": "fifo"}}}})
    assert scenario.node.disks[0].scheduler.kind == "fifo"


def test_disk_and_disks_together_rejected():
    with pytest.raises(ConfigError) as err:
        Scenario.from_dict({"node": {"disk": {}, "disks": [{}]}})
    assert err.value.path == "scenario.node.disk"


def test_indexed_and_wildcard_disk_overrides():
    scenario = Scenario.from_dict(RAID0_DICT)
    one = scenario.with_override("node.disks[1].scheduler.kind", "fifo")
    assert one.node.disks[0].scheduler.kind == "clook"
    assert one.node.disks[1].scheduler.kind == "fifo"
    both = scenario.with_override("node.disks[*].cache.nsegments", 0)
    assert all(d.cache.nsegments == 0 for d in both.node.disks)
    with pytest.raises(ConfigError) as err:
        scenario.with_override("node.disks[2].scheduler.kind", "fifo")
    assert err.value.path == "scenario.node.disks[2]"


# -- serialization ------------------------------------------------------------
def test_multi_disk_scenario_round_trips_toml_and_json():
    scenario = Scenario.from_dict(RAID0_DICT).with_overrides({
        "network.channels": 1,
        "network.mtu": 9000,
        "pious.nservers": 2,
        "node.disks[1].capacity_mb": 540,
    })
    assert Scenario.from_toml(scenario.to_toml()) == scenario
    assert Scenario.from_json(scenario.to_json()) == scenario


def test_node_overrides_round_trip_and_apply():
    scenario = Scenario() \
        .with_override("node[3].disks[0].cache.nsegments", 0) \
        .validate()
    again = Scenario.from_toml(scenario.to_toml())
    assert again == scenario
    assert again.node_config_for(3).disks[0].cache.nsegments == 0
    assert again.node_config_for(0).disks[0].cache.nsegments == 4


def test_node_override_type_checked_eagerly():
    with pytest.raises(ConfigError) as err:
        Scenario().with_override("node[3].disks[0].rpm", 7200)
    assert err.value.path == "scenario.node[3].disks[0].rpm"


# -- builders realise the config ----------------------------------------------
def test_kernel_builds_the_configured_volume():
    scenario = Scenario.from_dict(RAID0_DICT).validate()
    kernel = NodeKernel(Simulator(), node_id=2,
                        node_config=scenario.node, housekeeping=False)
    assert [d.name for d in kernel.disks] == ["hda2", "hdb2"]
    assert isinstance(kernel.volume, Raid0Volume)
    assert kernel.volume.name == "md2"
    assert kernel.volume.stripe_sectors == 32          # 16 KB stripes
    assert kernel.driver.disk is kernel.volume
    assert kernel.disk is kernel.disks[0]


def test_replay_builds_the_same_members_as_the_kernel(monkeypatch):
    """`replay_trace(scenario=)` and `NodeKernel` share one builder."""
    scenario = Scenario.from_dict({"node": {
        "disks": [{"capacity_mb": 200},
                  {"capacity_mb": 300, "scheduler": {"kind": "fifo"},
                   "cache": {"nsegments": 2, "segment_sectors": 32}}],
        "volume": {"policy": "raid0"}}}).validate()
    built = []
    build_volume = NodeConfig.build_volume

    def spy(self, *args, **kwargs):
        built.append(build_volume(self, *args, **kwargs))
        return built[-1]

    monkeypatch.setattr(NodeConfig, "build_volume", spy)
    NodeKernel(Simulator(), node_config=scenario.node, housekeeping=False)
    records = np.array([(0.0, 64, 1, 1, 4.0, 0), (0.01, 128, 0, 1, 4.0, 0)],
                       dtype=TRACE_DTYPE)
    replay_trace(TraceDataset(records), scenario=scenario)
    assert len(built) == 2

    def members(volume):
        return [(d.name, d.total_sectors, type(d.scheduler),
                 (d.cache.nsegments, d.cache.segment_sectors,
                  d.cache.lookahead_sectors))
                for d in volume.disks]

    kernel_volume, replay_volume = built
    assert members(kernel_volume) == members(replay_volume)
    assert [m[0] for m in members(kernel_volume)] == ["hda0", "hdb0"]
    assert members(kernel_volume)[1][2] is FIFOScheduler
    assert type(kernel_volume) is type(replay_volume) is Raid0Volume


def test_default_kernel_keeps_single_volume():
    kernel = NodeKernel(Simulator(), housekeeping=False)
    assert isinstance(kernel.volume, SingleVolume)
    assert kernel.volume.disks == (kernel.disk,)


def test_cluster_builds_scenario_network():
    scenario = Scenario().with_overrides({
        "cluster.nnodes": 2, "network.channels": 1,
        "network.bandwidth_bps": 100e6, "network.mtu": 9000}).validate()
    cluster = BeowulfCluster(Simulator(), scenario=scenario)
    assert cluster.network.channels == 1
    assert cluster.network.bandwidth_bps == 100e6
    assert cluster.network.mtu == 9000


def test_node_override_of_a_kernel_tunable_reaches_that_node_only():
    scenario = Scenario().with_overrides({
        "cluster.nnodes": 3, "node[2].max_readahead_kb": 64,
        "node[2].vm.ram_mb": 32}).validate()
    cluster = BeowulfCluster(Simulator(), scenario=scenario)
    kernels = [node.kernel for node in cluster.nodes]
    assert [k.effective_readahead_kb() for k in kernels] == [16, 16, 64]
    assert [k.vm.frames_total for k in kernels] == [2304, 2304, 6400]
    assert kernels[0].node_config is scenario.node


def test_cluster_kwargs_override_the_scenario():
    scenario = Scenario().with_overrides({"cluster.nnodes": 4, "seed": 3})
    cluster = BeowulfCluster(Simulator(), nnodes=2, seed=5,
                             scenario=scenario)
    assert len(cluster) == 2
    assert (cluster.scenario.cluster.nnodes, cluster.scenario.seed) == (2, 5)
    assert len(BeowulfCluster(Simulator(), scenario=scenario)) == 4


def test_make_pious_follows_scenario_placement():
    scenario = Scenario().with_overrides({
        "cluster.nnodes": 4, "pious.stripe_kb": 16,
        "pious.nservers": 2, "pious.first_server": 1}).validate()
    cluster = BeowulfCluster(Simulator(), scenario=scenario)
    pious = cluster.make_pious()
    assert cluster.pious is pious
    assert pious.server_ids == [1, 2]
    assert pious.stripe_bytes == 16 * 1024


# -- the v2 manifest carries the fabric ---------------------------------------
def test_manifest_round_trips_fabric_blocks(tmp_path):
    from repro.core import ExperimentRunner
    from repro.store import RunCatalog
    scenario = Scenario.from_dict(RAID0_DICT).with_overrides({
        "cluster.nnodes": 1, "network.channels": 1, "name": "fabric"})
    runner = ExperimentRunner(scenario=scenario, sink=str(tmp_path))
    runner.run("baseline", duration=30.0)
    catalog = RunCatalog(tmp_path)
    run_id = catalog.runs()[0]
    manifest = catalog.manifest(run_id)
    blob = manifest["scenario"]
    assert blob["network"]["channels"] == 1
    assert blob["pious"]["stripe_kb"] == 8
    assert blob["node"]["volume"]["policy"] == "raid0"
    assert len(blob["node"]["disks"]) == 2
    # and it rebuilds into the very scenario that ran
    assert catalog.scenario(run_id) == runner.scenario
    json.dumps(manifest)   # stays plain data
