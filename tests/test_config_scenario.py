"""Scenario tree: round-trips, validation paths, registry resolution."""

import dataclasses
import json

import pytest

from repro.config import (
    ConfigError,
    DriveCacheConfig,
    NodeConfig,
    Scenario,
)
from repro.disk import (
    CLookScheduler,
    DriveCache,
    FIFOScheduler,
    NullDriveCache,
    SCHEDULERS,
    DRIVE_CACHES,
)
from repro.kernel import NodeParams


# -- defaults reproduce the paper's stack -------------------------------------
def test_default_scenario_is_valid_and_matches_node_params():
    scenario = Scenario().validate()
    assert scenario.node_params() == NodeParams()
    assert scenario.cluster.nnodes == 16
    assert scenario.workload.mix == ("ppm", "wavelet", "nbody")


def test_default_disk_stack_builds_historical_components():
    disk = Scenario().node.disk
    assert isinstance(disk.build_scheduler(), CLookScheduler)
    cache = disk.build_cache()
    assert isinstance(cache, DriveCache)
    assert (cache.nsegments, cache.segment_sectors,
            cache.lookahead_sectors) == (4, 64, 32)


def test_node_params_round_trip_through_config():
    params = NodeParams(ram_mb=32, buffer_cache_kb=4096,
                        max_readahead_kb=32)
    assert NodeConfig.from_node_params(params).to_node_params() == params


# -- serialization round trips ------------------------------------------------
@pytest.fixture
def nondefault_scenario():
    return Scenario().with_overrides({
        "name": "ablation",
        "seed": 7,
        "cluster.nnodes": 4,
        "node.disk.scheduler.kind": "fifo",
        "node.disk.cache.nsegments": 8,
        "node.max_readahead_kb": 64,
        "workload.mix": ("wavelet", "nbody"),
        "experiment.baseline_duration": 120.0,
    })


def test_toml_round_trip_identical(nondefault_scenario):
    text = nondefault_scenario.to_toml()
    assert Scenario.from_toml(text) == nondefault_scenario


def test_json_round_trip_identical(nondefault_scenario):
    text = nondefault_scenario.to_json()
    assert Scenario.from_json(text) == nondefault_scenario


def test_save_load_by_suffix(tmp_path, nondefault_scenario):
    for fname in ("s.toml", "s.json"):
        path = nondefault_scenario.save(tmp_path / fname)
        assert Scenario.load(path) == nondefault_scenario


def test_workload_params_survive_toml(tmp_path):
    scenario = Scenario.from_dict(
        {"workload": {"params": {"wavelet": {"nnodes": 2}}}})
    again = Scenario.from_toml(scenario.to_toml())
    assert again.workload.params_for("wavelet") == {"nnodes": 2}


# -- validation errors name the exact path ------------------------------------
def test_unknown_scheduler_names_exact_path():
    with pytest.raises(ConfigError) as err:
        Scenario().with_override("node.disk.scheduler.kind",
                                 "elevator3000").validate()
    assert err.value.path == "scenario.node.disks[0].scheduler.kind"
    assert "elevator3000" in str(err.value)
    assert "clook" in str(err.value)   # the menu is listed


def test_unknown_drive_cache_names_exact_path():
    with pytest.raises(ConfigError) as err:
        Scenario().with_override("node.disk.cache.kind", "dram").validate()
    assert err.value.path == "scenario.node.disks[0].cache.kind"


def test_unknown_workload_names_exact_path():
    with pytest.raises(ConfigError) as err:
        Scenario().with_override("workload.mix",
                                 ("ppm", "doom")).validate()
    assert err.value.path == "scenario.workload.mix[1]"


def test_out_of_range_field_names_exact_path():
    with pytest.raises(ConfigError) as err:
        Scenario().with_override("cluster.nnodes", 0).validate()
    assert err.value.path == "scenario.cluster.nnodes"
    with pytest.raises(ConfigError) as err:
        Scenario().with_override("node.disk.media_error_rate",
                                 1.5).validate()
    assert err.value.path == "scenario.node.disks[0].media_error_rate"


def test_unknown_key_rejected_with_path():
    with pytest.raises(ConfigError) as err:
        Scenario.from_dict({"cluster": {"nodes": 4}})
    assert err.value.path == "scenario.cluster.nodes"


def test_type_mismatch_rejected_with_path():
    with pytest.raises(ConfigError) as err:
        Scenario.from_dict({"cluster": {"nnodes": "many"}})
    assert err.value.path == "scenario.cluster.nnodes"


def test_unknown_workload_param_field_named():
    with pytest.raises(ConfigError) as err:
        Scenario.from_dict(
            {"workload": {"params": {"ppm": {"warp": 9}}}})
    assert err.value.path == "scenario.workload.params.ppm.warp"


# -- overrides ----------------------------------------------------------------
def test_with_override_coerces_cli_strings():
    scenario = Scenario().with_overrides({
        "cluster.nnodes": "8",
        "node.disk.cache.nsegments": "0",
        "cluster.housekeeping": "false",
        "experiment.flush_grace": "2.5",
    })
    assert scenario.cluster.nnodes == 8
    assert scenario.node.disk.cache.nsegments == 0
    assert scenario.cluster.housekeeping is False
    assert scenario.experiment.flush_grace == 2.5


def test_with_override_unknown_path_raises():
    with pytest.raises(ConfigError) as err:
        Scenario().with_override("node.disk.rpm", 7200)
    # the legacy 'disk' alias resolves to the canonical disks[0] path
    assert err.value.path == "scenario.node.disks[0].rpm"


# -- fingerprints -------------------------------------------------------------
def test_fingerprint_ignores_name_and_seed_but_not_stack():
    base = Scenario()
    relabeled = dataclasses.replace(base, name="run-42", seed=99)
    assert relabeled.fingerprint() == base.fingerprint()
    assert base.with_override("node.disk.scheduler.kind",
                              "fifo").fingerprint() != base.fingerprint()


# -- registry-backed component selection --------------------------------------
def test_zero_segments_resolves_to_null_cache():
    cache = DriveCacheConfig(nsegments=0).build()
    assert isinstance(cache, NullDriveCache)
    assert cache.lookahead_sectors == 0


def test_registries_expose_builtins():
    assert set(SCHEDULERS.names()) >= {"clook", "fifo", "scan", "sstf"}
    assert set(DRIVE_CACHES.names()) >= {"segmented", "none"}
    assert isinstance(SCHEDULERS.create("fifo"), FIFOScheduler)


# -- retired engine knob ------------------------------------------------------
def test_stored_engine_table_is_dropped_on_load():
    # scenarios saved while the event queue was selectable carry an
    # [engine] table; loading them yields the same scenario as one that
    # never had it (the fingerprint is pinned in test_config_golden)
    base = Scenario().with_override("cluster.nnodes", 2)
    for queue in ("calendar", "heap"):
        stored = dict(base.to_dict(), engine={"event_queue": queue})
        loaded = Scenario.from_dict(stored)
        assert loaded == base
        assert Scenario.from_json(json.dumps(stored)) == base
        toml = base.to_toml() + f'\n[engine]\nevent_queue = "{queue}"\n'
        assert Scenario.from_toml(toml) == base
    assert "engine" not in base.to_dict()


def test_unknown_event_queue_names_exact_path():
    with pytest.raises(ConfigError) as err:
        Scenario().with_override("engine.event_queue", "heap")
    assert err.value.path == "scenario.engine"
    assert "unknown field" in str(err.value)


def test_event_queue_grid_axis_is_rejected():
    from repro.config import expand_grid, parse_axis_spec
    axis = parse_axis_spec("event_queue=calendar,heap")
    with pytest.raises(ConfigError) as err:
        expand_grid(Scenario(), [axis])
    assert err.value.path == "scenario.event_queue"
