"""Scenario tree: round-trips, validation paths, component resolution."""

import dataclasses
import json

import pytest

from repro import migrate
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


# -- defaults reproduce the paper's stack -------------------------------------
def test_default_scenario_is_valid_and_is_the_papers_node():
    scenario = Scenario().validate()
    node = scenario.node
    assert (node.vm.ram_mb, node.block_kb, node.vm.page_kb,
            node.max_readahead_kb) == (16, 1, 4, 16)
    # 16 MB - 5 MB kernel - 2 MB buffer cache = 9 MB user = 2304 frames
    assert (node.user_frames, node.blocks_per_page,
            node.sectors_per_block) == (2304, 4, 2)
    assert node.layout.zone("swap") == (240_000, 131_072)
    assert scenario.cluster.nnodes == 16
    assert scenario.workload.mix == ("ppm", "wavelet", "nbody")


def test_default_disk_stack_builds_historical_components():
    disk = Scenario().node.disk
    assert isinstance(disk.scheduler.build(), CLookScheduler)
    cache = disk.cache.build()
    assert isinstance(cache, DriveCache)
    assert (cache.nsegments, cache.segment_sectors,
            cache.lookahead_sectors) == (4, 64, 32)


def test_default_fingerprint_is_pinned():
    """Stored checkpoints and analysis caches are keyed by it."""
    assert Scenario().fingerprint() == "ccf002217bde"


def test_buffer_cache_must_leave_a_user_frame():
    # 16 MB - 5 MB kernel - 12 MB buffer cache leaves -1 MB for users
    with pytest.raises(ConfigError,
                       match=r"^scenario\.node\.buffer_cache_kb: "):
        Scenario().with_override("node.buffer_cache_kb", 12288).validate()
    with pytest.raises(ConfigError, match=r"^scenario\.node_overrides\.1"
                                          r"\.buffer_cache_kb: "):
        Scenario().with_override("node[1].buffer_cache_kb",
                                 12288).validate()
    # exactly one 4 KB frame left is enough
    edge = (11 * 1024) - 4
    assert NodeConfig(buffer_cache_kb=edge).user_frames == 1
    Scenario().with_override("node.buffer_cache_kb", edge).validate()


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
    assert str(err.value) == (
        "scenario.node.disks[0].scheduler.kind: unknown disk scheduler "
        "'elevator3000'; choose from ['clook', 'fifo', 'scan', 'sstf']")


def test_unknown_drive_cache_names_exact_path():
    with pytest.raises(ConfigError) as err:
        Scenario().with_override("node.disk.cache.kind", "dram").validate()
    assert err.value.path == "scenario.node.disks[0].cache.kind"
    assert str(err.value) == (
        "scenario.node.disks[0].cache.kind: unknown drive cache 'dram'; "
        "choose from ['none', 'segmented']")


def test_unknown_workload_names_exact_path():
    with pytest.raises(ConfigError) as err:
        Scenario().with_override("workload.mix",
                                 ("ppm", "doom")).validate()
    assert err.value.path == "scenario.workload.mix[1]"
    assert str(err.value) == (
        "scenario.workload.mix[1]: unknown workload 'doom'; "
        "choose from ['nbody', 'ppm', 'wavelet']")


def test_unknown_workload_params_app_names_exact_path():
    with pytest.raises(ConfigError) as err:
        Scenario.from_dict(
            {"workload": {"params": {"quake": {"steps": 3}}}}).validate()
    assert err.value.path == "scenario.workload.params.quake"
    assert str(err.value) == (
        "scenario.workload.params.quake: unknown workload 'quake'; "
        "choose from ['nbody', 'ppm', 'wavelet']")


def test_out_of_range_field_names_exact_path():
    with pytest.raises(ConfigError) as err:
        Scenario().with_override("cluster.nnodes", 0).validate()
    assert err.value.path == "scenario.cluster.nnodes"
    with pytest.raises(ConfigError) as err:
        Scenario().with_override("node.disk.media_error_rate",
                                 1.5).validate()
    assert err.value.path == "scenario.node.disks[0].media_error_rate"


@pytest.mark.parametrize("path", ["experiment.baseline_duration",
                                  "experiment.hard_limit",
                                  "experiment.flush_grace"])
def test_infinite_experiment_window_rejected(path):
    with pytest.raises(ConfigError, match="finite") as err:
        Scenario().with_override(path, float("inf")).validate()
    assert err.value.path == f"scenario.{path}"


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


# -- component selection by name ----------------------------------------------
def test_zero_segments_resolves_to_null_cache():
    cache = DriveCacheConfig(nsegments=0).build()
    assert isinstance(cache, NullDriveCache)
    assert cache.lookahead_sectors == 0


def test_registries_expose_builtins():
    assert list(SCHEDULERS) == ["clook", "fifo", "scan", "sstf"]
    assert list(DRIVE_CACHES) == ["none", "segmented"]
    assert isinstance(SCHEDULERS["fifo"](), FIFOScheduler)


# -- retired engine knob ------------------------------------------------------
def test_stored_engine_table_is_dropped_on_load():
    # checkpoints and manifests written while the event queue was
    # selectable store an [engine] table in their scenario; migration
    # drops it, so they load to the scenario that never had it (the
    # fingerprint is pinned in test_config_golden).  A hand-written file
    # naming the retired table is rejected like any unknown field.
    base = Scenario().with_override("cluster.nnodes", 2)
    for queue in ("calendar", "heap"):
        stored = dict(base.to_dict(), engine={"event_queue": queue})
        tree = migrate.checkpoint(
            {"format": "repro-checkpoint-v1", "ticks": {},
             "clock": {"now": 0.0, "seq": 0, "queue_kind": queue},
             "meta": {"scenario": dict(stored)}}, version=1)
        assert Scenario.from_dict(tree["meta"]["scenario"]) == base
        manifest = migrate.manifest({"format": "repro-run-v2",
                                     "scenario": dict(stored)})
        assert Scenario.from_dict(manifest["scenario"]) == base
        toml = base.to_toml() + f'\n[engine]\nevent_queue = "{queue}"\n'
        for load, text in ((Scenario.from_json, json.dumps(stored)),
                           (Scenario.from_toml, toml)):
            with pytest.raises(ConfigError) as err:
                load(text)
            assert err.value.path == "scenario.engine"
    assert "engine" not in base.to_dict()


# -- retired L1 cache knob ----------------------------------------------------
def test_stored_l1_cache_knob_is_dropped_on_load():
    # checkpoints (v3) and manifests (v4) written while the scenario had
    # a node.l1_cache_kb that no layer read carry it, cluster-wide and
    # per node; migration drops both, and a hand-written file setting it
    # is rejected at its exact path, like the retired [engine] table
    base = Scenario().with_override("cluster.nnodes", 2)
    stored = base.to_dict()
    stored["node"]["l1_cache_kb"] = 32
    stored["node_overrides"] = {"1": {"l1_cache_kb": 8}}
    tree = migrate.checkpoint(
        {"ticks": {}, "clock": {"now": 0.0, "seq": 0},
         "meta": {"scenario": json.loads(json.dumps(stored))}}, version=3)
    assert tree["meta"]["scenario"] == base.to_dict()
    manifest = migrate.manifest({"format": "repro-run-v4",
                                 "scenario": json.loads(json.dumps(stored))})
    assert manifest["scenario"] == base.to_dict()
    with pytest.raises(ConfigError) as err:
        Scenario.from_json(json.dumps(stored))
    assert err.value.path == "scenario.node.l1_cache_kb"
    toml = base.to_toml().replace("[node]\n", "[node]\nl1_cache_kb = 32\n")
    with pytest.raises(ConfigError) as err:
        Scenario.from_toml(toml)
    assert err.value.path == "scenario.node.l1_cache_kb"
    with pytest.raises(ConfigError) as err:
        base.with_override("node[1].l1_cache_kb", 8)
    assert err.value.path == "scenario.node[1].l1_cache_kb"


# -- retired PIOUS striping block ---------------------------------------------
def test_stored_pious_block_is_dropped_on_load():
    # checkpoints and manifests (both v5) written while the scenario had
    # a pious block that no experiment read carry it (a checkpoint also
    # a null cluster.pious); migration drops both, and a scenario file,
    # --set or --grid naming it fails at its exact path
    base = Scenario().with_override("cluster.nnodes", 2)
    stored = dict(base.to_dict(), pious={"stripe_kb": 16, "nservers": 1,
                                         "first_server": 1})
    tree = migrate.checkpoint(
        {"ticks": {}, "clock": {"now": 0.0, "seq": 0},
         "cluster": {"pious": None, "nodes": []},
         "meta": {"scenario": json.loads(json.dumps(stored))}}, version=5)
    assert tree["meta"]["scenario"] == base.to_dict()
    assert tree["cluster"] == {"nodes": []}
    manifest = migrate.manifest({"format": "repro-run-v5",
                                 "scenario": json.loads(json.dumps(stored))})
    assert manifest["scenario"] == base.to_dict()
    toml = base.to_toml() + "\n[pious]\nstripe_kb = 16\n"
    for load, text in ((Scenario.from_json, json.dumps(stored)),
                       (Scenario.from_toml, toml)):
        with pytest.raises(ConfigError) as err:
            load(text)
        assert err.value.path == "scenario.pious"
    with pytest.raises(ConfigError) as err:
        base.with_override("pious.stripe_kb", 16)
    assert err.value.path == "scenario.pious"


def test_pious_grid_aliases_are_gone():
    from repro.config import expand_grid, parse_axis_spec
    for spec in ("pious_stripe_kb=16", "pious_nservers=2"):
        with pytest.raises(ConfigError) as err:
            expand_grid(Scenario(), [parse_axis_spec(spec)])
        name = spec.partition("=")[0]
        assert err.value.path == f"scenario.{name}"
        assert str(err.value).startswith(
            f"scenario.{name}: unknown field; valid fields: ")


# -- disk layout --------------------------------------------------------------
@pytest.mark.parametrize("path,value,where,message", [
    pytest.param(
        "node.layout.highlog_start", 2_000_000, "layout.highlog_start",
        "highlog zone [2000000, 2016384) ends past the end of the single "
        "volume (1024128 sectors)", id="highlog_start"),
    pytest.param(
        "node.layout.swap_start", 44_000, "layout.swap_start",
        "swap zone [44000, 175072) overlaps the log zone [44000, 52192)",
        id="swap_start"),
    pytest.param(
        "node.disks[0].capacity_mb", 100, "layout.data_start",
        "data zone [96000, 216000) ends past the end of the single volume "
        "(205632 sectors)", id="capacity_mb"),
    pytest.param(
        "node.layout.metadata_start", 1, "layout.metadata_start",
        "metadata zone must start on a block boundary (a multiple of 2 "
        "sectors), got 1", id="metadata_start"),
    pytest.param(
        "node.layout.metadata_sectors", 128, "layout.metadata_sectors",
        "metadata zone of 128 sectors cannot hold the superblock, block "
        "bitmap and inode table (1154 sectors)", id="metadata_sectors"),
    pytest.param(
        "node.layout.log_start", 250_000, "layout.log_start",
        "log zone [250000, 258192) overlaps the swap zone [240000, 371072)",
        id="log_start"),
])
def test_bad_disk_layout_fails_at_validate(path, value, where, message):
    with pytest.raises(ConfigError) as err:
        Scenario().with_override(path, value).validate()
    assert (err.value.path, str(err.value)) == (
        f"scenario.node.{where}", f"scenario.node.{where}: {message}")
    # a per-node override is held to the same layout rule
    sub = path.removeprefix("node.")
    with pytest.raises(ConfigError) as err:
        Scenario().with_override(f"node[1].{sub}", value).validate()
    assert err.value.path == f"scenario.node_overrides.1.{where}"


def test_bad_disk_layout_fails_before_a_run_starts():
    from repro.core import ExperimentRunner
    bad = Scenario().with_overrides({"cluster.nnodes": 1,
                                     "node.layout.highlog_start": 2_000_000})
    with pytest.raises(ConfigError) as err:
        ExperimentRunner(scenario=bad).run("baseline", duration=10.0)
    assert err.value.path == "scenario.node.layout.highlog_start"


def test_layout_fits_the_volume_its_policy_builds():
    # raid0 over 200 + 300 MB members holds 2 x 410,256 sectors, short of
    # the default highlog zone; concat holds their sum, which fits
    raid0 = Scenario.from_dict({"node": {
        "disks": [{"capacity_mb": 200}, {"capacity_mb": 300}],
        "volume": {"policy": "raid0"}}}, validate=False)
    with pytest.raises(ConfigError) as err:
        raid0.validate()
    assert str(err.value) == (
        "scenario.node.layout.highlog_start: highlog zone [1000000, "
        "1016384) ends past the end of the raid0 volume (820512 sectors)")
    raid0.with_override("node.volume.policy", "concat").validate()
    # an empty zone holds no sectors, so it overlaps nothing
    Scenario().with_override("node.layout.swap_sectors", 0).with_override(
        "node.layout.swap_start", 44_000).validate()


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
