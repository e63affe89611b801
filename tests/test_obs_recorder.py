"""Observability end to end: recorder, runner, catalog, CLIs, reports."""

import json

import pytest

from repro.core import ExperimentRunner
from repro.obs import MetricsRegistry, ObsRecorder, flatten_snapshot
from repro.store import RunCatalog


@pytest.fixture(scope="module")
def obs_result():
    """One small instrumented run shared across tests (acceptance run)."""
    runner = ExperimentRunner(nnodes=2, seed=1, obs=True)
    return runner.run("wavelet")


# -- recorder basics ----------------------------------------------------------
def test_recorder_defaults_to_live_registry():
    rec = ObsRecorder()
    assert isinstance(rec.registry, MetricsRegistry)
    assert rec.snapshot() == {}


# -- the acceptance criterion -------------------------------------------------
def test_instrumented_run_yields_nonzero_layer_metrics(obs_result):
    snap = obs_result.obs
    assert snap, "obs=True run produced no snapshot"
    flat = flatten_snapshot(snap)
    assert flat["sim.events_processed"] > 0
    assert sum(v for k, v in flat.items()
               if k.startswith("disk.reads{")) > 0
    assert flat["disk.service_seconds{hda0}.count"] > 0
    assert sum(v for k, v in flat.items()
               if k.startswith("cache.hits{")) > 0
    assert sum(v for k, v in flat.items()
               if k.startswith("trace.records_drained{")) > 0
    assert flat["run.sim_seconds"] > 0
    assert flat["run.wall_seconds"] > 0


def test_fabric_counters_harvested(sunk_obs_run):
    # nbody exchanges boundaries every step, so the Ethernet carried load
    _, result = sunk_obs_run
    flat = flatten_snapshot(result.obs)
    assert flat["net.messages"] > 0
    assert flat["net.frames{ch0}"] + flat["net.frames{ch1}"] == \
        flat["net.frames"]
    assert flat["net.bytes_carried"] > 0
    assert flat["pvm.sends"] > 0
    # every node reports its volume's fan-out; single-disk defaults map
    # one physical request per logical request
    assert flat["volume.logical_requests{0}"] > 0
    assert flat["volume.physical_requests{0}"] == \
        flat["volume.logical_requests{0}"]


def test_per_node_labels_cover_the_cluster(obs_result):
    flat = flatten_snapshot(obs_result.obs)
    for metric in ("disk.reads", "cache.hits", "driver.requests_issued"):
        labels = {k for k in flat if k.startswith(metric + "{")}
        assert labels == {f"{metric}{{0}}", f"{metric}{{1}}"}


def test_snapshot_survives_json_and_save_load(obs_result, tmp_path):
    json.dumps(obs_result.obs)  # must be plain data
    catalog = RunCatalog(tmp_path / "runs")
    run_id = catalog.save(obs_result).name
    assert catalog.obs_snapshot(run_id) == obs_result.obs
    assert catalog.metrics(run_id).nnodes == 2


def test_obs_disabled_by_default():
    result = ExperimentRunner(nnodes=1, seed=1).run("nbody")
    assert result.obs is None


def test_simulation_metrics_are_deterministic(obs_result):
    again = ExperimentRunner(nnodes=2, seed=1, obs=True).run("wavelet")
    a = flatten_snapshot(obs_result.obs)
    b = flatten_snapshot(again.obs)
    skip = ("wall", "run.sim_seconds_per_wall_second")
    sim_rows_a = {k: v for k, v in a.items()
                  if not any(s in k for s in skip)}
    sim_rows_b = {k: v for k, v in b.items()
                  if not any(s in k for s in skip)}
    assert sim_rows_a == sim_rows_b


# -- catalog integration ------------------------------------------------------
@pytest.fixture(scope="module")
def sunk_obs_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("obs-catalog") / "runs"
    runner = ExperimentRunner(nnodes=2, seed=2, sink=root, obs=True)
    result = runner.run("nbody")
    return root, result


def test_manifest_carries_obs_and_metrics(sunk_obs_run):
    root, result = sunk_obs_run
    catalog = RunCatalog(root)
    manifest = catalog.manifest("nbody")
    assert manifest["obs"] == result.obs
    assert manifest["metrics"]["nnodes"] == 2
    flat = flatten_snapshot(manifest["obs"])
    # store counters are harvested after the writers close, so the
    # spilled byte counts include the tail chunks
    assert flat["store.records_written{0}"] > 0
    assert flat["store.compressed_bytes{0}"] > 0


def test_catalog_obs_snapshot_and_metrics_helpers(sunk_obs_run):
    root, result = sunk_obs_run
    catalog = RunCatalog(root)
    assert catalog.obs_snapshot("nbody") == result.obs
    m = catalog.metrics("nbody")
    assert m.nnodes == 2
    assert m.total_requests == result.metrics.total_requests
    assert m.throughput_kb_per_s == pytest.approx(
        result.metrics.throughput_kb_per_s)


def test_catalog_obs_snapshot_missing_without_obs(tmp_path):
    root = tmp_path / "runs"
    ExperimentRunner(nnodes=1, seed=5, sink=root).run("nbody")
    assert RunCatalog(root).obs_snapshot("nbody") is None


# -- CLI integration ----------------------------------------------------------
def test_experiment_cli_obs_flag(capsys):
    from repro.cli import main
    rc = main(["nbody", "--nodes", "1", "--obs"])
    assert rc == 0
    captured = capsys.readouterr()
    assert "runtime metrics: nbody" in captured.out
    assert "sim.events_processed" in captured.out


def test_trace_cli_obs_dump_and_compare(sunk_obs_run, capsys):
    from repro.store.cli import main
    root, _ = sunk_obs_run
    run_dir = str(root / "nbody")
    assert main(["obs", run_dir]) == 0
    out = capsys.readouterr().out
    assert "disk.reads{0}" in out

    assert main(["obs", run_dir, run_dir, "--only", "sim."]) == 0
    out = capsys.readouterr().out
    assert "delta%" in out
    assert "disk.reads{0}" not in out

    assert main(["obs", run_dir, "--json"]) == 0
    parsed = json.loads(capsys.readouterr().out)
    assert "sim.events_processed" in parsed["nbody"]


def test_trace_cli_obs_rejects_run_without_obs(tmp_path, capsys):
    from repro.store.cli import main
    root = tmp_path / "runs"
    ExperimentRunner(nnodes=1, seed=5, sink=root).run("nbody")
    assert main(["obs", str(root / "nbody")]) == 1
    assert "without --obs" in capsys.readouterr().err


# -- report integration -------------------------------------------------------
def test_reports_render_runtime_metrics(obs_result):
    from repro.core import characterize
    from repro.core.html_report import build_html_report
    text = characterize(obs_result)
    assert "runtime metrics:" in text
    assert "sim.events_processed" in text
    html = build_html_report({"wavelet": obs_result})
    assert "Runtime metrics" in html
