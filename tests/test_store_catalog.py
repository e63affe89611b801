"""Run catalog layout, experiment sink wiring, and streamed replay."""

import json

import numpy as np
import pytest

from repro import migrate
from repro.core import ExperimentRunner
from repro.core.experiments import ExperimentResult
from repro.core.trace import TraceDataset
from repro.store import RunCatalog, TraceReader
from repro.synth.replay import replay_trace


@pytest.fixture(scope="module")
def sunk_run(tmp_path_factory):
    """One small baseline experiment stored in a catalog."""
    root = tmp_path_factory.mktemp("catalog") / "runs"
    runner = ExperimentRunner(nnodes=2, seed=3, sink=root)
    result = runner.run("baseline", duration=120.0)
    return root, runner, result


def test_sink_produces_manifest_and_per_node_files(sunk_run):
    root, runner, result = sunk_run
    catalog = RunCatalog(root)
    assert catalog.runs() == ["baseline"]
    manifest = catalog.manifest("baseline")
    assert manifest["format"] == migrate.MANIFEST_FORMAT
    assert manifest["nnodes"] == 2
    assert manifest["seed"] == 3
    # manifests carry the fully-resolved scenario, and no second copy
    # of its fields
    assert "config" not in manifest
    assert manifest["scenario"]["cluster"]["nnodes"] == 2
    assert manifest["scenario"]["seed"] == 3
    assert manifest["scenario"]["node"]["disks"][0]["scheduler"]["kind"] \
        == "clook"
    assert set(manifest["traces"]) == {"0", "1"}
    assert manifest["metrics"]["total_requests"] > 0
    for path in catalog.trace_paths("baseline").values():
        assert path.is_file()


def test_stored_trace_matches_gathered_trace(sunk_run):
    """Each stored node file holds exactly that node's rows of
    ``result.trace``, in order."""
    root, runner, result = sunk_run
    catalog = RunCatalog(root)
    readers = catalog.open_traces("baseline")
    assert set(readers) == {0, 1}
    for node_id, reader in readers.items():
        with reader:
            assert np.array_equal(reader.read(),
                                  result.trace.node(node_id).records)
            assert not reader.recovered


def test_load_dataset_merges_nodes_time_sorted(sunk_run):
    root, runner, result = sunk_run
    dataset = RunCatalog(root).load_dataset("baseline")
    assert isinstance(dataset, TraceDataset)
    assert dataset == result.trace
    assert np.all(np.diff(dataset.time) >= 0)
    assert set(dataset.nodes()) == {0, 1}


class _Killed(Exception):
    """Stands in for the process dying at a checkpoint."""


def test_interrupted_sink_run_is_stored_once(tmp_path, monkeypatch):
    """A checkpointed sink run killed after its first capture and run
    again is stored once, under its own name, with the node files of an
    uninterrupted run; the killed attempt leaves nothing in the catalog.
    """
    from repro.core import experiments

    def run(root, **kwargs):
        return ExperimentRunner(nnodes=2, seed=3, sink=root).run(
            "baseline", duration=60.0, **kwargs)

    run(tmp_path / "whole")
    captures = []

    def capture_then_die(tree, path):
        captures.append(tree["meta"]["epoch"])
        if len(captures) == 2:
            raise _Killed
        save_checkpoint(tree, path)

    save_checkpoint = experiments.save_checkpoint
    monkeypatch.setattr(experiments, "save_checkpoint", capture_then_die)
    root = tmp_path / "runs"
    ckpt = tmp_path / "baseline.ckpt"
    with pytest.raises(_Killed):
        run(root, checkpoint_every=20.0, checkpoint=ckpt)
    assert not root.exists()
    monkeypatch.setattr(experiments, "save_checkpoint", save_checkpoint)
    run(root, checkpoint=ckpt)

    assert [p.name for p in root.iterdir()] == ["baseline"]
    assert RunCatalog(root).runs() == ["baseline"]
    whole = RunCatalog(tmp_path / "whole").trace_paths("baseline")
    resumed = RunCatalog(root).trace_paths("baseline")
    assert sorted(resumed) == sorted(whole) == [0, 1]
    for node_id, path in whole.items():
        assert resumed[node_id].read_bytes() == path.read_bytes()


def test_replay_streams_from_stored_trace(sunk_run):
    root, runner, result = sunk_run
    path = RunCatalog(root).trace_paths("baseline")[0]
    with TraceReader(path) as reader:
        report = replay_trace(reader, scheduler="fifo")
        assert report.requests == len(reader)
        assert report.mean_latency > 0


def test_run_names_deduplicate(tmp_path):
    catalog = RunCatalog(tmp_path)
    arr = np.zeros(4, dtype=TraceDataset.empty().records.dtype)
    arr["time"] = [0.0, 1.0, 2.0, 3.0]
    arr["node"] = [0, 0, 1, 1]

    class FakeResult:
        name = "demo"
        nnodes = 2
        trace = TraceDataset(arr)
        duration = 3.0

        @property
        def metrics(self):
            from repro.core.metrics import compute_metrics
            return compute_metrics(self.trace, label="demo", duration=3.0)

    first = catalog.save(FakeResult(), seed=1)
    second = catalog.save(FakeResult(), seed=2)
    assert first.name == "demo"
    assert second.name == "demo-2"
    assert catalog.runs() == ["demo", "demo-2"]


def test_save_writes_a_file_for_every_node(tmp_path):
    """An idle node gets an empty file, as in a runner-stored run."""
    records = np.zeros(3, dtype=TraceDataset.empty().records.dtype)
    records["time"] = [0.0, 1.0, 2.0]
    result = ExperimentResult(name="idle", trace=TraceDataset(records),
                              duration=3.0, nnodes=2)
    catalog = RunCatalog(tmp_path)
    catalog.save(result)
    manifest = catalog.manifest("idle")
    assert set(manifest["traces"]) == {"0", "1"}
    assert manifest["records"] == 3
    readers = catalog.open_traces("idle")
    for node_id, expected in ((0, 3), (1, 0)):
        with readers[node_id] as reader:
            assert len(reader.read()) == expected


def test_save_rejects_a_node_outside_the_run(tmp_path):
    records = np.zeros(1, dtype=TraceDataset.empty().records.dtype)
    records["node"] = 2
    result = ExperimentResult(name="stray", trace=TraceDataset(records),
                              duration=1.0, nnodes=2)
    with pytest.raises(ValueError, match="node ids"):
        RunCatalog(tmp_path).save(result)
    assert list(tmp_path.iterdir()) == []


def test_save_splits_per_node(tmp_path):
    runner = ExperimentRunner(nnodes=2, seed=0)
    result = runner.run("baseline", duration=80.0)
    catalog = RunCatalog(tmp_path / "runs")
    directory = catalog.save(result, seed=0)
    manifest = json.loads((directory / "manifest.json").read_text())
    assert manifest["records"] == len(result.trace)
    merged = catalog.load_dataset("baseline")
    assert merged == result.trace


def test_missing_run_raises(tmp_path):
    catalog = RunCatalog(tmp_path)
    with pytest.raises(FileNotFoundError):
        catalog.manifest("nope")


def test_catalog_scenario_accessor(sunk_run):
    from repro.config import Scenario
    root, runner, result = sunk_run
    scenario = RunCatalog(root).scenario("baseline")
    assert isinstance(scenario, Scenario)
    assert scenario == runner.scenario
    assert scenario.cluster.nnodes == 2


def test_legacy_v1_manifest_still_loads(tmp_path):
    """Manifests written before the scenario layer stay readable, and
    come back migrated to the current format."""
    catalog = RunCatalog(tmp_path / "runs")
    capture = catalog.start_run("legacy", nnodes=1, seed=0)
    capture.writer_for(0)
    path = capture.finalize()
    # rewrite as a v1 manifest with a config block and no scenario
    # block, as old captures produced
    manifest = json.loads(path.read_text())
    manifest["format"] = "repro-run-v1"
    manifest["config"] = {"nnodes": 1}
    manifest.pop("scenario", None)
    path.write_text(json.dumps(manifest))

    loaded = catalog.manifest("legacy")
    assert loaded["format"] == migrate.MANIFEST_FORMAT
    assert "config" not in loaded
    assert catalog.scenario("legacy") is None
    assert catalog.metrics("legacy").label == "legacy"


def test_unknown_manifest_format_rejected(tmp_path):
    catalog = RunCatalog(tmp_path / "runs")
    capture = catalog.start_run("future", nnodes=1)
    path = capture.finalize()
    manifest = json.loads(path.read_text())
    manifest["format"] = "repro-run-v99"
    path.write_text(json.dumps(manifest))
    with pytest.raises(ValueError):
        catalog.manifest("future")


def test_concurrent_writers_claim_distinct_runs(tmp_path):
    """Regression: two writers racing into one catalog must not collide.

    The old exists-then-pick-a-name scheme let both sides choose the
    same directory and interleave files; mkdir-based claiming gives each
    a distinct run id and the tmp+rename manifest write keeps every
    manifest whole.
    """
    from concurrent.futures import ThreadPoolExecutor

    catalog = RunCatalog(tmp_path / "runs")
    nwriters = 8

    def one_run(seed):
        arr = np.zeros(6, dtype=TraceDataset.empty().records.dtype)
        arr["time"] = np.arange(6, dtype=float)
        arr["node"] = [0, 1] * 3
        arr["sector"] = seed  # distinguishable payloads
        capture = catalog.start_run("combined", nnodes=2, seed=seed)
        for node_id in (0, 1):
            capture.writer_for(node_id).append_array(
                arr[arr["node"] == node_id])
        capture.finalize()
        return capture.directory

    with ThreadPoolExecutor(max_workers=nwriters) as pool:
        directories = list(pool.map(one_run, range(nwriters)))

    assert len({d.name for d in directories}) == nwriters
    runs = catalog.runs()
    assert len(runs) == nwriters
    seeds_seen = set()
    for run_id in runs:
        manifest = catalog.manifest(run_id)   # valid, complete JSON
        assert manifest["records"] == 6
        assert set(manifest["traces"]) == {"0", "1"}
        seeds_seen.add(manifest["seed"])
        dataset = catalog.load_dataset(run_id)
        assert len(dataset) == 6
        assert set(dataset.records["sector"]) == {manifest["seed"]}
    assert seeds_seen == set(range(nwriters))


def test_parallel_run_all_with_sink_keeps_catalog_consistent(tmp_path):
    """run_all(parallel=True, sink=...) writes every run exactly once."""
    root = tmp_path / "runs"
    runner = ExperimentRunner(nnodes=1, seed=4, baseline_duration=60.0,
                              sink=root)
    results = runner.run_all(names=["nbody", "wavelet"], parallel=True)
    catalog = RunCatalog(root)
    assert sorted(results) == ["nbody", "wavelet"]
    assert catalog.runs() == ["nbody", "wavelet"]
    for name, result in results.items():
        manifest = catalog.manifest(name)
        assert manifest["records"] >= len(result.trace)


def test_finalize_writes_manifest_atomically(tmp_path):
    """No manifest.json.tmp debris and finalize is idempotent."""
    catalog = RunCatalog(tmp_path / "runs")
    capture = catalog.start_run("atomic", nnodes=1, seed=0)
    capture.writer_for(0)
    path = capture.finalize()
    assert path.name == "manifest.json"
    assert capture.finalize() == path   # idempotent
    leftovers = list((tmp_path / "runs").rglob("*.tmp"))
    assert leftovers == []
    manifest = catalog.manifest("atomic")
    assert manifest["records"] == 0
