"""Stored files of every age load through :mod:`repro.migrate`.

Each fixture under ``tests/data/`` was written by an older release and
records beside it (``<name>.json``) what loading it must give today.
The shape pins fail when a stored shape changes without a version bump;
after bumping, adding the step and its fixture, re-record them with::

    PYTHONPATH=src python tests/test_migrate.py
"""

import hashlib
import json
import shutil
from pathlib import Path

import pytest

from repro import migrate
from repro.checkpoint.serialize import dumps, load_checkpoint
from repro.config import Scenario
from repro.core import experiments
from repro.core.experiments import ExperimentRunner
from repro.store import RunCatalog

DATA = Path(__file__).parent / "data"
STORED_CHECKPOINTS = sorted(DATA.glob("*.ckpt"))
STORED_CATALOGS = sorted(p for p in DATA.glob("run-v*") if p.is_dir())
SHAPES = DATA / "shapes.json"

SCENARIO = {"cluster": {"nnodes": 2}, "seed": 11}
TINY_PPM = {
    **SCENARIO,
    "workload": {"params": {"ppm": {"grids": 1, "grid_nx": 24,
                                    "grid_ny": 48, "steps": 6,
                                    "nnodes": 2}}},
}


def digest(records) -> str:
    return hashlib.sha256(records.tobytes()).hexdigest()


def envelope_version(blob: bytes) -> int:
    return int.from_bytes(blob[8:10], "little")


@pytest.mark.parametrize("stored", STORED_CHECKPOINTS,
                         ids=lambda p: p.stem)
def test_stored_checkpoint_resumes_to_its_recorded_trace(tmp_path, stored):
    expected = json.loads(stored.with_suffix(".json").read_text())
    assert 1 <= envelope_version(stored.read_bytes()) < migrate.CHECKPOINT
    ckpt = tmp_path / stored.name  # resuming re-arms onto this path
    shutil.copy(stored, ckpt)
    sc = Scenario.from_dict(expected["scenario"])
    records = ExperimentRunner(scenario=sc).run(
        "baseline", resume_from=ckpt).trace.records
    assert (len(records), digest(records)) == \
        (expected["records"], expected["trace_sha256"])


@pytest.mark.parametrize("stored", STORED_CATALOGS, ids=lambda p: p.name)
def test_stored_catalog_loads_to_its_recorded_values(tmp_path, stored):
    expected = json.loads(stored.with_suffix(".json").read_text())
    root = tmp_path / stored.name
    shutil.copytree(stored, root)
    run = expected["run"]
    raw = json.loads((root / run / "manifest.json").read_text())
    assert raw["format"] == stored.name.replace("run-", "repro-run-")

    catalog = RunCatalog(root)
    assert catalog.manifest(run)["format"] == migrate.MANIFEST_FORMAT
    metrics = catalog.metrics(run)
    assert metrics.nnodes == expected["nnodes"]
    assert metrics.total_requests == expected["total_requests"]
    assert metrics.read_fraction == expected["read_fraction"]
    assert metrics.write_fraction == expected["write_fraction"]
    scenario = catalog.scenario(run)
    fingerprint = None if scenario is None else scenario.fingerprint()
    assert fingerprint == expected["scenario_fingerprint"]
    records = catalog.load_dataset(run).records
    assert (len(records), digest(records)) == \
        (expected["records"], expected["trace_sha256"])


def test_writers_stamp_the_current_versions(tmp_path):
    assert envelope_version(dumps({})) == migrate.CHECKPOINT
    path = RunCatalog(tmp_path).start_run("x", nnodes=1).finalize()
    assert json.loads(path.read_text())["format"] == \
        f"repro-run-v{migrate.MANIFEST}"


# -- shape pins --------------------------------------------------------------

def key_paths(value, path="$") -> set:
    """Every key path of a plain tree: list items share ``[]`` and
    numeric ids (inodes, mailboxes, trace files) share ``*``."""
    paths = {path}
    if isinstance(value, dict):
        for key, sub in value.items():
            paths |= key_paths(sub, f"{path}.{'*' if key.isdigit() else key}")
    elif isinstance(value, (list, tuple)):
        for sub in value:
            paths |= key_paths(sub, f"{path}[]")
    return paths


def first_checkpoint(directory: Path, name: str, scenario: dict,
                     every: float, **kwargs) -> dict:
    trees = []

    def save(tree, path):
        trees.append(tree)

    real, experiments.save_checkpoint = experiments.save_checkpoint, save
    try:
        ExperimentRunner(scenario=Scenario.from_dict(scenario)).run(
            name, checkpoint_every=every, checkpoint_dir=directory / name,
            **kwargs)
    finally:
        experiments.save_checkpoint = real
    return trees[0]


def current_shapes(directory: Path) -> dict:
    """Key paths of what the writers store today (obs off)."""
    baseline = first_checkpoint(directory, "baseline", SCENARIO, 5.0,
                                duration=12.0)
    ppm = first_checkpoint(directory, "ppm", TINY_PPM, 0.05)
    sink = directory / "runs"
    ExperimentRunner(scenario=Scenario.from_dict(SCENARIO), sink=sink).run(
        "baseline", duration=12.0)
    manifest = json.loads((sink / "baseline" / "manifest.json").read_text())
    return {
        "checkpoint": migrate.CHECKPOINT,
        "manifest": migrate.MANIFEST,
        "paths": {name: sorted(key_paths(tree)) for name, tree in
                  (("baseline.ckpt", baseline), ("ppm.ckpt", ppm),
                   ("manifest.json", manifest))},
    }


@pytest.fixture(scope="module")
def shapes(tmp_path_factory):
    return current_shapes(tmp_path_factory.mktemp("shapes"))


@pytest.mark.parametrize("stored", ["baseline.ckpt", "ppm.ckpt",
                                    "manifest.json"])
def test_stored_shape_matches_its_version(shapes, stored):
    recorded = json.loads(SHAPES.read_text())
    fix = ("bump `repro.migrate.CHECKPOINT`/`MANIFEST`, add a step and a "
           "fixture, re-record (python tests/test_migrate.py)")
    assert (recorded["checkpoint"], recorded["manifest"]) == \
        (shapes["checkpoint"], shapes["manifest"]), \
        f"versions changed without re-recording: {fix}"
    now, then = set(shapes["paths"][stored]), set(recorded["paths"][stored])
    assert now == then, (
        f"{stored} changed shape (added {sorted(now - then)}, removed "
        f"{sorted(then - now)}): {fix}")


@pytest.mark.parametrize("stored", STORED_CHECKPOINTS,
                         ids=lambda p: p.stem)
def test_stored_checkpoint_migrates_to_the_current_shape(stored):
    # every stored fixture is a baseline capture: once loaded, no key
    # its release wrote survives that the current writer does not write
    recorded = json.loads(SHAPES.read_text())["paths"]["baseline.ckpt"]
    assert key_paths(load_checkpoint(stored)) == set(recorded)


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        SHAPES.write_text(json.dumps(current_shapes(Path(tmp)), indent=1)
                          + "\n")
    print(f"recorded {SHAPES}")
