"""Every durable file is published whole, or not at all.

Run manifests, checkpoints, sweep done markers and the analysis cache
all go through :func:`repro.durable.publish`.  When the final rename
fails, the file that was there must survive byte for byte and the temp
file beside it must be gone.
"""

import os
from pathlib import Path

import pytest

from repro.analysis import AnalysisEngine
from repro.analysis.engine import ANALYSIS_NAME
from repro.checkpoint import save_checkpoint
from repro.config import Scenario, run_sweep
from repro.config.sweep import checkpoint_path
from repro.core.experiments import ExperimentRunner
from repro.store import RunCatalog
from repro.store.catalog import MANIFEST_NAME

OLD = b"old contents\n"


def _sweep_done_marker(tmp_path):
    base = Scenario().with_override("cluster.nnodes", 1)
    target = checkpoint_path(tmp_path, base, "baseline", 20.0) \
        .with_suffix(".done.json")

    def write():
        run_sweep(base, [], duration=20.0, parallel=False,
                  checkpoint_every=10.0, checkpoint_dir=str(tmp_path))
    return target, write


def _run_manifest(tmp_path):
    capture = RunCatalog(tmp_path).start_run("run", nnodes=1)
    target = capture.directory / MANIFEST_NAME
    target.write_bytes(OLD)
    return target, capture.finalize


def _checkpoint(tmp_path):
    target = tmp_path / "run.ckpt"
    target.write_bytes(OLD)
    return target, lambda: save_checkpoint({"epoch": 2}, target)


def _analysis_cache(tmp_path):
    ExperimentRunner(nnodes=1, seed=1, sink=tmp_path).run(
        "baseline", duration=20.0)
    target = tmp_path / "baseline" / ANALYSIS_NAME
    target.write_bytes(OLD)
    engine = AnalysisEngine(RunCatalog(tmp_path), workers=1, cache=True)
    return target, lambda: engine.analyze("baseline")


WRITERS = {
    "sweep-done-marker": _sweep_done_marker,
    "run-manifest": _run_manifest,
    "checkpoint": _checkpoint,
    "analysis-cache": _analysis_cache,
}


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_failed_rename_keeps_old_file_and_leaves_no_temp(
        writer, tmp_path, monkeypatch):
    target, write = WRITERS[writer](tmp_path)
    before = target.read_bytes() if target.exists() else None
    real_replace = os.replace

    def failing_replace(src, dst, **kwargs):
        if Path(dst) == target:
            raise OSError("injected rename failure")
        return real_replace(src, dst, **kwargs)

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="injected rename failure"):
        write()
    after = target.read_bytes() if target.exists() else None
    assert after == before
    assert sorted(p.name for p in target.parent.glob("*.tmp")) == []

