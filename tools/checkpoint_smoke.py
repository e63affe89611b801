#!/usr/bin/env python
"""CI smoke test for the whole-stack checkpoint/restore protocol.

Exercises the bit-identity contract end to end:

* ``baseline``: run armed (periodic checkpoints), resume from the
  first and the last epoch's ``.ckpt``, and require the resumed run's trace records, duration, and
  metrics to equal the armed run's exactly;
* ``baseline`` with a run catalog sink, killed after its first capture
  and run again: the catalog holds the run once, under the
  uninterrupted run's id, with byte-identical ``.rpt`` node files;
* ``ppm``: the same through the application layer (resume tokens,
  coordinator holds) — per-app statistics must match too;
* ``serial``: the whole mix chained back to back on each node; its
  first epoch lands inside the chain, so the resumed chain picks up
  mid-sequence (finished apps replay only their statistics, later ones
  start fresh);
* a preempted sweep: finished points are skipped via their done
  markers, an interrupted point resumes from its live checkpoint, and
  the restarted sweep reproduces the uninterrupted metrics;
* the command line: ``repro-experiment baseline --checkpoint-every``
  run twice, identically; the second run must say it is resuming and
  print the first one's Table 1;
* every stored ``.ckpt`` under ``tests/data/`` (each written by an older
  release, one per :mod:`repro.migrate` step) resumes to the trace
  digest recorded beside it in ``<name>.json``.

Usage::

    PYTHONPATH=src python tools/checkpoint_smoke.py [--duration 30]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from repro.checkpoint import save_checkpoint
from repro.config import Scenario, parse_axis_spec, run_sweep
from repro.core import experiments
from repro.core.experiments import ExperimentRunner
from repro.store import RunCatalog

TINY_PPM = {
    "cluster": {"nnodes": 2},
    "seed": 11,
    "workload": {"params": {"ppm": {"grids": 1, "grid_nx": 24,
                                    "grid_ny": 48, "steps": 6,
                                    "nnodes": 2}}},
}

#: TINY_PPM plus wavelet and nbody cut down to about a second each
TINY_MIX = {
    **TINY_PPM,
    "workload": {"params": {**TINY_PPM["workload"]["params"],
                            "wavelet": {"image_px": 128, "levels": 2},
                            "nbody": {"particles": 512, "steps": 4}}},
}


def check_identical(tag: str, armed, resumed) -> None:
    assert np.array_equal(armed.trace.records, resumed.trace.records), \
        f"{tag}: trace records diverged ({len(armed.trace.records)} vs " \
        f"{len(resumed.trace.records)})"
    assert armed.duration == resumed.duration, f"{tag}: duration diverged"
    assert armed.metrics.to_dict() == resumed.metrics.to_dict(), \
        f"{tag}: metrics diverged"
    for app, stats in armed.app_stats.items():
        assert stats == resumed.app_stats.get(app), \
            f"{tag}: app stats diverged for {app}"
    print(f"  {tag}: OK ({len(armed.trace.records)} records bit-identical)")


@contextmanager
def epoch_copies():
    """Keep a copy of every checkpoint written inside the block.

    The runner overwrites one ``.ckpt`` per run, and the last epoch of
    a multi-application plan lands after every application finished;
    the copies let the smoke resume from an earlier one too.
    """
    copies = []

    def save(tree, path):
        save_checkpoint(tree, path)
        copy = path.with_name(f"{path.stem}-{tree['meta']['epoch']}.ckpt")
        save_checkpoint(tree, copy)
        copies.append(copy)

    experiments.save_checkpoint = save
    try:
        yield copies
    finally:
        experiments.save_checkpoint = save_checkpoint


def smoke_experiment(name: str, duration, every: float,
                     workdir: Path, scenario: dict = TINY_PPM) -> None:
    sc = Scenario.from_dict(scenario)
    kwargs = {"duration": duration} if name == "baseline" else {}
    with epoch_copies() as copies:
        armed = ExperimentRunner(scenario=sc).run(
            name, checkpoint_every=every,
            checkpoint=workdir / name / f"{name}.ckpt", **kwargs)
    assert copies, f"{name}: no checkpoint was written"
    for label, ckpt in (("first", copies[0]), ("last", copies[-1])):
        resumed = ExperimentRunner(scenario=sc).run(name, checkpoint=ckpt)
        check_identical(f"{name} from {label} epoch", armed, resumed)


class Killed(Exception):
    """The run dying right after a checkpoint capture."""


@contextmanager
def killed_after_first_capture():
    """Make the runner die at its second capture, as a process killed
    after writing its first checkpoint would."""
    captures = []

    def save(tree, path):
        captures.append(path)
        if len(captures) == 2:
            raise Killed
        save_checkpoint(tree, path)

    experiments.save_checkpoint = save
    try:
        yield
    finally:
        experiments.save_checkpoint = save_checkpoint


def smoke_stored_resume(duration: float, workdir: Path) -> None:
    sc = Scenario.from_dict(TINY_PPM)
    workdir = workdir / "stored"
    whole = RunCatalog(workdir / "whole")
    runs = RunCatalog(workdir / "runs")
    every = duration / 4
    armed = ExperimentRunner(scenario=sc, sink=whole).run(
        "baseline", duration=duration, checkpoint_every=every,
        checkpoint=workdir / "whole.ckpt")
    ckpt = workdir / "killed.ckpt"
    with killed_after_first_capture():
        try:
            ExperimentRunner(scenario=sc, sink=runs).run(
                "baseline", duration=duration, checkpoint_every=every,
                checkpoint=ckpt)
        except Killed:
            pass
        else:
            raise AssertionError("stored baseline: the run was not killed")
    assert not list(runs.root.glob("*")), \
        f"stored baseline: the killed run left {list(runs.root.iterdir())}"
    resumed = ExperimentRunner(scenario=sc, sink=runs).run(
        "baseline", checkpoint=ckpt)
    check_identical("stored baseline after a kill", armed, resumed)
    ids = sorted(p.name for p in runs.root.iterdir())
    assert ids == whole.runs() == ["baseline"], \
        f"stored baseline: catalog holds {ids}, not {whole.runs()}"
    stored = runs.trace_paths("baseline")
    expected = whole.trace_paths("baseline")
    assert sorted(stored) == sorted(expected), "stored baseline: node set"
    for node_id, path in expected.items():
        assert stored[node_id].read_bytes() == path.read_bytes(), \
            f"stored baseline: {path.name} differs"
    print(f"  stored baseline catalog: OK (one run, {len(stored)} node "
          f"files byte-identical)")


def smoke_sweep(duration: float, workdir: Path) -> None:
    base = Scenario.from_dict({"cluster": {"nnodes": 2}})
    axes = [parse_axis_spec("scheduler=clook,fifo")]
    ck = workdir / "sweep"
    reference = run_sweep(base, axes, experiment="baseline",
                          duration=duration, parallel=False,
                          checkpoint_every=duration / 3,
                          checkpoint_dir=str(ck))

    # preempt point 0: drop its done marker, plant a live checkpoint
    from repro.config.sweep import checkpoint_path, expand_grid
    point = expand_grid(base, axes)[0]
    ckpt = checkpoint_path(ck, point.scenario, "baseline", duration)
    ckpt.with_suffix(".done.json").unlink()
    ExperimentRunner(scenario=point.scenario).run(
        "baseline", duration=duration, checkpoint_every=duration / 3,
        checkpoint=ckpt)

    restarted = run_sweep(base, axes, experiment="baseline",
                          duration=duration, parallel=False,
                          checkpoint_every=duration / 3,
                          checkpoint_dir=str(ck))
    assert [r.metrics for r in reference] == \
        [r.metrics for r in restarted], "restarted sweep diverged"
    assert not ckpt.exists(), "live checkpoint left behind"
    print(f"  sweep preempt/restart: OK ({len(restarted)} points)")


def smoke_cli(duration: float, workdir: Path) -> None:
    """The same ``repro-experiment`` command twice: the second run
    resumes from the first's checkpoint and prints the same Table 1."""
    argv = [sys.executable, "-m", "repro.cli", "baseline", "--nodes", "2",
            "--seed", "3", "--duration", str(duration),
            "--checkpoint-every", str(duration / 3),
            "--checkpoint-dir", str(workdir / "cli"),
            "--figures", "--table"]
    runs = [subprocess.run(argv, capture_output=True, text=True,
                           check=True) for _ in range(2)]
    assert "running baseline" in runs[0].stderr, runs[0].stderr
    assert "resuming baseline" in runs[1].stderr, \
        f"the re-run did not resume: {runs[1].stderr}"
    assert runs[0].stdout == runs[1].stdout, \
        f"Table 1 diverged:\n{runs[0].stdout}\n{runs[1].stdout}"
    print("  repro-experiment re-run: OK (resumed, same Table 1)")


#: older-format checkpoints, each with its expected resume beside it
STORED_DIR = Path(__file__).resolve().parents[1] / "tests" / "data"


def smoke_stored_checkpoint(stored: Path, workdir: Path) -> None:
    expected = json.loads(stored.with_suffix(".json").read_text())
    ckpt = workdir / stored.name  # resuming re-arms onto this path
    shutil.copy(stored, ckpt)
    sc = Scenario.from_dict(expected["scenario"])
    records = ExperimentRunner(scenario=sc).run(
        "baseline", checkpoint=ckpt).trace.records
    digest = hashlib.sha256(records.tobytes()).hexdigest()
    assert (len(records), digest) == \
        (expected["records"], expected["trace_sha256"]), \
        f"{stored.name} resumed to {len(records)} records, {digest}"
    print(f"  stored {stored.name}: OK ({len(records)} records, "
          f"digest matches)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--duration", type=float, default=30.0,
                        help="baseline window in simulated seconds")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="ckpt-smoke-") as tmp:
        workdir = Path(tmp)
        smoke_experiment("baseline", args.duration, args.duration / 4,
                         workdir)
        smoke_stored_resume(args.duration, workdir)
        smoke_experiment("ppm", None, 0.05, workdir)
        smoke_experiment("serial", None, 10.0, workdir, TINY_MIX)
        smoke_sweep(args.duration, workdir)
        smoke_cli(args.duration, workdir)
        stored = sorted(STORED_DIR.glob("*.ckpt"))
        assert stored, f"no stored checkpoints under {STORED_DIR}"
        for ckpt in stored:
            smoke_stored_checkpoint(ckpt, workdir)
    print("checkpoint smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
