#!/usr/bin/env python
"""CI smoke test for the whole-stack checkpoint/restore protocol.

Exercises the bit-identity contract end to end:

* ``baseline``: run armed (periodic checkpoints), resume from the
  first and the last epoch's ``.ckpt``, and require the resumed run's trace records, duration, and
  metrics to equal the armed run's exactly;
* ``ppm``: the same through the application layer (resume tokens,
  coordinator holds) — per-app statistics must match too;
* ``serial``: the whole mix chained back to back on each node; its
  first epoch lands inside the chain, so the resumed chain picks up
  mid-sequence (finished apps replay only their statistics, later ones
  start fresh);
* a preempted sweep: finished points are skipped via their done
  markers, an interrupted point resumes from its live checkpoint, and
  the restarted sweep reproduces the uninterrupted metrics;
* an older ``.ckpt`` (``tests/data/``, written while the klog chatter
  was a per-message process) resumes to the trace digest recorded
  beside it.

Usage::

    PYTHONPATH=src python tools/checkpoint_smoke.py [--duration 30]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from repro.checkpoint import save_checkpoint
from repro.config import Scenario, parse_axis_spec, run_sweep
from repro.core import experiments
from repro.core.experiments import ExperimentRunner

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
            name, checkpoint_every=every, checkpoint_dir=workdir / name,
            **kwargs)
    assert copies, f"{name}: no checkpoint was written"
    for label, ckpt in (("first", copies[0]), ("last", copies[-1])):
        resumed = ExperimentRunner(scenario=sc).run(name, resume_from=ckpt)
        check_identical(f"{name} from {label} epoch", armed, resumed)


def smoke_sweep(duration: float, workdir: Path) -> None:
    base = Scenario.from_dict({"cluster": {"nnodes": 2}})
    axes = [parse_axis_spec("scheduler=clook,fifo")]
    ck = workdir / "sweep"
    reference = run_sweep(base, axes, experiment="baseline",
                          duration=duration, parallel=False,
                          checkpoint_every=duration / 3,
                          checkpoint_dir=str(ck))

    # preempt point 0: drop its done marker, plant a live checkpoint
    from repro.config.sweep import expand_grid
    point = expand_grid(base, axes)[0]
    fp = point.scenario.fingerprint()
    (ck / f"{fp}.done.json").unlink()
    ExperimentRunner(scenario=point.scenario).run(
        "baseline", duration=duration, checkpoint_every=duration / 3,
        checkpoint_dir=str(ck / f"{fp}.ckpt"))

    restarted = run_sweep(base, axes, experiment="baseline",
                          duration=duration, parallel=False,
                          checkpoint_every=duration / 3,
                          checkpoint_dir=str(ck))
    assert [r.metrics for r in reference] == \
        [r.metrics for r in restarted], "restarted sweep diverged"
    assert not (ck / f"{fp}.ckpt").exists(), "live checkpoint left behind"
    print(f"  sweep preempt/restart: OK ({len(restarted)} points)")


#: an older-format checkpoint and its expected resume (see the JSON)
STORED_CKPT = (Path(__file__).resolve().parents[1] / "tests" / "data"
               / "baseline-2node-seed11-t10.ckpt")


def smoke_stored_checkpoint(workdir: Path) -> None:
    expected = json.loads(STORED_CKPT.with_suffix(".json").read_text())
    ckpt = workdir / STORED_CKPT.name  # resuming re-arms onto this path
    shutil.copy(STORED_CKPT, ckpt)
    sc = Scenario.from_dict(expected["scenario"])
    records = ExperimentRunner(scenario=sc).run(
        "baseline", resume_from=ckpt).trace.records
    digest = hashlib.sha256(records.tobytes()).hexdigest()
    assert (len(records), digest) == \
        (expected["records"], expected["trace_sha256"]), \
        f"stored checkpoint resumed to {len(records)} records, {digest}"
    print(f"  stored {STORED_CKPT.name}: OK ({len(records)} records, "
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
        smoke_experiment("ppm", None, 0.05, workdir)
        smoke_experiment("serial", None, 10.0, workdir, TINY_MIX)
        smoke_sweep(args.duration, workdir)
        smoke_stored_checkpoint(workdir)
    print("checkpoint smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
