"""End-to-end checkpoint/resume correctness.

The bar is bit-identity: run to T, checkpoint, restore (same process or
a fresh one), continue to the end — the trace records, duration, and
per-app statistics must equal the uninterrupted run's exactly, for every
disk scheduler.  The ``heap``/``calendar`` cases resume from checkpoints
as they were written while the event queue was selectable — the clock
carries ``queue_kind`` and the scenario an ``[engine]`` table — which
must restore exactly like a current one.
"""

import copy
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.checkpoint import (
    CheckpointError,
    capture_state,
    drain_to_quiescence,
    load_checkpoint,
    save_checkpoint,
    tree_equal,
    verify_restored_queue,
)
from repro.config import Scenario
from repro.core.experiments import ExperimentRunner

SCHEDULERS = ("fifo", "sstf", "scan", "clook")

#: None: a current checkpoint; otherwise the event-queue name a stored
#: scenario and checkpoint from the selectable-engine era carry
ENGINES = [pytest.param(None, id="current"),
           pytest.param("heap", id="heap"),
           pytest.param("calendar", id="calendar")]

TINY_PPM = {
    "cluster": {"nnodes": 2},
    "workload": {"params": {"ppm": {"grids": 1, "grid_nx": 24,
                                    "grid_ny": 48, "steps": 6,
                                    "nnodes": 2}}},
}


def scenario(engine=None, scheduler="clook", seed=11, extra=None):
    data = dict(extra or {})
    data.setdefault("cluster", {"nnodes": 2})
    data["seed"] = seed
    if engine is not None:
        data["engine"] = {"event_queue": engine}
    sc = Scenario.from_dict(data)
    return sc.with_override("node.disks[*].scheduler.kind", scheduler)


def as_written_by(tree, engine):
    """``tree`` as a checkpoint written under the selectable ``engine``
    would hold it (unchanged for ``engine=None``)."""
    if engine is None:
        return tree
    old = copy.deepcopy(tree)
    old["clock"]["queue_kind"] = engine
    old["meta"]["scenario"]["engine"] = {"event_queue": engine}
    return old


def resume_point(ckpt, engine, tmp_path):
    """Path of the checkpoint to resume from, rewritten for ``engine``."""
    if engine is None:
        return ckpt
    old = tmp_path / f"{engine}.ckpt"
    save_checkpoint(as_written_by(load_checkpoint(ckpt), engine), old)
    return old


def assert_identical(a, b):
    assert np.array_equal(a.trace.records, b.trace.records)
    assert a.duration == b.duration
    assert a.metrics.to_dict() == b.metrics.to_dict()
    for app, stats in a.app_stats.items():
        assert stats == b.app_stats.get(app)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("scheduler,seed",
                         [(s, 11) for s in SCHEDULERS] + [("clook", 23)])
def test_baseline_resume_is_bit_identical(tmp_path, scheduler, engine, seed):
    sc = scenario(engine=engine, scheduler=scheduler, seed=seed)
    ck = tmp_path / "ck"
    armed = ExperimentRunner(scenario=sc).run(
        "baseline", duration=12.0, checkpoint_every=5.0, checkpoint_dir=ck)
    ckpt = ck / "baseline.ckpt"
    assert ckpt.exists()
    resumed = ExperimentRunner(scenario=sc).run(
        "baseline", resume_from=resume_point(ckpt, engine, tmp_path))
    assert_identical(armed, resumed)


@pytest.mark.parametrize("engine", ENGINES)
def test_app_resume_is_bit_identical(tmp_path, engine):
    sc = scenario(engine=engine, extra=TINY_PPM)
    ck = tmp_path / "ck"
    armed = ExperimentRunner(scenario=sc).run(
        "ppm", checkpoint_every=0.05, checkpoint_dir=ck)
    ckpt = ck / "ppm.ckpt"
    assert ckpt.exists()
    resumed = ExperimentRunner(scenario=sc).run(
        "ppm", resume_from=resume_point(ckpt, engine, tmp_path))
    assert_identical(armed, resumed)


def test_armed_run_equals_unarmed_run(tmp_path):
    """Checkpointing must not perturb the simulation it observes."""
    sc = scenario()
    plain = ExperimentRunner(scenario=sc).run("baseline", duration=12.0)
    armed = ExperimentRunner(scenario=sc).run(
        "baseline", duration=12.0, checkpoint_every=5.0,
        checkpoint_dir=tmp_path / "ck")
    assert_identical(plain, armed)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_restore_is_idempotent(tmp_path, scheduler, engine):
    """Property: load tree -> rebuild stack -> capture again == same tree.

    Holds for every scheduler, and for trees carrying a stored engine
    name: a restore must reconstruct exactly the state that was
    captured, nothing drifted (the retired name is simply not captured).
    """
    sc = scenario(engine=engine, scheduler=scheduler)
    ck = tmp_path / "ck"
    runner = ExperimentRunner(scenario=sc)
    runner.run("baseline", duration=12.0, checkpoint_every=5.0,
               checkpoint_dir=ck)
    tree = load_checkpoint(ck / "baseline.ckpt")
    stored = as_written_by(tree, engine)

    fresh = ExperimentRunner(scenario=sc)
    sim, cluster = fresh._resume_build(stored)
    drain_to_quiescence(sim)
    verify_restored_queue(sim, stored)
    fresh._restore_obs(stored)
    again = capture_state(sim, cluster, obs=fresh._registry(),
                          meta=tree["meta"])
    assert tree_equal(tree, again)


def test_resume_in_fresh_process_is_bit_identical(tmp_path):
    """The real crash-recovery story: restore in a brand new interpreter."""
    sc = scenario()
    ck = tmp_path / "ck"
    armed = ExperimentRunner(scenario=sc).run(
        "baseline", duration=12.0, checkpoint_every=5.0, checkpoint_dir=ck)
    script = (
        "import json, sys, hashlib\n"
        "from pathlib import Path\n"
        "from repro.config import Scenario\n"
        "from repro.core.experiments import ExperimentRunner\n"
        "sc_dict, ckpt = json.loads(sys.argv[1]), sys.argv[2]\n"
        "sc = Scenario.from_dict(sc_dict)\n"
        "r = ExperimentRunner(scenario=sc).run('baseline',"
        " resume_from=ckpt)\n"
        "print(json.dumps({'sha':"
        " hashlib.sha256(r.trace.records.tobytes()).hexdigest(),"
        " 'n': len(r.trace.records), 'duration': r.duration}))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script, json.dumps(sc.to_dict()),
         str(ck / "baseline.ckpt")],
        capture_output=True, text=True, timeout=300,
        cwd=str(Path(__file__).resolve().parent.parent))
    assert out.returncode == 0, out.stderr
    got = json.loads(out.stdout.strip().splitlines()[-1])
    import hashlib
    assert got["n"] == len(armed.trace.records)
    assert got["sha"] == hashlib.sha256(
        armed.trace.records.tobytes()).hexdigest()
    assert got["duration"] == armed.duration


def test_resume_rejects_mismatched_scenario(tmp_path):
    sc = scenario(seed=11)
    ck = tmp_path / "ck"
    ExperimentRunner(scenario=sc).run(
        "baseline", duration=12.0, checkpoint_every=5.0, checkpoint_dir=ck)
    other = scenario(seed=99)
    with pytest.raises(CheckpointError, match="scenario"):
        ExperimentRunner(scenario=other).run(
            "baseline", resume_from=ck / "baseline.ckpt")


def test_resume_rejects_wrong_experiment(tmp_path):
    sc = scenario()
    ck = tmp_path / "ck"
    ExperimentRunner(scenario=sc).run(
        "baseline", duration=12.0, checkpoint_every=5.0, checkpoint_dir=ck)
    with pytest.raises(CheckpointError):
        ExperimentRunner(scenario=sc).run(
            "ppm", resume_from=ck / "baseline.ckpt")
