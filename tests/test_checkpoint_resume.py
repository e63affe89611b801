"""End-to-end checkpoint/resume correctness.

The bar is bit-identity: run to T, checkpoint, restore (same process or
a fresh one), continue to the end — the trace records, duration, and
per-app statistics must equal the uninterrupted run's exactly, for every
disk scheduler and for every kind of plan (baseline, one application,
the ``combined`` mix, the ``serial`` chain).  The ``heap``/``calendar``
cases resume from checkpoints as they were written while the event queue
was selectable — a v1 envelope whose tree names its format, the clock its
``queue_kind`` and the scenario an ``[engine]`` table — which
:mod:`repro.migrate` must bring back exactly like a current one.
"""

import copy
import hashlib
import json
import pickle
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

from repro import migrate
from repro.checkpoint import (
    CheckpointError,
    capture_state,
    load_checkpoint,
    save_checkpoint,
    tree_equal,
    verify_restored_queue,
)
from repro.checkpoint.serialize import dumps
from repro.config import Scenario
from repro.core import experiments
from repro.core.experiments import ExperimentRunner
from repro.obs import flatten_snapshot

SCHEDULERS = ("fifo", "sstf", "scan", "clook")

#: None: a current checkpoint; otherwise the event-queue name a v1
#: checkpoint from the selectable-engine era carries
ENGINES = [pytest.param(None, id="current"),
           pytest.param("heap", id="heap"),
           pytest.param("calendar", id="calendar")]

TINY_PPM = {
    "cluster": {"nnodes": 2},
    "workload": {"params": {"ppm": {"grids": 1, "grid_nx": 24,
                                    "grid_ny": 48, "steps": 6,
                                    "nnodes": 2}}},
}

#: the whole mix cut down to about a second per run at 2 nodes, so the
#: multi-application plans resume in tier-1 time
TINY_MIX = {
    "cluster": {"nnodes": 2},
    "workload": {"params": {**TINY_PPM["workload"]["params"],
                            "wavelet": {"image_px": 128, "levels": 2},
                            "nbody": {"particles": 512, "steps": 4}}},
}

#: (experiment, scenario, checkpoint cadence, engine); the multi-app
#: plans run under the current checkpoint format only
APP_RESUMES = [
    pytest.param("ppm", TINY_PPM, 0.05, None, id="current"),
    pytest.param("ppm", TINY_PPM, 0.05, "heap", id="heap"),
    pytest.param("ppm", TINY_PPM, 0.05, "calendar", id="calendar"),
    pytest.param("combined", TINY_MIX, 10.0, None, id="combined"),
    pytest.param("serial", TINY_MIX, 10.0, None, id="serial"),
]

#: the obs keys that measure the host rather than the simulation
WALL_CLOCK_KEYS = {"run.wall_seconds", "run.sim_seconds_per_wall_second",
                   "sim.wall_seconds"}


def scenario(scheduler="clook", seed=11, extra=None):
    data = dict(extra or {})
    data.setdefault("cluster", {"nnodes": 2})
    data["seed"] = seed
    sc = Scenario.from_dict(data)
    return sc.with_override("node.disks[*].scheduler.kind", scheduler)


def envelope_version(path):
    return int.from_bytes(path.read_bytes()[8:10], "little")


def as_written_by(tree, engine, path):
    """Write ``tree`` to ``path`` as the selectable-``engine`` era stored
    it: a v1 envelope whose tree names its format, the clock its event
    queue and the scenario an ``[engine]`` table."""
    old = copy.deepcopy(tree)
    old["format"] = "repro-checkpoint-v1"
    old["clock"]["queue_kind"] = engine
    old["meta"]["scenario"]["engine"] = {"event_queue": engine}
    blob = bytearray(dumps(old))
    blob[8:10] = (1).to_bytes(2, "little")  # the checksum covers the payload
    path.write_bytes(bytes(blob))
    return path


def resume_point(ckpt, engine, tmp_path):
    """Path of the checkpoint to resume from, rewritten for ``engine``."""
    if engine is None:
        return ckpt
    return as_written_by(load_checkpoint(ckpt), engine,
                         tmp_path / f"{engine}.ckpt")


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
    sc = scenario(scheduler=scheduler, seed=seed)
    ckpt = tmp_path / "ck" / "baseline.ckpt"
    armed = ExperimentRunner(scenario=sc).run(
        "baseline", duration=12.0, checkpoint_every=5.0, checkpoint=ckpt)
    assert ckpt.exists()
    resumed = ExperimentRunner(scenario=sc).run(
        "baseline", checkpoint=resume_point(ckpt, engine, tmp_path))
    assert_identical(armed, resumed)


#: a checkpoint written by the release whose klog chatter was a
#: per-message process (its queue parks ``<node>:chatter`` ticks), and
#: the trace digest that release resumed it to
CHATTER_TICK_CKPT = (Path(__file__).parent / "data"
                     / "baseline-2node-seed11-t10.ckpt")


def test_resume_of_a_chatter_tick_checkpoint(tmp_path):
    expected = json.loads(
        CHATTER_TICK_CKPT.with_suffix(".json").read_text())
    ckpt = tmp_path / CHATTER_TICK_CKPT.name  # resuming re-arms onto it
    blob = CHATTER_TICK_CKPT.read_bytes()
    ckpt.write_bytes(blob)
    # the stored file is v1, and its raw payload parks the chatter ticks
    assert envelope_version(ckpt) == 1
    raw = pickle.loads(zlib.decompress(blob[8 + 2 + 32 + 8:]))
    assert any(owner.endswith(":chatter") for owner in raw["ticks"])
    sc = Scenario.from_dict(expected["scenario"])
    resumed = ExperimentRunner(scenario=sc).run("baseline", checkpoint=ckpt)
    records = resumed.trace.records
    assert len(records) == expected["records"]
    assert hashlib.sha256(records.tobytes()).hexdigest() == \
        expected["trace_sha256"]
    # the resumed run re-armed onto the file at the current version, with
    # the chatter state moved into the housekeeping snapshot
    assert envelope_version(ckpt) == migrate.CHECKPOINT
    tree = load_checkpoint(ckpt)
    assert not any(owner.endswith(":chatter") for owner in tree["ticks"])
    assert all("next_message" in node["housekeeping"]
               for node in tree["cluster"]["nodes"])


@pytest.fixture
def epoch_copies(monkeypatch):
    """A copy of every checkpoint the runner writes, in write order.

    The runner overwrites one ``.ckpt`` per run, and the last epoch of
    a multi-application plan lands after every application finished,
    so resuming with applications still running needs an earlier one.
    """
    copies = []

    def save(tree, path):
        save_checkpoint(tree, path)
        copy = path.with_name(f"{path.stem}-{tree['meta']['epoch']}.ckpt")
        save_checkpoint(tree, copy)
        copies.append(copy)

    monkeypatch.setattr(experiments, "save_checkpoint", save)
    return copies


@pytest.mark.parametrize("name,extra,every,engine", APP_RESUMES)
def test_app_resume_is_bit_identical(tmp_path, epoch_copies, name, extra,
                                     every, engine):
    """Resume from the first epoch (applications mid-run; a ``serial``
    chain is inside its second application) and from the last."""
    sc = scenario(extra=extra)
    armed = ExperimentRunner(scenario=sc).run(
        name, checkpoint_every=every, checkpoint=tmp_path / f"{name}.ckpt")
    first, last = epoch_copies[0], epoch_copies[-1]
    tokens = load_checkpoint(first)["apps"].values()
    assert not all(token["finished"] for token in tokens)
    for ckpt in (first, last):
        resumed = ExperimentRunner(scenario=sc).run(
            name, checkpoint=resume_point(ckpt, engine, tmp_path))
        assert_identical(armed, resumed)


@pytest.mark.parametrize("name,extra,every,kwargs", [
    ("baseline", None, 5.0, {"duration": 12.0}),
    ("ppm", TINY_PPM, 0.05, {}),
], ids=["baseline", "ppm"])
def test_resume_keeps_obs_counters(tmp_path, name, extra, every, kwargs):
    """A resumed run counts exactly what the armed run counted: every
    obs key but the host wall-clock ones matches."""
    sc = scenario(extra=extra)
    ckpt = tmp_path / f"{name}.ckpt"
    armed = ExperimentRunner(scenario=sc, obs=True).run(
        name, checkpoint_every=every, checkpoint=ckpt, **kwargs)
    resumed = ExperimentRunner(scenario=sc, obs=True).run(
        name, checkpoint=ckpt)
    assert_identical(armed, resumed)

    def counters(result):
        return {key: value
                for key, value in flatten_snapshot(result.obs).items()
                if key not in WALL_CLOCK_KEYS}

    assert counters(resumed) == counters(armed)


def test_armed_run_equals_unarmed_run(tmp_path):
    """Checkpointing must not perturb the simulation it observes."""
    sc = scenario()
    plain = ExperimentRunner(scenario=sc).run("baseline", duration=12.0)
    armed = ExperimentRunner(scenario=sc).run(
        "baseline", duration=12.0, checkpoint_every=5.0,
        checkpoint=tmp_path / "baseline.ckpt")
    assert_identical(plain, armed)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_restore_is_idempotent(tmp_path, scheduler, engine):
    """Property: load tree -> rebuild stack -> capture again == same tree.

    Holds for every scheduler, and for v1 files naming a stored engine:
    a restore must reconstruct exactly the state that was captured,
    nothing drifted (migration drops the retired names).
    """
    sc = scenario(scheduler=scheduler)
    ckpt = tmp_path / "baseline.ckpt"
    runner = ExperimentRunner(scenario=sc)
    runner.run("baseline", duration=12.0, checkpoint_every=5.0,
               checkpoint=ckpt)
    tree = load_checkpoint(ckpt)
    stored = load_checkpoint(resume_point(ckpt, engine, tmp_path))

    fresh = ExperimentRunner(scenario=sc)
    sim, cluster = fresh._build(stored)
    sim.settle()
    verify_restored_queue(sim, stored)
    fresh._restore_obs(stored)
    again = capture_state(sim, cluster, obs=fresh._registry(),
                          meta=tree["meta"])
    assert tree_equal(tree, again)


def test_resume_in_fresh_process_is_bit_identical(tmp_path):
    """The real crash-recovery story: restore in a brand new interpreter."""
    sc = scenario()
    ckpt = tmp_path / "baseline.ckpt"
    armed = ExperimentRunner(scenario=sc).run(
        "baseline", duration=12.0, checkpoint_every=5.0, checkpoint=ckpt)
    script = (
        "import json, sys, hashlib\n"
        "from pathlib import Path\n"
        "from repro.config import Scenario\n"
        "from repro.core.experiments import ExperimentRunner\n"
        "sc_dict, ckpt = json.loads(sys.argv[1]), sys.argv[2]\n"
        "sc = Scenario.from_dict(sc_dict)\n"
        "r = ExperimentRunner(scenario=sc).run('baseline',"
        " checkpoint=ckpt)\n"
        "print(json.dumps({'sha':"
        " hashlib.sha256(r.trace.records.tobytes()).hexdigest(),"
        " 'n': len(r.trace.records), 'duration': r.duration}))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script, json.dumps(sc.to_dict()),
         str(ckpt)],
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
    ckpt = tmp_path / "baseline.ckpt"
    ExperimentRunner(scenario=sc).run(
        "baseline", duration=12.0, checkpoint_every=5.0, checkpoint=ckpt)
    other = scenario(seed=99)
    with pytest.raises(CheckpointError, match="scenario"):
        ExperimentRunner(scenario=other).run("baseline", checkpoint=ckpt)


def test_resume_rejects_wrong_experiment(tmp_path):
    sc = scenario()
    ckpt = tmp_path / "baseline.ckpt"
    ExperimentRunner(scenario=sc).run(
        "baseline", duration=12.0, checkpoint_every=5.0, checkpoint=ckpt)
    with pytest.raises(CheckpointError):
        ExperimentRunner(scenario=sc).run("ppm", checkpoint=ckpt)


def test_resume_rejects_a_different_window(tmp_path):
    sc = scenario()
    ckpt = tmp_path / "baseline.ckpt"
    ExperimentRunner(scenario=sc).run(
        "baseline", duration=12.0, checkpoint_every=5.0, checkpoint=ckpt)
    with pytest.raises(CheckpointError, match="cannot resume it as"):
        ExperimentRunner(scenario=sc).run(
            "baseline", duration=20.0, checkpoint=ckpt)


def test_app_resume_rejects_duration(tmp_path):
    sc = scenario(extra=TINY_PPM)
    ckpt = tmp_path / "ppm.ckpt"
    ExperimentRunner(scenario=sc).run(
        "ppm", checkpoint_every=0.05, checkpoint=ckpt)
    with pytest.raises(ValueError, match="duration"):
        ExperimentRunner(scenario=sc).run(
            "ppm", duration=12.0, checkpoint=ckpt)


def test_checkpoint_needs_a_file_and_a_cadence(tmp_path):
    # captures need a file to go to, and a missing file a cadence
    runner = ExperimentRunner(scenario=scenario())
    with pytest.raises(ValueError, match="go together"):
        runner.run("baseline", duration=12.0, checkpoint_every=5.0)
    with pytest.raises(ValueError, match="go together"):
        runner.run("baseline", duration=12.0,
                   checkpoint=tmp_path / "missing.ckpt")
    assert not any(tmp_path.iterdir())


def test_epoch_rounded_onto_the_clock_is_not_captured_again(tmp_path,
                                                             monkeypatch):
    """0.05 s epochs from t0 = 35.0: ``(35.05 - 35.0) // 0.05`` rounds to
    0, which names the epoch the clock already stands on.  The loop must
    step past it, not capture epoch 1 forever."""
    sc = scenario(extra={"cluster": {"nnodes": 1}})
    epochs = []
    save = experiments.save_checkpoint

    def counting(tree, path):
        epochs.append(tree["meta"]["epoch"])
        assert len(epochs) <= 20, f"epoch loop spins: {epochs[-3:]}"
        save(tree, path)

    monkeypatch.setattr(experiments, "save_checkpoint", counting)
    ckpt = tmp_path / "baseline.ckpt"
    plain = ExperimentRunner(scenario=sc).run("baseline", duration=1.0)
    armed = ExperimentRunner(scenario=sc).run(
        "baseline", duration=1.0, checkpoint_every=0.05, checkpoint=ckpt)
    assert epochs and epochs == sorted(set(epochs))
    assert_identical(plain, armed)
    resumed = ExperimentRunner(scenario=sc).run("baseline", checkpoint=ckpt)
    assert_identical(plain, resumed)
