"""Checkpointing at the service layers: sweeps, serve jobs, and the CLI.

A preempted sweep must restart where it stopped (done markers skip
finished points, live checkpoints resume interrupted ones), and a serve
job whose worker dies mid-sweep must resume without re-running the
points it already finished.  A run only ever picks up the files of the
very same run: another seed, duration or experiment runs afresh.
"""

import numpy as np
import pytest

from repro.config import Scenario, parse_axis_spec, run_sweep
from repro.config.sweep import checkpoint_path, expand_grid
from repro.core.experiments import ExperimentRunner
from repro.serve.jobs import JobStore
from repro.store import RunCatalog
from repro.serve.pool import (
    CHECKPOINTS_DIR,
    JOBS_DIR,
    catalog_root,
    execute_job,
)

BASE = {
    "cluster": {"nnodes": 2},
    "experiment": {"baseline_duration": 20.0},
}
GRID = ["scheduler=clook,fifo"]


def sweep(ck, grid=GRID, base=BASE, experiment="baseline", duration=20.0,
          every=6.0):
    """``grid`` over ``base``; checkpointed under ``ck`` unless it is
    ``None``."""
    return run_sweep(Scenario.from_dict(base),
                     [parse_axis_spec(s) for s in grid],
                     experiment=experiment, duration=duration,
                     parallel=False,
                     checkpoint_every=every if ck is not None else None,
                     checkpoint_dir=str(ck) if ck is not None else None)


def metrics_of(results):
    return [r.metrics for r in results]


def test_sweep_done_markers_skip_finished_points(tmp_path):
    ck = tmp_path / "ck"
    first = sweep(ck)
    markers = sorted(p.name for p in ck.glob("*.done.json"))
    assert len(markers) == len(first) == 2
    assert not list(ck.glob("*.ckpt"))  # live checkpoints cleaned up

    # a rerun touches nothing: metrics come straight from the markers
    mtimes = {p.name: p.stat().st_mtime_ns for p in ck.glob("*.done.json")}
    second = sweep(ck)
    assert [r.metrics for r in first] == [r.metrics for r in second]
    assert {p.name: p.stat().st_mtime_ns
            for p in ck.glob("*.done.json")} == mtimes


def test_sweep_resumes_interrupted_point_bit_identically(tmp_path):
    ck = tmp_path / "ck"
    reference = sweep(ck)

    # preempt one point: drop its done marker, plant a mid-run checkpoint
    point = expand_grid(Scenario.from_dict(BASE),
                        [parse_axis_spec(s) for s in GRID])[0]
    ckpt = checkpoint_path(ck, point.scenario, "baseline", 20.0)
    ckpt.with_suffix(".done.json").unlink()
    ExperimentRunner(scenario=point.scenario).run(
        "baseline", duration=20.0, checkpoint_every=6.0, checkpoint=ckpt)
    assert ckpt.exists()

    resumed = sweep(ck)
    assert [r.metrics for r in reference] == [r.metrics for r in resumed]
    assert not ckpt.exists()


def test_checkpointed_seed_sweep_matches_plain_sweep(tmp_path):
    # seeds share every other scenario field; each must still run as
    # itself, not be recalled from another seed's done marker
    ck = tmp_path / "ck"
    seeds = ["seed=1,2"]
    checkpointed = sweep(ck, grid=seeds)
    assert metrics_of(checkpointed) == metrics_of(sweep(None, grid=seeds))
    assert checkpointed[0].metrics != checkpointed[1].metrics
    assert len(list(ck.glob("*.done.json"))) == 2


def test_sweep_of_another_duration_reruns_its_points(tmp_path):
    ck = tmp_path / "ck"
    short = sweep(ck, duration=20.0)
    longer = sweep(ck, duration=40.0)
    assert metrics_of(longer) == metrics_of(sweep(None, duration=40.0))
    assert metrics_of(longer) != metrics_of(short)
    assert len(list(ck.glob("*.done.json"))) == 4


def test_sweep_of_another_experiment_reruns_its_points(tmp_path):
    base = {**BASE, "workload": {"params": {"ppm": {
        "grids": 1, "grid_nx": 24, "grid_ny": 48, "steps": 6,
        "nnodes": 2}}}}
    ck = tmp_path / "ck"
    sweep(ck, base=base, duration=20.0)
    # capture holds pace application runs, so the reference checkpoints
    # at the same cadence, into a directory of its own
    ppm = sweep(ck, base=base, experiment="ppm", duration=None, every=0.05)
    assert metrics_of(ppm) == metrics_of(
        sweep(tmp_path / "fresh", base=base, experiment="ppm",
              duration=None, every=0.05))
    assert all(m["label"] == "ppm" for m in metrics_of(ppm))


class WorkerDied(Exception):
    pass


def test_serve_job_killed_mid_sweep_resumes_completed_points(tmp_path):
    root = tmp_path
    store = JobStore(root / JOBS_DIR)
    job = store.create("sweep", {
        "scenario": BASE, "experiment": "baseline", "duration": 20.0,
        "grid": GRID, "parallel": False, "checkpoint_every": 6.0,
    })
    log = store.events(job.id)
    seen = []

    def dying_progress(event, **data):
        log.append(event, job=job.id, **data)
        seen.append(data)
        if event == "point" and data["k"] == 1:
            raise WorkerDied("simulated worker death after first point")

    with pytest.raises(WorkerDied):
        execute_job(job, root, progress=dying_progress)
    first_run_id = seen[0]["run_id"]
    ckdir = root / CHECKPOINTS_DIR / job.id
    assert list(ckdir.glob("*.done.json"))  # durable progress survived

    # recovery harvests the finished point's run id from the event log
    assert store.completed_run_ids(job.id) == [first_run_id]

    # the requeued job re-runs only the unfinished point
    cat = catalog_root(root)
    before = {p.name for p in cat.iterdir()} if cat.exists() else set()
    events = []
    outcome = execute_job(job, root,
                          progress=lambda e, **d: events.append((e, d)))
    new_runs = {p.name for p in cat.iterdir()} - before
    assert len(new_runs) == 1, "finished point was re-executed"
    assert len(outcome["summary"]) == 2
    assert not ckdir.exists()  # checkpoints cleaned up on completion
    skipped = [d for e, d in events if e == "point" and d["k"] == 1][0]
    assert skipped["run_id"] == first_run_id


def test_serve_experiment_job_resumes_from_checkpoint(tmp_path):
    root = tmp_path
    store = JobStore(root / JOBS_DIR)
    spec = {"scenario": {"cluster": {"nnodes": 2}}, "experiment": "baseline",
            "duration": 20.0, "checkpoint_every": 6.0}
    job = store.create("experiment", spec)

    # plant a mid-run checkpoint where a crashed worker would leave one
    scenario = Scenario.from_dict(spec["scenario"])
    ckpt = checkpoint_path(root / CHECKPOINTS_DIR / job.id, scenario,
                           "baseline", 20.0)
    reference = ExperimentRunner(scenario=scenario).run(
        "baseline", duration=20.0, checkpoint_every=6.0, checkpoint=ckpt)
    assert ckpt.exists()

    outcome = execute_job(job, root)
    assert outcome["summary"] == reference.metrics.to_dict()
    assert not ckpt.parent.exists()


def test_serve_experiment_job_equals_the_runner(tmp_path):
    # an experiment job is a one-point sweep: same summary, same stored
    # records as ExperimentRunner.run at the same cadence
    root = tmp_path / "serve"
    store = JobStore(root / JOBS_DIR)
    spec = {"scenario": {"cluster": {"nnodes": 2}, "seed": 5},
            "experiment": "baseline", "duration": 20.0,
            "checkpoint_every": 6.0}
    job = store.create("experiment", spec)
    events = []
    outcome = execute_job(job, root,
                          progress=lambda e, **d: events.append((e, d)))

    ref_root = tmp_path / "ref"
    reference = ExperimentRunner(
        scenario=Scenario.from_dict(spec["scenario"]), sink=ref_root,
        obs=True).run("baseline", duration=20.0, checkpoint_every=6.0,
                      checkpoint=tmp_path / "ref.ckpt")
    assert outcome["summary"] == reference.metrics.to_dict()
    [run_id] = outcome["run_ids"]
    stored = RunCatalog(catalog_root(root)).load_dataset(run_id).records
    assert np.array_equal(
        stored, RunCatalog(ref_root).load_dataset("baseline").records)
    [(event, point)] = events
    assert (event, point["label"], point["k"], point["n"]) == \
        ("point", "baseline", 1, 1)
    assert point["run_id"] == run_id


def test_serve_spec_can_disable_checkpointing(tmp_path):
    root = tmp_path
    store = JobStore(root / JOBS_DIR)
    job = store.create("experiment", {
        "scenario": {"cluster": {"nnodes": 2}}, "experiment": "baseline",
        "duration": 20.0, "checkpoint_every": 0,
    })
    execute_job(job, root)
    assert not (root / CHECKPOINTS_DIR / job.id).exists()


# -- CLI flags -----------------------------------------------------------------
def cli_run(capsys, *argv):
    """``repro-experiment argv``: exit code, stderr."""
    from repro.cli import main
    rc = main(list(argv) + ["--figures"])
    return rc, capsys.readouterr().err


def summary_line(err):
    [line] = [l for l in err.splitlines() if " requests, " in l]
    return line


CLI_BASELINE = ("baseline", "--nodes", "2", "--duration", "20",
                "--checkpoint-every", "6")


def test_cli_checkpoint_and_resume_round_trip(tmp_path, capsys):
    argv = CLI_BASELINE + ("--checkpoint-dir", str(tmp_path / "ck"))
    rc, first = cli_run(capsys, *argv)
    assert rc == 0 and "running baseline" in first
    [ckpt] = (tmp_path / "ck").glob("*.ckpt")
    assert ckpt == checkpoint_path(
        tmp_path / "ck", ExperimentRunner(
            nnodes=2, scenario=Scenario().with_overrides(
                {"experiment.baseline_duration": 20.0})).scenario,
        "baseline", None)
    # the same command again resumes from the run's file
    rc, again = cli_run(capsys, *argv)
    assert rc == 0 and "resuming baseline" in again
    assert summary_line(again) == summary_line(first)


def test_cli_runs_of_other_seeds_keep_their_own_checkpoints(tmp_path,
                                                            capsys):
    # two seeds in one --checkpoint-dir used to share one
    # <experiment>.ckpt: the second run overwrote the first's resume point
    ck = ("--checkpoint-dir", str(tmp_path / "ck"))
    rc, plain = cli_run(capsys, *CLI_BASELINE[:5], "--seed", "1")
    assert rc == 0
    for seed in ("1", "2"):
        assert cli_run(capsys, *CLI_BASELINE, "--seed", seed, *ck)[0] == 0
    assert len(list((tmp_path / "ck").glob("*.ckpt"))) == 2
    rc, again = cli_run(capsys, *CLI_BASELINE, "--seed", "1", *ck)
    assert rc == 0 and "resuming baseline" in again
    assert summary_line(again) == summary_line(plain)


def test_cli_parallel_all_checkpoints_each_experiment(tmp_path, capsys):
    # each worker process runs on its experiment's own keyed file
    from repro.cli import main
    from repro.config import Scenario
    # every application runs for longer than one 0.125 s epoch
    tiny = Scenario.from_dict({
        "cluster": {"nnodes": 1},
        "experiment": {"baseline_duration": 1.0},
        "workload": {"params": {
            "ppm": {"grids": 1, "grid_nx": 24, "grid_ny": 48,
                    "steps": 6},
            "wavelet": {"image_px": 128, "levels": 2,
                        "footprint_kb": 1024, "startup_compute": 0.2,
                        "registration_factor": 1.0, "end_compute": 0.2},
            "nbody": {"particles": 512, "steps": 4}}}})
    scenario_file = tiny.save(tmp_path / "tiny.json")
    ck = tmp_path / "ck"
    rc = main(["all", "--parallel", "--scenario", str(scenario_file),
               "--checkpoint-every", "0.125", "--checkpoint-dir", str(ck),
               "--figures"])
    assert rc == 0
    assert sorted(ck.glob("*.ckpt")) == sorted(
        checkpoint_path(ck, tiny, name, None)
        for name in ("baseline", "ppm", "wavelet", "nbody", "combined"))


def test_cli_resume_reports_bad_checkpoint_cleanly(tmp_path, capsys):
    from repro.cli import main
    ck = tmp_path / "ck"
    bad = checkpoint_path(
        ck, ExperimentRunner(nnodes=2).scenario, "baseline", None)
    ck.mkdir()
    bad.write_bytes(b"\xff" * 64)
    rc = main(["baseline", "--nodes", "2", "--checkpoint-every", "6",
               "--checkpoint-dir", str(ck)])
    assert rc == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 2 and err[0].startswith("resuming baseline")
    assert err[1].startswith("checkpoint error: ")
