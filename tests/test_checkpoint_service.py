"""Checkpointing at the service layers: sweeps and the CLI.

A preempted sweep must restart where it stopped (done markers skip
finished points, live checkpoints resume interrupted ones), without
re-running or re-storing the points it already finished.  A run only
ever picks up the files of the very same run: another seed, duration or
experiment runs afresh.
"""

import numpy as np

from repro.config import Scenario, parse_axis_spec, run_sweep
from repro.config.sweep import checkpoint_path, expand_grid
from repro.core.experiments import ExperimentRunner
from repro.store import RunCatalog

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


def kill_and_restart_sink_sweep(tmp_path):
    """A 2-point checkpointed sweep with a sink, killed after its first
    point: that point keeps its done marker, the other has none.  Runs
    it, drops the second marker and runs it again; returns both results,
    the catalog's run ids before and after the restart, the re-run
    point and the sink."""
    ck, sink = tmp_path / "ck", tmp_path / "runs"

    def run():
        return run_sweep(Scenario.from_dict(BASE),
                         [parse_axis_spec(s) for s in GRID],
                         duration=20.0, parallel=False, sink=str(sink),
                         checkpoint_every=6.0, checkpoint_dir=str(ck))

    first = run()
    before = set(RunCatalog(sink).runs())
    _, lost = expand_grid(Scenario.from_dict(BASE),
                          [parse_axis_spec(s) for s in GRID])
    checkpoint_path(ck, lost.scenario, "baseline", 20.0) \
        .with_suffix(".done.json").unlink()
    second = run()
    after = set(RunCatalog(sink).runs())
    return first, second, before, after, lost, sink


def test_sweep_with_a_sink_reruns_only_the_point_without_a_marker(
        tmp_path):
    # the restarted sweep recalls the finished point (same run id, no
    # new run) and runs the other once
    first, second, before, after, _, _ = kill_and_restart_sink_sweep(
        tmp_path)
    assert len(before) == 2
    assert len(after) == 3
    [new_run] = after - before
    assert second[0].run_id == first[0].run_id
    assert second[1].run_id == new_run


def test_sweep_point_rerun_with_a_sink_stores_what_the_runner_stores(
        tmp_path):
    # the re-run point stores exactly what the runner stores for that
    # scenario at the same checkpoint cadence
    _, second, before, after, lost, sink = kill_and_restart_sink_sweep(
        tmp_path)
    [new_run] = after - before
    ref = RunCatalog(tmp_path / "ref")
    reference = ExperimentRunner(scenario=lost.scenario, sink=ref).run(
        "baseline", duration=20.0, checkpoint_every=6.0,
        checkpoint=tmp_path / "ref.ckpt")
    [ref_run] = ref.runs()
    assert np.array_equal(RunCatalog(sink).load_dataset(new_run).records,
                          ref.load_dataset(ref_run).records)
    assert second[1].metrics == reference.metrics.to_dict()


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
