"""Tests for the command-line driver."""

import pytest

from repro.cli import build_parser, main


def test_parser_accepts_experiments():
    parser = build_parser()
    args = parser.parse_args(["baseline", "--nodes", "2"])
    assert args.experiment == "baseline"
    assert args.nodes == 2


def test_parser_rejects_unknown_experiment():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["quake"])


def test_cli_baseline_with_figure(capsys):
    rc = main(["baseline", "--nodes", "1", "--duration", "120",
               "--figures", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Figure 1" in out


def test_cli_figure_needs_matching_experiment(capsys):
    rc = main(["baseline", "--nodes", "1", "--duration", "60",
               "--figures", "5"])
    assert rc == 2


def test_cli_unknown_figure(capsys):
    rc = main(["baseline", "--nodes", "1", "--duration", "60",
               "--figures", "11"])
    assert rc == 2


def test_cli_table_and_csv(tmp_path, capsys):
    rc = main(["ppm", "--nodes", "1", "--table",
               "--csv-dir", str(tmp_path), "--figures", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Table 1" in out
    assert (tmp_path / "figure2.csv").exists()
    assert (tmp_path / "trace_ppm.csv").exists()


def test_cli_sink_writes_run_catalog(tmp_path, capsys):
    root = tmp_path / "runs"
    rc = main(["baseline", "--nodes", "1", "--duration", "60",
               "--sink", str(root)])
    assert rc == 0
    assert (root / "baseline" / "manifest.json").exists()
    assert (root / "baseline" / "node_0000.rpt").exists()
    from repro.store import RunCatalog
    assert RunCatalog(root).runs() == ["baseline"]


def test_cli_parallel_all(tmp_path, capsys):
    rc = main(["all", "--nodes", "1", "--duration", "200", "--parallel",
               "--table", "--figures"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Table 1" in out
    for name in ("baseline", "ppm", "wavelet", "nbody", "combined"):
        assert name in out


def test_cli_sweep_rejects_non_finite_duration(capsys):
    rc = main(["sweep", "--on", "baseline", "--duration", "inf",
               "--grid", "scheduler=fifo"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "finite" in err and "Traceback" not in err


def test_cli_sweep_unknown_experiment_exits_2(capsys):
    rc = main(["sweep", "--on", "bogus", "--grid", "scheduler=fifo"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "unknown experiment 'bogus'" in err
    assert "Traceback" not in err


def test_cli_sweep_bad_axis_exits_2(capsys):
    rc = main(["sweep", "--grid", "not-an-axis"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("sweep failed:")
    assert "Traceback" not in err


def test_cli_sweep_obs_is_a_usage_error(capsys, monkeypatch):
    # a sweep records no observability, so --obs must not parse and
    # then do nothing: it is refused before any point runs
    import repro.config

    def never(*args, **kwargs):
        raise AssertionError("run_sweep called")

    monkeypatch.setattr(repro.config, "run_sweep", never)
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--obs", "--grid", "scheduler=fifo"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err == "--obs does not apply to the 'sweep' experiment\n"


def test_cli_sweep_worker_failure_is_one_line(capsys, monkeypatch):
    import repro.config

    def boom(*args, **kwargs):
        raise RuntimeError("worker exploded")

    monkeypatch.setattr(repro.config, "run_sweep", boom)
    rc = main(["sweep", "--on", "baseline", "--nodes", "1",
               "--grid", "scheduler=fifo"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "sweep failed: RuntimeError: worker exploded" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("flags,nnodes", [([], 4), (["--nodes", "2"], 2)])
def test_cli_sweep_base_scenario_has_the_cli_node_default(
        capsys, monkeypatch, flags, nnodes):
    # a sweep runs on as many nodes as any other command given the same
    # flags: --nodes when set, else the CLI's documented default
    import repro.config
    bases = []

    def record(base, axes, **kwargs):
        bases.append(base)
        return []

    monkeypatch.setattr(repro.config, "run_sweep", record)
    rc = main(["sweep", "--on", "baseline", "--grid", "scheduler=fifo",
               *flags])
    assert rc == 0
    [base] = bases
    assert base.cluster.nnodes == nnodes
