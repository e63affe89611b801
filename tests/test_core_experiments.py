"""Integration tests for the experiment runner (scaled-down cluster)."""

import numpy as np
import pytest

from repro.config import Scenario
from repro.core import EXPERIMENTS, ExperimentRunner
from repro.core.sizes import dominant_size, size_histogram


def baseline_window(seconds):
    """The default scenario with a ``seconds``-long baseline."""
    return Scenario().with_overrides(
        {"experiment.baseline_duration": seconds})


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner(nnodes=2, seed=1, scenario=baseline_window(500.0))


@pytest.fixture(scope="module")
def baseline(runner):
    return runner.run("baseline")


@pytest.fixture(scope="module")
def combined(runner):
    return runner.run("combined")


def test_experiment_names_complete():
    assert EXPERIMENTS == ("baseline", "ppm", "wavelet", "nbody", "combined")


def test_unknown_experiment_rejected(runner):
    with pytest.raises(ValueError):
        runner.run("fortran")


def test_baseline_pure_writes_at_paper_rate(baseline):
    m = baseline.metrics
    assert m.write_pct >= 95
    assert 0.5 < m.requests_per_second < 1.5      # paper: 0.9/s
    assert dominant_size(baseline.trace) == 1.0


def test_baseline_trace_cut_to_duration(baseline):
    assert baseline.trace.duration <= baseline.duration
    assert baseline.trace.time.min() >= 0.0


def test_single_app_result_has_stats(runner):
    result = runner.run("ppm")
    assert result.name == "ppm"
    assert len(result.app_stats["ppm"]) == 2      # one per node
    for stats in result.app_stats["ppm"]:
        assert stats.duration > 100


def test_combined_runs_all_three(combined):
    assert set(combined.app_stats) == {"ppm", "wavelet", "nbody"}
    assert combined.nnodes == 2


def test_combined_duration_near_700s(combined):
    # paper: ~700 s for the multiprogrammed run
    assert 500 < combined.duration < 1100


def test_combined_has_32kb_requests(combined):
    # the scaled I/O buffering under multiprogramming
    hist = size_histogram(combined.trace)
    assert max(hist) == 32.0


def test_combined_busier_than_any_single(runner, combined):
    single = runner.run("wavelet")
    assert combined.metrics.requests_per_node > \
        single.metrics.requests_per_node


def test_both_nodes_traced(combined):
    assert set(combined.trace.nodes()) == {0, 1}


def test_runner_reproducible():
    a = ExperimentRunner(nnodes=1, seed=9,
                         scenario=baseline_window(200)).run("baseline")
    b = ExperimentRunner(nnodes=1, seed=9,
                         scenario=baseline_window(200)).run("baseline")
    assert len(a.trace) == len(b.trace)
    assert np.allclose(a.trace.time, b.trace.time)
    assert np.array_equal(a.trace.sector, b.trace.sector)


def test_hard_limit_enforced():
    runner = ExperimentRunner(nnodes=1, seed=1, scenario=Scenario()
                              .with_overrides({"experiment.hard_limit": 5.0}))
    with pytest.raises(RuntimeError, match="hard limit"):
        runner.run("ppm")


def test_run_rejects_duration_for_app_experiments(runner):
    for name in ("ppm", "wavelet", "nbody", "combined", "serial"):
        with pytest.raises(ValueError, match="duration"):
            runner.run(name, duration=100.0)


def test_run_baseline_duration_keyword():
    runner = ExperimentRunner(nnodes=1, seed=3,
                              scenario=baseline_window(500.0))
    result = runner.run("baseline", duration=60.0)
    assert result.duration == 60.0
    assert result.trace.duration <= 60.0


@pytest.mark.parametrize("duration", [0, 0.0, -5.0, float("nan"),
                                      float("inf")])
def test_run_rejects_non_positive_duration(duration):
    # a zero window must not fall back to baseline_duration; nan used
    # to crash inside the epoch loop, inf to run until the log zone
    # filled
    runner = ExperimentRunner(nnodes=1, seed=3,
                              scenario=baseline_window(500.0))
    with pytest.raises(ValueError, match="positive"):
        runner.run("baseline", duration=duration)


def test_run_all_parallel_matches_serial():
    import numpy as np
    serial = ExperimentRunner(nnodes=1, seed=6,
                              scenario=baseline_window(300.0)).run_all()
    parallel = ExperimentRunner(nnodes=1, seed=6,
                                scenario=baseline_window(300.0)).run_all(
        parallel=True, max_workers=3)
    assert set(parallel) == set(serial)
    for name in serial:
        a, b = serial[name], parallel[name]
        assert len(a.trace) == len(b.trace), name
        assert np.array_equal(a.trace.sector, b.trace.sector), name
        assert a.metrics.read_pct == b.metrics.read_pct, name
