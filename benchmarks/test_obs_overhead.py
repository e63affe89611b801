"""Observability-layer overhead: instrumented vs plain wavelet runs.

Mirrors the CI smoke step (``tools/obs_overhead.py``): the obs layer
must be close to free.  The assertion bound here is looser than the CI
threshold because pytest-run machines are noisier than a dedicated
paired comparison; the tool remains the authoritative gate.
"""

import sys
from pathlib import Path

from repro.core import ExperimentRunner
from repro.obs import flatten_snapshot

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
from obs_overhead import measure  # noqa: E402

from conftest import BENCH_NODES, BENCH_SEED  # noqa: E402


def test_obs_overhead_within_bound():
    result = measure(nnodes=BENCH_NODES, seed=BENCH_SEED)
    print(f"\nplain {result['plain_s'] * 1000:.1f} ms, "
          f"instrumented {result['instrumented_s'] * 1000:.1f} ms, "
          f"median ratio {result['ratio']:.3f}")
    # generous noise margin; tools/obs_overhead.py enforces 1.10 in CI
    assert result["ratio"] < 1.25


def test_instrumented_run_records_all_layers():
    """The snapshot covers simulator, disk, cache, and trace path."""
    runner = ExperimentRunner(nnodes=BENCH_NODES, seed=BENCH_SEED, obs=True)
    result = runner.run("wavelet")
    flat = flatten_snapshot(result.obs)
    prefixes = {name.split(".", 1)[0] for name in flat}
    assert {"sim", "disk", "cache", "driver", "trace", "run"} <= prefixes
    assert flat["sim.events_processed"] > 0
    assert flat["disk.service_seconds{hda0}.count"] > 0
    assert sum(v for k, v in flat.items()
               if k.startswith("cache.hits{")) > 0


def test_wall_time_per_sim_second_is_reported():
    runner = ExperimentRunner(nnodes=BENCH_NODES, seed=BENCH_SEED, obs=True)
    result = runner.run("nbody")
    flat = flatten_snapshot(result.obs)
    assert flat["run.wall_seconds"] > 0
    assert flat["run.sim_seconds"] > 0
    assert flat["run.sim_seconds_per_wall_second"] > 0
