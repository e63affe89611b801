"""Figure 1 — I/O requests (baseline): sector vs. time of the quiescent
system.

Paper shape: ~0.9 requests/s, essentially all writes, 1 KB dominant,
accesses concentrated on a few sectors (horizontal lines) at low AND high
sector numbers (logging + instrumentation output).
"""

import numpy as np

from repro.config import Scenario
from repro.core import ExperimentRunner, make_figure
from repro.core.sizes import dominant_size

from conftest import BENCH_NODES, BENCH_SEED


def run_baseline():
    runner = ExperimentRunner(nnodes=BENCH_NODES, seed=BENCH_SEED,
                              scenario=Scenario().with_overrides(
                                  {"experiment.baseline_duration": 2000.0}))
    return runner.run("baseline")


def test_figure1_baseline(benchmark):
    result = benchmark.pedantic(run_baseline, rounds=1, iterations=1)
    fig = make_figure(1, result)
    print()
    print(fig.render())
    m = result.metrics

    # Table-1 row: 0% reads / 100% writes at ~0.9 req/s, 1782 total.
    assert m.read_pct <= 3
    assert 0.5 < m.requests_per_second < 1.5
    assert 1000 < m.requests_per_node < 3000

    # Dominant request size is the 1 KB block.
    assert dominant_size(result.trace) == 1.0

    # Horizontal lines: few distinct sectors, heavily revisited.
    from repro.core.locality import reuse_fraction
    distinct = len(np.unique(result.trace.sector))
    assert distinct < 0.3 * len(result.trace)
    assert reuse_fraction(result.trace) > 0.5

    # Activity at both low and high sector numbers.
    sectors = result.trace.sector
    assert (sectors < 300_000).any()
    assert (sectors >= 1_000_000).any()
