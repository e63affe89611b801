"""Extension — serial batch vs. combined multiprogramming.

Same three applications, same nodes; the only variable is concurrency.
The comparison isolates what multiprogramming itself does to the I/O
workload:

* the 32 KB request class exists only under concurrency (the scaled I/O
  buffering needs more than one resident application);
* cross-application memory pressure amplifies paging;
* wall time: the serial batch trades longer total runtime for a calmer
  I/O profile.
"""

from repro.config import Scenario
from repro.core import ExperimentRunner
from repro.core.sizes import size_histogram

from conftest import BENCH_NODES, BENCH_SEED, run_experiment


def run_serial():
    runner = ExperimentRunner(nnodes=BENCH_NODES, seed=BENCH_SEED,
                              scenario=Scenario().with_overrides(
                                  {"experiment.hard_limit": 8000.0}))
    return runner.run("serial")


def test_serial_vs_combined(benchmark):
    serial = benchmark.pedantic(run_serial, rounds=1, iterations=1)
    combined = run_experiment("combined")

    serial_hist = size_histogram(serial.trace)
    combined_hist = size_histogram(combined.trace)
    print()
    print(f"  serial  : {serial.metrics.duration:.0f} s, "
          f"max size {max(serial_hist):g} KB, "
          f"{serial.metrics.requests_per_node:.0f} req/disk")
    print(f"  combined: {combined.metrics.duration:.0f} s, "
          f"max size {max(combined_hist):g} KB, "
          f"{combined.metrics.requests_per_node:.0f} req/disk")

    # 32 KB requests need multiprogramming.
    assert max(serial_hist) <= 16.0
    assert max(combined_hist) == 32.0

    # Concurrency amplifies paging: more 4 KB traffic when sharing memory.
    assert combined_hist.get(4.0, 0) > serial_hist.get(4.0, 0)

    # The serial batch takes longer wall-clock (no overlap of compute
    # with other apps' I/O), within the same order of magnitude.
    assert serial.metrics.duration > combined.metrics.duration * 0.8
