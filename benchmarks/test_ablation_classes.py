"""Ablation — attributing each request-size class to its mechanism.

DESIGN.md E10: the paper *infers* that 1 KB requests come from block I/O,
4 KB from paging, and ~16 KB from cache-bounded read-ahead.  Because our
substrate implements those mechanisms, we can switch each one off — a
one-line scenario override — and watch its class disappear: a causal
confirmation of the paper's attribution.
"""


from repro.core.sizes import size_histogram

from conftest import bench_scenario, run_experiment, run_scenario


def test_readahead_off_removes_cache_class(benchmark):
    """Without read-ahead, the >= 8 KB class disappears from wavelet."""
    scenario = bench_scenario(node__max_readahead_kb=1)
    result = benchmark.pedantic(run_scenario, args=(scenario, "wavelet"),
                                rounds=1, iterations=1)
    hist = size_histogram(result.trace)
    print()
    print("sizes without read-ahead:", hist)
    # Requests no longer grow past the application's own 8 KB syscall
    # chunks: the 16 KB cache-bounded class is gone.
    assert max(hist) <= 8.0
    # while the default configuration reaches the 16 KB bound
    default_hist = size_histogram(run_experiment("wavelet").trace)
    assert max(default_hist) == 16.0


def test_ample_memory_removes_page_class(benchmark):
    """With 64 MB nodes nothing swaps: 4 KB shrinks to demand-loads only."""
    scenario = bench_scenario(node__vm__ram_mb=64)
    result = benchmark.pedantic(run_scenario, args=(scenario, "wavelet"),
                                rounds=1, iterations=1)
    hist = size_histogram(result.trace)
    print()
    print("sizes with 64 MB RAM:", hist)
    default_hist = size_histogram(run_experiment("wavelet").trace)
    # paging requests collapse by an order of magnitude
    assert hist.get(4.0, 0) < 0.2 * default_hist.get(4.0, 0)
    # and the swap region sees no traffic at all
    layout = scenario.node.layout
    swap = result.trace.sector_range(layout.swap_start,
                                     layout.swap_start + layout.swap_sectors)
    assert len(swap) == 0


def test_drive_cache_accelerates_replay(benchmark):
    """On-drive segment cache ablation by trace replay.

    Not a paper figure — a design-tuning extension: replaying the
    combined workload with and without the drive's look-ahead buffer
    quantifies what the era's on-disk caches bought.
    """
    from repro.disk import DriveCache
    from repro.synth.replay import replay_trace

    combined = run_experiment("combined")
    trace = combined.trace.node(0)

    def both():
        without = replay_trace(trace, scheduler="clook")
        with_cache = replay_trace(trace, scheduler="clook",
                                  drive_cache=DriveCache())
        return without, with_cache

    without, with_cache = benchmark.pedantic(both, rounds=1, iterations=1)
    print()
    print(f"  no cache : mean {without.mean_latency * 1e3:.2f} ms")
    print(f"  128KB cache: mean {with_cache.mean_latency * 1e3:.2f} ms")
    assert with_cache.mean_latency < without.mean_latency


def test_writeback_clustering_creates_small_multiples(benchmark):
    """Cluster limit 1 removes the 2 KB 'small multiples of 1 KB'."""
    scenario = bench_scenario(nnodes=1, node__writeback_cluster_blocks=1)

    def run_baseline(scenario):
        return run_scenario(scenario, "baseline", duration=600.0)

    result = benchmark.pedantic(run_baseline, args=(scenario,),
                                rounds=1, iterations=1)
    hist = size_histogram(result.trace)
    print()
    print("baseline sizes without clustering:", hist)
    assert hist.get(2.0, 0) == 0
    assert hist.get(1.0, 0) > 0
