"""Analysis engine performance: bounded memory, fan-out, cache hits.

Run with ``PYTHONPATH=src python -m pytest benchmarks/test_analysis_perf.py``.
The acceptance bar from the engine redesign: analysing a 1M-record
catalog must not materialise whole traces (peak allocation bounded by
the chunk size, not the run size), the inter-arrival merge must fold a
window per loaded chunk rather than a Python step per merge block,
multi-process fan-out must beat serial wall-clock on a multi-run
catalog, and re-analysis of an unchanged run must be a pure cache hit.
"""

import os
import tracemalloc

import numpy as np
import pytest

from repro.analysis import AnalysisEngine
from repro.core.experiments import ExperimentResult
from repro.core.trace import TraceDataset
from repro.driver import TRACE_DTYPE
from repro.obs import MetricsRegistry
from repro.store import RunCatalog, TraceReader
from tests.merge_oracle import reference_merged_time_blocks

#: total records across the catalog — the "1M-record" acceptance bar
N = 1_000_000
#: the fan-out comparison's own, larger catalog: at 1M records a
#: 2-CPU host spends as long starting workers as it saves
N_FANOUT = 4_000_000
RUNS = 4
NODES = 4
CHUNK = 8_192
#: worker processes for the fan-out comparison (no more than the host
#: has CPUs, so oversubscription cannot eat the speedup)
WORKERS = min(4, os.cpu_count() or 1)


def synth_run(name, n, seed):
    rng = np.random.default_rng(seed)
    arr = np.empty(n, dtype=TRACE_DTYPE)
    arr["time"] = np.sort(rng.exponential(1e-3, n).cumsum())
    arr["sector"] = rng.integers(0, 1_024_128, n)
    arr["write"] = rng.random(n) < 0.8
    arr["pending"] = rng.integers(0, 12, n)
    arr["size_kb"] = rng.choice([0.5, 1.0, 4.0, 32.0], n)
    arr["node"] = rng.integers(0, NODES, n)
    duration = float(arr["time"][-1])
    return ExperimentResult(name=name, trace=TraceDataset(arr),
                            duration=duration, nnodes=NODES)


def synth_catalog(root, n):
    catalog = RunCatalog(root)
    for i in range(RUNS):
        catalog.save(synth_run(f"run{i}", n // RUNS, seed=i),
                     chunk_records=CHUNK)
    return catalog


@pytest.fixture(scope="module")
def catalog(tmp_path_factory):
    return synth_catalog(tmp_path_factory.mktemp("analysis_perf"), N)


def test_streaming_memory_bounded(catalog):
    """Peak engine allocation must be far below one materialised run."""
    engine = AnalysisEngine(catalog, cache=False)
    tracemalloc.start()
    tracemalloc.reset_peak()
    out = engine.analyze("run0")
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    run_bytes = (N // RUNS) * TRACE_DTYPE.itemsize
    print(f"\npeak {peak / 1e6:.1f} MB vs {run_bytes / 1e6:.1f} MB "
          f"materialised")
    assert out["metrics"].total_requests == N // RUNS
    # chunk-streaming keeps peak allocation to a fraction of the trace
    assert peak < run_bytes / 2


def test_merge_takes_a_window_per_chunk_not_a_step_per_block(catalog):
    """Deterministic counts of the ordered fold's merge work."""
    registry = MetricsRegistry()
    AnalysisEngine(catalog, cache=False, obs=registry).analyze(
        "run0", ["arrival"])
    count = registry.counter
    paths = sorted(catalog.trace_paths("run0").values())
    readers = [TraceReader(p) for p in paths]
    try:
        oracle_blocks = sum(1 for _ in reference_merged_time_blocks(readers))
    finally:
        for reader in readers:
            reader.close()
    windows = count("analysis.merge_windows").value
    print(f"\nmerge: {windows:.0f} windows, {oracle_blocks} blocks")
    assert windows <= count("analysis.chunks_scanned").value + len(paths)
    assert count("analysis.merge_blocks").value == oracle_blocks


def test_analyze_serial_wallclock(benchmark, catalog):
    engine = AnalysisEngine(catalog, workers=1, cache=False)
    out = benchmark(lambda: engine.analyze_all(pipelines=["metrics"]))
    assert sum(r["metrics"].total_requests for r in out.values()) == N


@pytest.mark.skipif(WORKERS < 2, reason="parallel speedup needs >= 2 CPUs")
def test_parallel_beats_serial(tmp_path_factory):
    """Fan-out over a multi-run catalog must beat the serial wall-clock."""
    from time import perf_counter
    catalog = synth_catalog(tmp_path_factory.mktemp("analysis_fanout"),
                            N_FANOUT)
    serial = AnalysisEngine(catalog, workers=1, cache=False)
    parallel = AnalysisEngine(catalog, workers=WORKERS, cache=False)
    # warm the page cache so the comparison is about compute fan-out
    serial.analyze_all(pipelines=["metrics"])

    def timed(engine):
        t0 = perf_counter()
        out = engine.analyze_all(pipelines=["metrics", "sizes", "spatial"])
        return perf_counter() - t0, out

    # best of three interleaved passes each: a shared 2-CPU host can
    # stall one pass of either engine (the first parallel pass in a
    # fresh process often runs ~1.8x its steady time)
    t_serial = t_parallel = float("inf")
    for _ in range(3):
        dt, a = timed(serial)
        t_serial = min(t_serial, dt)
        dt, b = timed(parallel)
        t_parallel = min(t_parallel, dt)
    print(f"\nserial {t_serial:.2f}s vs {WORKERS} workers "
          f"{t_parallel:.2f}s ({t_serial / t_parallel:.2f}x)")
    for run_id in a:
        assert a[run_id]["metrics"] == b[run_id]["metrics"]
        assert a[run_id]["sizes"].histogram == b[run_id]["sizes"].histogram
    assert t_parallel < t_serial


def test_cache_hit_is_cheap(benchmark, catalog, tmp_path_factory):
    """Re-analysis of an unchanged catalog must not decompress chunks."""
    registry = MetricsRegistry()
    engine = AnalysisEngine(catalog, obs=registry)
    engine.analyze_all()                      # populate the caches
    before = registry.counter("analysis.chunks_scanned").value

    out = benchmark(lambda: engine.analyze_all())
    assert registry.counter("analysis.chunks_scanned").value == before
    assert registry.counter("analysis.cache_hits").value > 0
    assert sum(r["metrics"].total_requests for r in out.values()) == N


def test_pushdown_narrows_scan(catalog):
    """A narrow time window must skip the majority of chunks."""
    registry = MetricsRegistry()
    engine = AnalysisEngine(catalog, cache=False, obs=registry)
    manifest = catalog.manifest("run0")
    cut = manifest["duration"] * 0.05
    engine.analyze("run0", ["sizes"], t1=cut)
    scanned = registry.counter("analysis.chunks_scanned").value
    skipped = registry.counter("analysis.chunks_skipped").value
    print(f"\npushdown: scanned {scanned:.0f}, skipped {skipped:.0f}")
    assert skipped > scanned * 3
