"""The analysis engine against the in-memory analysis layer.

The acceptance bar from the redesign: streaming pipelines must
reproduce the in-memory ``compute_metrics`` / ``size_histogram``
results *exactly* over all five experiments, caching must be a pure
hit on unchanged runs, and predicate pushdown must provably skip
chunks.
"""

import json
from collections import Counter

import numpy as np
import pytest

from repro.analysis import (
    AnalysisEngine,
    ArrivalPipeline,
    BinnedCounts,
    Count,
    HotSectorsPipeline,
    make_pipelines,
    merged_time_blocks,
    scan_file,
)
from repro.analysis.engine import _fold_run
from repro.analysis.pipelines import _TimeCount
from repro.config import Scenario
from repro.core.experiments import ExperimentResult, ExperimentRunner
from repro.core.locality import spatial_locality
from repro.core.metrics import compute_metrics
from repro.core.patterns import arrival_structure
from repro.core.sizes import class_fractions, size_histogram
from repro.core.trace import TraceDataset
from repro.driver import TRACE_DTYPE
from repro.obs import MetricsRegistry
from repro.store import RunCatalog, StoreFormatError, TraceReader
from tests.merge_oracle import reference_merged_time_blocks

#: small chunks so every run spans several chunks per node file
CHUNK = 64


@pytest.fixture(scope="module")
def results():
    runner = ExperimentRunner(nnodes=2, seed=3, scenario=Scenario()
                              .with_overrides({
                                  "experiment.baseline_duration": 200.0}))
    return runner.run_all()


@pytest.fixture(scope="module")
def catalog(results, tmp_path_factory):
    catalog = RunCatalog(tmp_path_factory.mktemp("runs"))
    for result in results.values():
        catalog.save(result, chunk_records=CHUNK)
    return catalog


def _run_paths(catalog, run_id):
    return [path for _, path in sorted(catalog.trace_paths(run_id).items())]


def _window(results, name):
    span = float(results[name].trace.time.max())
    return {"t0": 0.2 * span, "t1": 0.7 * span}


def test_streaming_equals_in_memory_all_five(results, catalog):
    """The tentpole equality: every experiment, bit for bit."""
    engine = AnalysisEngine(catalog, cache=False)
    for name, result in results.items():
        out = engine.analyze(name)
        expected = compute_metrics(result.trace, label=name,
                                   duration=result.duration,
                                   nnodes=result.nnodes)
        assert out["metrics"] == expected, name

        assert out["sizes"].histogram == size_histogram(result.trace), name
        assert out["sizes"].fractions == class_fractions(result.trace), name

        spatial = spatial_locality(result.trace)
        assert np.array_equal(out["spatial"].band_fraction,
                              spatial.band_fraction), name
        assert out["spatial"].gini == spatial.gini, name
        assert out["spatial"].top_20pct_share == \
            spatial.top_20pct_share, name

        arrival = arrival_structure(result.trace)
        assert out["arrival"].total == arrival.total, name
        assert out["arrival"].mean_gap == \
            pytest.approx(arrival.mean_gap, rel=1e-12), name
        assert out["arrival"].cv_gap == \
            pytest.approx(arrival.cv_gap, rel=1e-12), name
        assert out["arrival"].idc == \
            pytest.approx(arrival.idc, rel=1e-12), name


def test_parallel_engine_matches_serial(results, catalog):
    """analyze_all with workers=2 (the runs folded in two processes)
    gives the serial results, on every run, with and without a window."""
    serial = AnalysisEngine(catalog, workers=1, cache=False)
    parallel = AnalysisEngine(catalog, workers=2, cache=False)
    pipes = make_pipelines(None)
    span = min(float(result.trace.time.max())
               for result in results.values())
    for window in ({}, {"t0": 0.2 * span, "t1": 0.7 * span}):
        a = serial.analyze_all(**window)
        b = parallel.analyze_all(**window)
        assert set(a) == set(b) == set(results)
        for name in results:
            for pipe in pipes:
                if a[name][pipe.name] is None:
                    assert b[name][pipe.name] is None, (name, pipe.name)
                    continue
                assert pipe.to_json(a[name][pipe.name]) == \
                    pipe.to_json(b[name][pipe.name]), (name, pipe.name)


def test_predicate_pushdown_skips_chunks(results, catalog):
    registry = MetricsRegistry()
    engine = AnalysisEngine(catalog, cache=False, obs=registry)
    result = results["combined"]
    cut = float(result.trace.time.max()) * 0.25
    out = engine.analyze("combined", ["sizes"], t1=cut)
    window = result.trace.between(0.0, cut)
    assert out["sizes"].histogram == size_histogram(window)
    skipped = registry.counter("analysis.chunks_skipped").value
    scanned = registry.counter("analysis.chunks_scanned").value
    assert skipped > 0          # the index ruled out the later chunks
    assert scanned > 0


def test_cache_hit_and_refresh(catalog):
    registry = MetricsRegistry()
    engine = AnalysisEngine(catalog, obs=registry)
    first = engine.analyze("baseline")
    assert registry.counter("analysis.cache_misses").value == 4
    again = engine.analyze("baseline")
    assert registry.counter("analysis.cache_hits").value == 4
    assert again["metrics"] == first["metrics"]
    assert again["sizes"].histogram == first["sizes"].histogram
    assert np.array_equal(again["spatial"].band_fraction,
                          first["spatial"].band_fraction)
    assert again["arrival"] == first["arrival"]
    # cache file sits next to the manifest and is valid JSON
    cache_path = catalog.root / "baseline" / "analysis.json"
    entries = json.loads(cache_path.read_text())["entries"]
    assert "metrics@v1" in entries
    # refresh recomputes even with a valid cache
    engine.analyze("baseline", refresh=True)
    assert registry.counter("analysis.cache_misses").value == 8


def test_cache_keyed_on_scenario(tmp_path):
    """Same trace bytes under a different declared stack: cache miss;
    same scenario (modulo name/seed labels): cache hit."""
    import shutil

    catalog = RunCatalog(tmp_path / "runs")
    runner = ExperimentRunner(nnodes=1, seed=2, sink=catalog)
    runner.run("baseline", duration=60.0)
    registry = MetricsRegistry()
    engine = AnalysisEngine(catalog, obs=registry)
    engine.analyze("baseline", ["metrics"])
    engine.analyze("baseline", ["metrics"])
    assert registry.counter("analysis.cache_hits").value == 1

    # clone the run, editing only the manifest's scenario block (the
    # trace files — and thus the chunk-index signature — are identical)
    src = catalog.root / "baseline"
    clone = catalog.root / "relabeled"
    shutil.copytree(src, clone)
    manifest_path = clone / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    scenario = Scenario.from_dict(manifest["scenario"])
    manifest["scenario"] = scenario.with_overrides(
        {"name": "other-label", "seed": 9}).to_dict()
    manifest_path.write_text(json.dumps(manifest))
    engine.analyze("relabeled", ["metrics"])
    assert registry.counter("analysis.cache_hits").value == 2

    manifest["scenario"] = scenario.with_override(
        "node.disk.scheduler.kind", "fifo").to_dict()
    manifest_path.write_text(json.dumps(manifest))
    engine.analyze("relabeled", ["metrics"])
    assert registry.counter("analysis.cache_misses").value == 2


def test_cache_invalidated_when_file_changes(results, tmp_path):
    catalog = RunCatalog(tmp_path)
    run_id = catalog.save(results["baseline"], chunk_records=CHUNK).name
    registry = MetricsRegistry()
    engine = AnalysisEngine(catalog, obs=registry)
    engine.analyze(run_id, ["metrics"])
    # rewrite one node file with an extra record: signature must change
    path = sorted(catalog.trace_paths(run_id).items())[0][1]
    with TraceReader(path) as reader:
        records = reader.read()
    extra = np.concatenate([records, records[-1:]])
    TraceDataset(extra).save(path)
    engine.analyze(run_id, ["metrics"])
    assert registry.counter("analysis.cache_misses").value == 2
    assert registry.counter("analysis.cache_hits").value == 0


def test_analyze_all_covers_catalog(results, catalog):
    engine = AnalysisEngine(catalog)
    out = engine.analyze_all(pipelines=["metrics"])
    assert set(out) == set(results)
    for name, result in results.items():
        assert out[name]["metrics"].total_requests == len(result.trace)


def test_streamed_capture_window_matches_memory(tmp_path):
    """Engine over a runner-stored capture (sink=) agrees with the
    windowed in-memory trace."""
    runner = ExperimentRunner(nnodes=2, seed=5, sink=tmp_path)
    result = runner.run("baseline", duration=80.0)
    catalog = RunCatalog(tmp_path)
    engine = AnalysisEngine(catalog, cache=False)
    out = engine.analyze("baseline", ["sizes"], t0=0.0, t1=80.0)
    assert out["sizes"].histogram == size_histogram(result.trace)


def test_hotspots_pipeline(results, catalog):
    engine = AnalysisEngine(catalog, cache=False)
    out = engine.analyze("combined", [HotSectorsPipeline(k=3)])
    spots = out["hotspots"].spots
    assert 1 <= len(spots) <= 3
    # hottest sector first, counts descending
    counts = [count for _, count, _ in spots]
    assert counts == sorted(counts, reverse=True)
    hist = {}
    for sector in results["combined"].trace.sector:
        hist[int(sector)] = hist.get(int(sector), 0) + 1
    top_sector, top_count, _ = spots[0]
    assert hist[top_sector] == top_count == max(hist.values())


def test_empty_run_analyzes_to_none(tmp_path):
    catalog = RunCatalog(tmp_path)
    empty = ExperimentResult(name="void", trace=TraceDataset.empty(),
                             duration=10.0, nnodes=1)
    run_id = catalog.save(empty).name
    out = AnalysisEngine(catalog).analyze(run_id)
    assert out["metrics"].total_requests == 0
    assert out["spatial"] is None
    assert out["arrival"] is None
    assert out["sizes"].histogram == {}


def test_merged_time_blocks_globally_sorted(results, catalog):
    paths = sorted(catalog.trace_paths("combined").values())
    readers = [TraceReader(p) for p in paths]
    try:
        blocks = list(merged_time_blocks(readers))
        merged = np.concatenate(blocks)
    finally:
        for reader in readers:
            reader.close()
    expected = np.sort(results["combined"].trace.time)
    assert np.array_equal(merged, expected)


def _reference_arrival(catalog, run_id, **predicates):
    """The per-block fold: the oracle merge, every block into every
    accumulator of the arrival pipeline."""
    pipe = ArrivalPipeline()
    paths = _run_paths(catalog, run_id)
    ctx = AnalysisEngine(catalog)._context(catalog.manifest(run_id),
                                           [scan_file(p) for p in paths])
    accs = pipe.accumulators(ctx)
    readers = [TraceReader(p) for p in paths]
    try:
        for block in reference_merged_time_blocks(readers, **predicates):
            for acc in accs.values():
                acc.update_values(block)
    finally:
        for reader in readers:
            reader.close()
    return pipe.finalize(accs, ctx)


@pytest.mark.parametrize("windowed", [False, True])
def test_arrival_matches_per_block_reference_fold(results, catalog,
                                                  windowed):
    engine = AnalysisEngine(catalog, cache=False)
    pipe = ArrivalPipeline()
    for name in results:
        window = _window(results, name) if windowed else {}
        got = engine.analyze(name, ["arrival"], **window)["arrival"]
        want = _reference_arrival(catalog, name, **window)
        assert (got is None) == (want is None), name
        if want is None:
            continue
        for key, value in pipe.to_json(want).items():
            assert float(pipe.to_json(got)[key]).hex() == \
                float(value).hex(), (name, key)


def test_order_free_accumulators_fold_once_per_chunk(results, catalog,
                                                     monkeypatch):
    """Only GapStats rides the merge; the order-free accumulators fold
    each chunk once, and the run's chunks are read once."""
    calls = Counter()
    for cls, methods in ((BinnedCounts, ("update", "update_values")),
                         (_TimeCount, ("update", "update_values")),
                         (Count, ("update",))):
        for method in methods:
            def counting(self, data, _fold=getattr(cls, method),
                         _key=(cls.__name__, method)):
                calls[_key] += 1
                return _fold(self, data)
            monkeypatch.setattr(cls, method, counting)
    paths = _run_paths(catalog, "combined")
    chunk_count = sum(scan_file(p).chunk_count for p in paths)
    for pipelines in (["arrival"], None):
        for window in ({}, {"t1": _window(results, "combined")["t1"]}):
            calls.clear()
            registry = MetricsRegistry()
            engine = AnalysisEngine(catalog, cache=False, obs=registry)
            engine.analyze("combined", pipelines, **window)
            scanned = registry.counter("analysis.chunks_scanned").value
            skipped = registry.counter("analysis.chunks_skipped").value
            assert scanned + skipped == chunk_count
            batches = 0
            for path in paths:
                with TraceReader(path) as reader:
                    batches += sum(1 for _ in reader.iter_arrays(**window))
            assert batches <= scanned
            # BinnedCounts.update bins through its own update_values
            want = {("BinnedCounts", "update"): batches,
                    ("BinnedCounts", "update_values"): batches,
                    ("_TimeCount", "update"): batches}
            if pipelines is None:       # the metrics pipeline's Count
                want[("Count", "update")] = batches
            assert calls == want
            if not window:
                assert batches == scanned == chunk_count
            else:
                assert skipped > 0


def test_fold_closes_every_reader_it_opened(tmp_path, monkeypatch):
    """A node file that fails to open must not leak the ones before it."""
    rng = np.random.default_rng(8)
    n, nodes = 400, 5
    arr = np.zeros(n, dtype=TRACE_DTYPE)
    arr["time"] = np.sort(rng.exponential(0.1, n).cumsum())
    arr["sector"] = rng.integers(0, 100_000, n)
    arr["size_kb"] = 4.0
    arr["node"] = np.arange(n) % nodes
    catalog = RunCatalog(tmp_path)
    run_id = catalog.save(ExperimentResult(
        name="five", trace=TraceDataset(arr), duration=50.0,
        nnodes=nodes), chunk_records=CHUNK).name
    paths = _run_paths(catalog, run_id)
    ctx = AnalysisEngine(catalog)._context(catalog.manifest(run_id),
                                           [scan_file(p) for p in paths])
    with open(paths[3], "r+b") as fh:       # corrupt node 3's header
        fh.write(b"JUNK")

    opened, closed = [], []
    init, close = TraceReader.__init__, TraceReader.close

    def recording_init(self, path):
        init(self, path)
        opened.append(self)

    def recording_close(self):
        closed.append(self)
        close(self)

    monkeypatch.setattr(TraceReader, "__init__", recording_init)
    monkeypatch.setattr(TraceReader, "close", recording_close)
    for pipelines in (None, ["metrics"]):
        opened.clear()
        closed.clear()
        with pytest.raises(StoreFormatError):
            _fold_run(([str(p) for p in paths], make_pipelines(pipelines),
                       {}, ctx))
        assert len(opened) == 3
        assert all(reader in closed for reader in opened)
        assert all(reader._fh.closed for reader in opened)
    opened.clear()
    with pytest.raises(StoreFormatError):
        AnalysisEngine(catalog, cache=False).analyze(run_id)
    assert all(reader._fh.closed for reader in opened)


def test_scan_file_signature_is_cheap_and_stable(catalog):
    path = sorted(catalog.trace_paths("baseline").values())[0]
    a = scan_file(path)
    b = scan_file(path)
    assert a == b
    assert a.records > 0 and a.chunk_count > 1


def test_unknown_pipeline_rejected():
    with pytest.raises(ValueError, match="unknown pipeline"):
        make_pipelines(["bogus"])
