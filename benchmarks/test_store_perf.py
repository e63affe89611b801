"""Trace store performance: writer throughput, pushdown speedup, size.

Run with ``PYTHONPATH=src python -m pytest benchmarks/test_store_perf.py``.
The size comparison prints the bytes-per-record of every persistence
format the repo supports; the pushdown benchmark verifies the chunk
index actually pays for itself on narrow queries.
"""

from time import perf_counter

import numpy as np
import pytest

from repro.core.trace import TraceDataset
from repro.driver import TRACE_DTYPE
from repro.store import TraceReader, TraceWriter, write_trace

N = 400_000
CHUNK = 16_384


@pytest.fixture(scope="module")
def records():
    rng = np.random.default_rng(7)
    arr = np.empty(N, dtype=TRACE_DTYPE)
    arr["time"] = np.sort(rng.exponential(1e-3, N).cumsum())
    base = rng.integers(0, 900_000, N // 50)
    arr["sector"] = np.repeat(base, 50) + np.tile(np.arange(50) * 8, N // 50)
    arr["write"] = rng.random(N) < 0.8
    arr["pending"] = rng.integers(0, 12, N)
    arr["size_kb"] = rng.choice([0.5, 1.0, 4.0, 32.0], N)
    arr["node"] = rng.integers(0, 16, N)
    return arr


@pytest.fixture(scope="module")
def store_file(records, tmp_path_factory):
    path = tmp_path_factory.mktemp("perf") / "trace.rpt"
    write_trace(path, records, chunk_records=CHUNK)
    return path


def test_writer_throughput(benchmark, records, tmp_path):
    """Streaming write rate in records/s, timed here so the rate exists
    with pytest-benchmark's timing disabled too."""
    counter = iter(range(10_000))
    seconds = []

    def write_once():
        path = tmp_path / f"w{next(counter)}.rpt"
        t0 = perf_counter()
        with TraceWriter(path, chunk_records=CHUNK) as writer:
            writer.append_array(records)
        seconds.append(perf_counter() - t0)
        return writer.records_written

    written = benchmark(write_once)
    assert written == N
    rate = N * len(seconds) / sum(seconds)
    print(f"\nwriter throughput: {rate:,.0f} records/s")


def test_full_scan_read(benchmark, store_file, records):
    def scan():
        with TraceReader(store_file) as reader:
            return reader.read()

    out = benchmark(scan)
    assert np.array_equal(out, records)


def test_pushdown_speedup_vs_full_scan(benchmark, store_file, records):
    """A 10% time window must beat the full scan by skipping chunks."""
    t = records["time"]
    t0, t1 = float(t[int(N * 0.45)]), float(t[int(N * 0.55)])

    def windowed():
        with TraceReader(store_file) as reader:
            out = reader.read(t0=t0, t1=t1)
            return out, reader.chunks_read, reader.chunk_count

    out, touched, total = benchmark(windowed)
    assert np.array_equal(out, records[(t >= t0) & (t < t1)])
    # the index must have skipped the overwhelming majority of chunks
    assert touched <= total // 5
    print(f"\npushdown: {touched}/{total} chunks decompressed")


def test_file_size_vs_csv_and_npy(store_file, records, tmp_path):
    csv_path = tmp_path / "trace.csv"
    npy_path = tmp_path / "trace.npy"
    dataset = TraceDataset(records[:50_000])
    dataset.save(csv_path)
    TraceDataset(records).save(npy_path)
    store = store_file.stat().st_size
    csv_size = csv_path.stat().st_size * (N / 50_000)
    npy = npy_path.stat().st_size
    print(f"\nbytes/record  rpt: {store / N:5.2f}   "
          f"npy: {npy / N:5.2f}   csv: {csv_size / N:5.2f}")
    assert store * 5 <= csv_size
    assert store < npy