"""The store subsystem's headline guarantees, at the 1M-record scale.

One million records — the order of a full combined experiment at paper
scale — must stream to disk with bounded writer memory, round-trip
bit-exact, answer a 10% time-window query by decompressing only the
matching chunks, and land >= 5x smaller than the equivalent CSV.
"""

import numpy as np
import pytest

from repro.core.trace import TraceDataset
from repro.driver import TRACE_DTYPE
from repro.store import TraceReader, TraceWriter

N = 1_000_000
CHUNK = 65_536


@pytest.fixture(scope="module")
def million(tmp_path_factory):
    """A realistic 1M-record trace (mixed sequential/random, few sizes)
    streamed into a store file in bounded slices."""
    rng = np.random.default_rng(42)
    arr = np.empty(N, dtype=TRACE_DTYPE)
    arr["time"] = np.sort(rng.exponential(7e-4, N).cumsum())
    base = rng.integers(0, 900_000, N // 100)
    arr["sector"] = (np.repeat(base, 100)
                     + np.tile(np.arange(100) * 8, N // 100))
    arr["write"] = rng.random(N) < 0.8
    arr["pending"] = rng.integers(0, 12, N)
    arr["size_kb"] = rng.choice([0.5, 1.0, 4.0, 32.0],
                                N, p=[0.2, 0.3, 0.3, 0.2])
    arr["node"] = rng.integers(0, 16, N)
    path = tmp_path_factory.mktemp("acceptance") / "combined.rpt"
    max_pending = 0
    with TraceWriter(path, chunk_records=CHUNK) as writer:
        for start in range(0, N, 100_000):
            block = arr[start:start + 100_000]
            writer.append_array(block)
            pending = start + len(block) - writer.records_written
            max_pending = max(max_pending, pending)
    return arr, path, max_pending


def test_streaming_write_memory_is_bounded(million):
    arr, path, max_pending = million
    # pending buffer never exceeds one chunk; with the chunk being
    # compressed that is <= 2 chunks resident at any instant
    assert max_pending < CHUNK


def test_million_records_roundtrip_bit_exact(million):
    arr, path, _ = million
    with TraceReader(path) as reader:
        assert len(reader) == N
        back = reader.read()
    assert np.array_equal(back, arr)
    dataset = TraceDataset(back)
    assert len(dataset) == N


def test_time_window_decompresses_only_matching_chunks(million):
    arr, path, _ = million
    t = arr["time"]
    t0, t1 = float(t[int(N * 0.45)]), float(t[int(N * 0.55)])
    with TraceReader(path) as reader:
        got = reader.read(t0=t0, t1=t1)
        nchunks = reader.chunk_count
        touched = reader.chunks_read
    assert np.array_equal(got, arr[(t >= t0) & (t < t1)])
    # 10% of the records live in ~10% of the time-sorted chunks; allow
    # the two boundary chunks
    assert touched <= nchunks // 10 + 2


def test_compressed_file_is_5x_smaller_than_csv(million, tmp_path):
    arr, path, _ = million
    csv_path = tmp_path / "combined.csv"
    # writing 1M CSV rows through the csv module is slow; a 100k slice
    # scaled up measures the same bytes-per-record
    slice_n = 100_000
    TraceDataset(arr[:slice_n]).save(csv_path)
    csv_bytes = csv_path.stat().st_size * (N / slice_n)
    store_bytes = path.stat().st_size
    assert store_bytes * 5 <= csv_bytes, \
        f"store {store_bytes:,} B vs csv ~{csv_bytes:,.0f} B"
