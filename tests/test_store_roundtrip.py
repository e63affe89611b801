"""Round-trip, predicate-pushdown, and crash-recovery tests for the
chunked trace store."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.driver import TRACE_DTYPE, TraceRecord
from repro.store import (
    StoreFormatError,
    TracePredicate,
    TraceReader,
    TraceWriter,
    read_trace,
    write_trace,
)


def make_records(n, seed=0, nodes=4):
    rng = np.random.default_rng(seed)
    arr = np.empty(n, dtype=TRACE_DTYPE)
    arr["time"] = np.sort(rng.exponential(0.01, n).cumsum())
    arr["sector"] = rng.integers(0, 1_000_000, n)
    arr["write"] = rng.integers(0, 2, n)
    arr["pending"] = rng.integers(0, 30, n)
    arr["size_kb"] = rng.choice([1.0, 4.0, 32.0], n)
    arr["node"] = rng.integers(0, nodes, n)
    return arr


# -- basic round trips ---------------------------------------------------------
def test_empty_file_roundtrip(tmp_path):
    path = tmp_path / "empty.rpt"
    with TraceWriter(path):
        pass
    with TraceReader(path) as reader:
        assert len(reader) == 0
        assert reader.chunk_count == 0
        assert reader.read().dtype == TRACE_DTYPE
        assert reader.time_span == (0.0, 0.0)


def test_roundtrip_is_bit_exact_across_chunks(tmp_path):
    arr = make_records(10_000)
    path = tmp_path / "t.rpt"
    write_trace(path, arr, chunk_records=512)
    with TraceReader(path) as reader:
        assert reader.chunk_count == 10_000 // 512 + 1
        assert np.array_equal(reader.read(), arr)
        assert not reader.recovered


def test_append_single_records_and_tuples(tmp_path):
    path = tmp_path / "t.rpt"
    rows = [TraceRecord(1.0, 10, True, 2, 4.0, node=1).as_tuple(),
            (2.0, 20, 0, 1, 1.0, 0),
            TraceRecord(3.0, 30, False, 0, 2.0, node=2).as_tuple(),
            (4.0, 40, 1, 5, 8.0, 3)]
    with TraceWriter(path, chunk_records=3) as writer:
        for row in rows:
            writer.append_array(np.array([row], dtype=TRACE_DTYPE))
    arr = read_trace(path)
    assert len(arr) == 4
    assert list(arr["sector"]) == [10, 20, 30, 40]
    assert list(arr["node"]) == [1, 0, 2, 3]


def test_writer_memory_stays_bounded(tmp_path):
    """append_array never retains more than one chunk of pending records."""
    arr = make_records(5_000)
    with TraceWriter(tmp_path / "t.rpt", chunk_records=256) as writer:
        for start in range(0, len(arr), 700):
            block = arr[start:start + 700]
            writer.append_array(block)
            # appended but not yet spilled to a chunk
            assert start + len(block) - writer.records_written < 256
    assert writer.records_written == len(arr)


def test_writer_rejects_wrong_dtype_and_use_after_close(tmp_path):
    writer = TraceWriter(tmp_path / "t.rpt")
    with pytest.raises(TypeError):
        writer.append_array(np.zeros(3))
    writer.close()
    writer.close()  # idempotent
    with pytest.raises(ValueError):
        writer.append_array(np.array(
            [TraceRecord(1.0, 1, True, 0, 1.0).as_tuple()], dtype=TRACE_DTYPE))


def test_reader_rejects_non_store_files(tmp_path):
    path = tmp_path / "junk.rpt"
    path.write_bytes(b"definitely not a trace store file")
    with pytest.raises(StoreFormatError):
        TraceReader(path)


# -- predicate pushdown --------------------------------------------------------
def test_time_window_skips_chunks(tmp_path):
    arr = make_records(20_000)
    path = tmp_path / "t.rpt"
    write_trace(path, arr, chunk_records=1_000)  # 20 chunks
    t = arr["time"]
    t0, t1 = float(t[9_000]), float(t[11_000])  # ~10% of records
    with TraceReader(path) as reader:
        got = reader.read(t0=t0, t1=t1)
        assert np.array_equal(got, arr[(t >= t0) & (t < t1)])
        # a 10% window over time-sorted chunks touches ~3 of 20
        assert reader.chunks_read < reader.chunk_count // 2


def test_node_and_direction_pushdown(tmp_path):
    # segregate nodes in time so node chunks are skippable
    a = make_records(3_000, seed=1, nodes=1)
    b = make_records(3_000, seed=2, nodes=1)
    b["node"] = 1
    b["time"] += float(a["time"].max()) + 1.0
    arr = np.concatenate([a, b])
    path = tmp_path / "t.rpt"
    write_trace(path, arr, chunk_records=500)
    with TraceReader(path) as reader:
        got = reader.read(node=1)
        assert np.array_equal(got, arr[arr["node"] == 1])
        assert reader.chunks_read <= reader.chunk_count // 2 + 1
    with TraceReader(path) as reader:
        reads = reader.read(write=False)
        assert np.array_equal(reads, arr[arr["write"] == 0])


def test_predicate_admits_chunk_edges():
    from repro.store.format import summarize
    arr = make_records(100)
    meta = summarize(arr, offset=0, raw=1, comp=1, crc=0)
    t_lo, t_hi = float(arr["time"].min()), float(arr["time"].max())
    # half-open window semantics match TraceDataset.between
    assert not TracePredicate(t1=t_lo).admits_chunk(meta)
    assert TracePredicate(t0=t_hi).admits_chunk(meta)
    assert not TracePredicate(t0=t_hi + 1e-9).admits_chunk(meta)
    assert TracePredicate(node=int(arr["node"][0])).admits_chunk(meta)
    assert not TracePredicate(node=9999).admits_chunk(meta)


# -- crash recovery ------------------------------------------------------------
def test_truncated_file_recovers_complete_chunks(tmp_path):
    arr = make_records(10_000)
    path = tmp_path / "t.rpt"
    write_trace(path, arr, chunk_records=1_000)
    blob = path.read_bytes()
    for fraction in (0.35, 0.8, 0.99):
        trunc = tmp_path / f"trunc_{fraction}.rpt"
        trunc.write_bytes(blob[:int(len(blob) * fraction)])
        with TraceReader(trunc) as reader:
            assert reader.recovered
            got = reader.read()
            # every surviving chunk is an exact prefix of the original
            assert len(got) % 1_000 == 0
            assert np.array_equal(got, arr[:len(got)])


def test_unfinalised_writer_file_is_recoverable(tmp_path):
    """A writer that never reaches close() (crash) loses only the pending
    partial chunk."""
    arr = make_records(2_500)
    path = tmp_path / "t.rpt"
    writer = TraceWriter(path, chunk_records=1_000)
    writer.append_array(arr)
    writer._fh.flush()  # simulate the OS having the spilled chunks
    # no close(): no footer, 500 pending records lost
    with TraceReader(path) as reader:
        assert reader.recovered
        assert np.array_equal(reader.read(), arr[:2_000])
    writer.close()
    with TraceReader(path) as reader:
        assert not reader.recovered
        assert np.array_equal(reader.read(), arr)


def test_recovered_reader_reports_torn_tail_bytes(tmp_path):
    arr = make_records(2_500)
    path = tmp_path / "t.rpt"
    write_trace(path, arr, chunk_records=1_000)
    blob = path.read_bytes()
    trunc = tmp_path / "trunc.rpt"
    trunc.write_bytes(blob[:len(blob) - 37])
    with TraceReader(trunc) as reader:
        assert reader.recovered
        # everything past the last complete chunk counts as torn tail
        assert reader.tail_bytes > 0
        assert reader.tail_bytes < len(blob)
    with TraceReader(path) as reader:
        assert not reader.recovered
        assert reader.tail_bytes == 0


def test_torn_header_raises_store_error_not_unicode_error(tmp_path):
    """A file truncated (or torn) inside the header JSON must surface as a
    clean StoreFormatError, never a raw UnicodeDecodeError."""
    arr = make_records(100)
    path = tmp_path / "t.rpt"
    write_trace(path, arr)
    blob = bytearray(path.read_bytes())
    # corrupt the JSON region of the header with non-UTF-8 garbage while
    # keeping the fixed header (magic/version/jlen) intact
    from repro.store.format import HEADER_FIXED_SIZE
    for i in range(HEADER_FIXED_SIZE, HEADER_FIXED_SIZE + 16):
        blob[i] = 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(StoreFormatError):
        TraceReader(path)
    # valid JSON that is not a header object is rejected the same way
    import json as _json
    import struct as _struct
    payload = _json.dumps([1, 2, 3]).encode()
    from repro.store.format import MAGIC, VERSION
    bad = _struct.pack("<8sHHI", MAGIC, VERSION, 0, len(payload)) + payload
    path.write_bytes(bad)
    with pytest.raises(StoreFormatError):
        TraceReader(path)


def test_reader_closes_handle_when_init_fails(tmp_path):
    from pathlib import Path
    path = tmp_path / "bogus.rpt"
    path.write_bytes(b"\xff" * 64)
    closed = []
    real_open = Path.open

    def spy_open(self, *a, **kw):
        fh = real_open(self, *a, **kw)
        if self == path:
            orig_close = fh.close
            fh.close = lambda: (closed.append(True), orig_close())
        return fh

    import unittest.mock as mock
    with mock.patch.object(Path, "open", spy_open):
        with pytest.raises(StoreFormatError):
            TraceReader(path)
    assert closed, "TraceReader leaked its file handle on init failure"


def test_trace_info_cli_reports_truncated_file(tmp_path, capsys):
    from repro.store.cli import main as trace_main
    arr = make_records(2_500)
    path = tmp_path / "t.rpt"
    write_trace(path, arr, chunk_records=1_000)
    blob = path.read_bytes()
    trunc = tmp_path / "trunc.rpt"
    trunc.write_bytes(blob[:len(blob) - 53])
    assert trace_main(["info", str(trunc)]) == 0
    out = capsys.readouterr().out
    assert "recovered: no footer" in out
    assert "torn tail" in out
    # a header torn beyond recovery is a clean error and exit 1
    torn = tmp_path / "torn.rpt"
    torn.write_bytes(blob[:8] + b"\xff" * 32)
    assert trace_main(["info", str(torn)]) == 1
    err = capsys.readouterr().err
    assert "torn.rpt" in err


def test_corrupt_chunk_payload_fails_crc(tmp_path):
    arr = make_records(1_000)
    path = tmp_path / "t.rpt"
    write_trace(path, arr, chunk_records=1_000)
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF  # flip a bit mid-payload
    path.write_bytes(bytes(blob))
    with TraceReader(path) as reader:
        with pytest.raises(StoreFormatError):
            reader.read()


# -- property tests ------------------------------------------------------------
records_strategy = st.lists(
    st.tuples(
        st.floats(min_value=0, max_value=1e6, allow_nan=False),
        st.integers(min_value=0, max_value=2**50),
        st.integers(min_value=0, max_value=1),
        st.integers(min_value=0, max_value=60_000),
        st.floats(min_value=0, max_value=1e4, allow_nan=False,
                  width=32),
        st.integers(min_value=0, max_value=255),
    ),
    max_size=200)


@settings(max_examples=40, deadline=None)
@given(rows=records_strategy, chunk_records=st.integers(1, 64))
def test_property_roundtrip(tmp_path_factory, rows, chunk_records):
    arr = np.array(rows, dtype=TRACE_DTYPE) if rows \
        else np.zeros(0, dtype=TRACE_DTYPE)
    path = tmp_path_factory.mktemp("store") / "t.rpt"
    write_trace(path, arr, chunk_records=chunk_records)
    with TraceReader(path) as reader:
        assert np.array_equal(reader.read(), arr)


@settings(max_examples=25, deadline=None)
@given(rows=records_strategy,
       chunk_records=st.integers(1, 32),
       t0=st.floats(min_value=0, max_value=1e6, allow_nan=False),
       span=st.floats(min_value=0, max_value=1e6, allow_nan=False),
       node=st.integers(min_value=0, max_value=255),
       write=st.sampled_from([None, True, False]))
def test_property_predicates_match_full_scan(tmp_path_factory, rows,
                                             chunk_records, t0, span,
                                             node, write):
    arr = np.array(rows, dtype=TRACE_DTYPE) if rows \
        else np.zeros(0, dtype=TRACE_DTYPE)
    path = tmp_path_factory.mktemp("store") / "t.rpt"
    write_trace(path, arr, chunk_records=chunk_records)
    pred = TracePredicate(t0=t0, t1=t0 + span, node=node, write=write)
    expected = arr[pred.mask(arr)] if len(arr) \
        else np.zeros(0, dtype=TRACE_DTYPE)
    with TraceReader(path) as reader:
        got = reader.read(t0=t0, t1=t0 + span, node=node, write=write)
    assert np.array_equal(got, expected)


@settings(max_examples=25, deadline=None)
@given(rows=records_strategy, chunk_records=st.integers(1, 32),
       cut=st.floats(min_value=0.0, max_value=1.0))
def test_property_truncation_yields_exact_prefix(tmp_path_factory, rows,
                                                 chunk_records, cut):
    arr = np.array(rows, dtype=TRACE_DTYPE) if rows \
        else np.zeros(0, dtype=TRACE_DTYPE)
    base = tmp_path_factory.mktemp("store")
    path = base / "t.rpt"
    write_trace(path, arr, chunk_records=chunk_records)
    blob = path.read_bytes()
    trunc = base / "trunc.rpt"
    trunc.write_bytes(blob[:int(len(blob) * cut)])
    try:
        reader = TraceReader(trunc)
    except StoreFormatError:
        return  # cut inside the file header itself: nothing to recover
    with reader:
        got = reader.read()
        assert len(got) % chunk_records == 0 or len(got) == len(arr)
        assert np.array_equal(got, arr[:len(got)])
