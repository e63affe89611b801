"""Unit and property tests for trace records and buffers."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.driver import TRACE_DTYPE, TraceBuffer, TraceRecord
from repro.driver.trace import merge_by_time


def test_dtype_fields_match_paper_schema():
    names = set(TRACE_DTYPE.names)
    # timestamp, sector, rw flag, pending count are the paper's fields
    assert {"time", "sector", "write", "pending"} <= names


def rows(entries) -> np.ndarray:
    """``(time, sector, write, pending)`` entries as schema rows."""
    return np.array([(t, sector, int(write), pending, 1.0, 0)
                     for t, sector, write, pending in entries],
                    dtype=TRACE_DTYPE)


def test_append_and_len():
    buf = TraceBuffer(initial_capacity=2)
    for i in range(5):  # forces new blocks past the initial capacity
        buf.append_array(rows([(float(i), i * 10, i % 2, i)]))
    assert len(buf) == 5
    arr = buf.to_array()
    assert arr.dtype == TRACE_DTYPE
    assert list(arr["sector"]) == [0, 10, 20, 30, 40]
    assert list(arr["write"]) == [0, 1, 0, 1, 0]


def test_to_array_is_a_copy():
    buf = TraceBuffer()
    buf.append_array(rows([(1.0, 2, True, 3)]))
    arr = buf.to_array()
    arr["sector"][0] = 999
    assert buf.to_array()["sector"][0] == 2


def test_blocks_roundtrip_records():
    buf = TraceBuffer()
    rec = TraceRecord(time=1.5, sector=42, write=True, pending=3,
                      size_kb=4.0, node=7)
    buf.append_array(np.array([rec.as_tuple()], dtype=TRACE_DTYPE))
    (block,) = buf.blocks()
    assert block[0].item() == rec.as_tuple()


def test_clear_resets():
    buf = TraceBuffer()
    buf.append_array(rows([(1.0, 2, False, 0)]))
    buf.clear()
    assert len(buf) == 0
    assert buf.blocks() == []
    assert buf.to_array().shape == (0,)


def test_append_array_bulk():
    arr = np.zeros(5, dtype=TRACE_DTYPE)
    arr["time"] = np.arange(5.0)
    arr["sector"] = np.arange(5) * 100
    buf = TraceBuffer(initial_capacity=2)  # forces new blocks
    buf.append_array(arr)
    buf.append_array(arr)
    out = buf.to_array()
    assert len(out) == 10
    assert np.array_equal(out[:5], arr)
    assert np.array_equal(out[5:], arr)


def test_append_array_empty_and_wrong_dtype():
    buf = TraceBuffer()
    buf.append_array(np.zeros(0, dtype=TRACE_DTYPE))
    assert len(buf) == 0
    with pytest.raises(TypeError):
        buf.append_array(np.zeros(3, dtype=np.float64))


@given(st.lists(st.tuples(
    st.floats(min_value=0, max_value=1e6, allow_nan=False),
    st.integers(min_value=0, max_value=2**40),
    st.booleans(),
    st.integers(min_value=0, max_value=60000),
), max_size=50))
def test_buffer_preserves_order_and_values(entries):
    buf = TraceBuffer(initial_capacity=1)
    for entry in entries:
        buf.append_array(rows([entry]))
    arr = buf.to_array()
    assert len(arr) == len(entries)
    for row, (t, sector, write, pending) in zip(arr, entries):
        assert row["time"] == t
        assert row["sector"] == sector
        assert bool(row["write"]) == write
        assert row["pending"] == pending


def test_merge_by_time_is_stable_across_parts():
    a = np.zeros(3, dtype=TRACE_DTYPE)
    a["time"], a["node"] = [0.0, 2.0, 2.0], 0
    a["sector"] = [1, 2, 3]
    b = np.zeros(2, dtype=TRACE_DTYPE)
    b["time"], b["node"] = [1.0, 2.0], 1
    b["sector"] = [4, 5]
    merged = merge_by_time([a, b])
    assert merged.dtype == TRACE_DTYPE
    # equal times keep part order, then order within the part
    assert merged["sector"].tolist() == [1, 4, 2, 3, 5]
    empty = merge_by_time([])
    assert empty.dtype == TRACE_DTYPE and len(empty) == 0
