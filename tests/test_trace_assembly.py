"""A run's trace is assembled once, and equals the original merge.

``merge_by_time``, the end-of-run assembly (``gather_traces`` plus the
``[0, duration)`` window) and ``RunCatalog.load_dataset`` must give the
bytes of the concatenate / stable-argsort / fancy-index merge kept in
``tests/merge_oracle.py``, on inputs full of equal times within and
across parts, and with empty parts.  The assembly must also hold one
copy of the trace: its allocation peak stays within the merged records,
one int64 index and one column, and it leaves the node buffers empty.
"""

import tempfile
import tracemalloc

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.cluster import BeowulfCluster
from repro.driver import TRACE_DTYPE
from repro.driver.trace import merge_by_time, time_window
from repro.sim import Simulator
from repro.store import RunCatalog
from tests.merge_oracle import reference_merge_by_time

#: mostly a handful of instants, so equal times are the common case
TIMES = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.5, 4.0]),
                  st.floats(0.0, 5.0, allow_nan=False))
ROWS = st.lists(st.tuples(TIMES, st.integers(0, 2**40), st.integers(0, 1),
                          st.integers(0, 2**16 - 1),
                          st.sampled_from([0.5, 1.0, 4.0, 16.0])),
                max_size=40)
PARTS = st.lists(ROWS, min_size=1, max_size=5)


def as_parts(rows_per_part, sort=False):
    """One record array per part, ``node`` = the part's index; with
    ``sort``, each part in time order, as a node's trace is."""
    parts = []
    for node, rows in enumerate(rows_per_part):
        part = np.array([row + (node,) for row in rows], dtype=TRACE_DTYPE)
        if sort:
            part = part[np.argsort(part["time"], kind="stable")]
        parts.append(part)
    return parts


def window(records, t0, t1):
    times = records["time"]
    return records[(times >= t0) & (times < t1)]


@settings(max_examples=200, deadline=None)
@given(PARTS)
def test_merge_by_time_matches_the_oracle(rows_per_part):
    parts = as_parts(rows_per_part)
    merged = merge_by_time(parts)
    assert merged.dtype == TRACE_DTYPE
    assert merged.tobytes() == reference_merge_by_time(parts).tobytes()


@settings(max_examples=100, deadline=None)
@given(PARTS, st.data(), TIMES)
def test_gathered_window_matches_the_oracle(rows_per_part, data, duration):
    parts = as_parts(rows_per_part, sort=True)
    cluster = BeowulfCluster(Simulator(), nnodes=len(parts), seed=0)
    for node, part in zip(cluster.nodes, parts):
        # some records already drained to user space, the rest in the ring
        drained = data.draw(st.integers(0, len(part)))
        transport = node.kernel.transport
        transport.user_buffer.append_array(part[:drained])
        for record in part[drained:]:
            transport.push(record.item())
    trace = time_window(cluster.gather_traces(), 0, duration)
    expected = window(reference_merge_by_time(parts), 0, duration)
    assert trace.tobytes() == expected.tobytes()
    assert all(len(node.kernel.transport.user_buffer) == 0
               and node.kernel.transport.ring_fill == 0
               for node in cluster.nodes)


@settings(max_examples=50, deadline=None)
@given(PARTS, st.integers(1, 8))
def test_load_dataset_matches_the_oracle(rows_per_part, chunk_records):
    parts = as_parts(rows_per_part, sort=True)
    with tempfile.TemporaryDirectory() as root:
        catalog = RunCatalog(root)
        capture = catalog.start_run("run", nnodes=len(parts),
                                    chunk_records=chunk_records)
        for node, part in enumerate(parts):
            writer = capture.writer_for(node)
            writer.append_array(part)
            writer.close()
        capture.finalize()
        loaded = catalog.load_dataset("run").records
    assert loaded.tobytes() == reference_merge_by_time(parts).tobytes()


def test_assembly_holds_one_copy_of_the_trace():
    sim = Simulator()
    cluster = BeowulfCluster(sim, nnodes=2, seed=0)
    sim.run(until=2000.0)
    # the ring drain is the capture path, not the assembly
    for node in cluster.nodes:
        node.kernel.transport.drain_now()
    count = sum(len(node.kernel.transport.user_buffer)
                for node in cluster.nodes)
    assert count > 1000
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        trace = time_window(cluster.gather_traces(), 0, 1500.0)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    one_trace = count * TRACE_DTYPE.itemsize
    int64_index = one_column = count * 8
    assert peak <= one_trace + int64_index + one_column
    assert 0 < len(trace) < count
    assert all(len(node.kernel.transport.user_buffer) == 0
               for node in cluster.nodes)
