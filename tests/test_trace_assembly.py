"""A run's trace is assembled once, and equals the original merge.

``merge_by_time``, the end-of-run assembly (``gather_traces`` plus the
``[0, duration)`` window) and ``RunCatalog.load_dataset`` must give the
bytes of the concatenate / stable-argsort / fancy-index merge kept in
``tests/merge_oracle.py``, on inputs full of equal times within and
across parts, and with empty parts, and on node buffers whose records
straddle block edges.  The assembly must also hold one copy of the
trace: its allocation peak stays within the merged records, one int64
index and one column, and it leaves the node buffers empty.  A node
buffer holds its records plus at most one block of slack, and never
copies them while it fills.  Node buffer blocks and the merged trace
live in their own page mappings, so dropping them returns their pages,
and the ``[0, duration)`` window copies nothing.
"""

import mmap
import tempfile
import tracemalloc
import weakref
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import BeowulfCluster
from repro.driver import TRACE_DTYPE, TraceBuffer
from repro.driver import trace as trace_module
from repro.driver.trace import BLOCK_RECORDS, merge_by_time, time_window
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


class Footprint:
    """Heap bytes (``tracemalloc``) plus the bytes ``mapped_records``
    maps, from the start of :func:`footprint`: ``tracemalloc`` does not
    see page mappings.  A mapping counts from when it is made and is
    never uncounted, so ``held`` and ``peak`` are upper bounds."""

    def __init__(self):
        self.mapped = 0
        self.start = tracemalloc.get_traced_memory()[0]
        #: the largest heap-plus-mapped total before the latest mapping
        self._peak = self.start
        #: bytes held at the end, and the peak; set when it ends
        self.held = self.peak = None

    def note_mapping(self, nbytes: int) -> None:
        self._peak = max(self._peak,
                         self.mapped + tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()
        self.mapped += nbytes

    def finish(self) -> None:
        current, peak = tracemalloc.get_traced_memory()
        self.held = current + self.mapped - self.start
        self.peak = max(self._peak, self.mapped + peak) - self.start


@contextmanager
def footprint():
    """Measure the heap plus mapped bytes of the ``with`` body."""
    mapped_records = trace_module.mapped_records

    def counted(count):
        records = mapped_records(count)
        usage.note_mapping(records.nbytes)
        return records

    tracemalloc.start()
    try:
        usage = Footprint()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(trace_module, "mapped_records", counted)
            yield usage
            usage.finish()
    finally:
        tracemalloc.stop()


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
@given(PARTS, st.data(), TIMES, st.sampled_from([1, 2, 3, 1024]))
def test_gathered_window_matches_the_oracle(rows_per_part, data, duration,
                                            first_block):
    parts = as_parts(rows_per_part, sort=True)
    cluster = BeowulfCluster(Simulator(), nnodes=len(parts), seed=0)
    for node, part in zip(cluster.nodes, parts):
        # some records already drained to user space, the rest in the
        # ring; small first blocks put the drained records across
        # several block edges
        drained = data.draw(st.integers(0, len(part)))
        transport = node.kernel.transport
        transport.user_buffer = TraceBuffer(initial_capacity=first_block)
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


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, BLOCK_RECORDS + 100), max_size=8),
       st.integers(1, 2 * BLOCK_RECORDS))
def test_blocks_hold_the_records_in_order(batches, first_block):
    rows = np.zeros(sum(batches), dtype=TRACE_DTYPE)
    rows["time"] = np.arange(len(rows)) * 0.5
    rows["sector"] = np.arange(len(rows)) * 7
    buffer = TraceBuffer(initial_capacity=first_block)
    at = 0
    for size in batches:
        buffer.append_array(rows[at:at + size])
        at += size
    blocks = buffer.blocks()
    assert len(buffer) == len(rows)
    assert buffer.to_array().tobytes() == rows.tobytes()
    # the schema's own dtype object, so checkpoint pickles stay the same
    assert buffer.to_array().dtype is TRACE_DTYPE
    assert np.concatenate(blocks or [rows[:0]]).tobytes() == rows.tobytes()
    assert all(0 < len(b) <= BLOCK_RECORDS for b in blocks)
    # the checkpoint form is the same array
    restored = TraceBuffer()
    restored.append_array(buffer.to_array())
    assert restored.to_array().tobytes() == rows.tobytes()


def test_a_buffer_holds_one_block_of_slack_per_node():
    nodes, count, batch = 2, 5 * BLOCK_RECORDS + 777, 37
    rows = np.zeros(batch, dtype=TRACE_DTYPE)
    with footprint() as usage:
        buffers = [TraceBuffer() for _ in range(nodes)]
        for _ in range(count // batch):
            for buffer in buffers:
                buffer.append_array(rows)  # as the /proc drain does
    assert usage.mapped > 0  # the blocks are mapped, and counted
    records = nodes * (count // batch) * batch * TRACE_DTYPE.itemsize
    slack = nodes * BLOCK_RECORDS * TRACE_DTYPE.itemsize
    # array headers, the block lists and one staged batch
    overhead = 16 * 1024
    assert usage.held <= records + slack + overhead
    # no growth copies: the peak is what is held, plus one batch
    assert usage.peak <= records + slack + overhead


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
    with footprint() as usage:
        trace = time_window(cluster.gather_traces(), 0, 1500.0)
    one_trace = count * TRACE_DTYPE.itemsize
    int64_index = one_column = count * 8
    assert usage.mapped == one_trace  # the merged trace is mapped
    assert usage.peak <= one_trace + int64_index + one_column
    assert 0 < len(trace) < count
    assert all(len(node.kernel.transport.user_buffer) == 0
               for node in cluster.nodes)


def mapping_of(records: np.ndarray):
    """The ``mmap`` under ``records`` (through views), else ``None``."""
    base = records
    while isinstance(base, np.ndarray):
        base = base.base
    return base.obj if isinstance(base, memoryview) else None


def test_gathered_blocks_go_back_to_the_os():
    sim = Simulator()
    cluster = BeowulfCluster(sim, nnodes=2, seed=0)
    sim.run(until=600.0)
    for node in cluster.nodes:
        node.kernel.transport.drain_now()
    blocks = [weakref.ref(mapping_of(block)) for node in cluster.nodes
              for block in node.kernel.transport.user_buffer.blocks()]
    assert len(blocks) >= 2 and all(ref() is not None for ref in blocks)
    merged = cluster.gather_traces()
    assert isinstance(mapping_of(merged), mmap.mmap)
    assert len(merged) > 0
    # the parts are dropped: every block's mapping is gone
    assert all(ref() is None for ref in blocks)


def test_mapped_records_of_no_rows_is_an_ordinary_array():
    empty = trace_module.mapped_records(0)
    assert empty.dtype is TRACE_DTYPE and len(empty) == 0
    assert mapping_of(empty) is None


def test_time_window_copies_nothing():
    records = np.zeros(100_000, dtype=TRACE_DTYPE)
    records["time"] = np.arange(len(records)) * 0.01
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        window = time_window(records, 100.0, 900.0)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < 1024
    assert window.base is records
    assert len(window) == 80_000


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from([0.0, 0.5, 1.0, 1.0, 2.5, 4.0]),
                max_size=30),
       st.sampled_from([-1.0, 0.0, 0.25, 0.5, 1.0, 2.5, 4.0, 4.5, 9.0]),
       st.sampled_from([-1.0, 0.0, 0.25, 0.5, 1.0, 2.5, 4.0, 4.5, 9.0]))
def test_time_window_matches_searchsorted(times, t0, t1):
    # runs of equal times, and bounds before, inside, on and past them
    records = np.zeros(len(times), dtype=TRACE_DTYPE)
    records["time"] = sorted(times)
    records["sector"] = np.arange(len(times))
    column = np.ascontiguousarray(records["time"])
    lo, hi = np.searchsorted(column, t0), np.searchsorted(column, t1)
    assert time_window(records, t0, t1).tobytes() == \
        records[lo:hi].tobytes()
