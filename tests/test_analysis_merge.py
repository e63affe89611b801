"""The windowed k-way merge against the watermark merge it replaced.

``reference_merged_time_blocks`` (``tests/merge_oracle.py``) is the
original cursor-list merge, kept as the oracle: take the stream with the
smallest head (``min`` over the cursor list, so ties go to the earlier
reader) and emit its prefix up to the other streams' minimum head.
``GapStats``' Chan-merged mean and variance depend on how the stream is
split, so the production merge — one stable sort per window, a block
per run of one chunk's values, the running chunk first in a tie — must
yield exactly these blocks (same count, lengths, bytes and order), and
``GapStats.update_blocks`` over its windows must reach the state a
per-block fold of the oracle's blocks reaches, bit for bit, for the
arrival pipeline to stay bit-identical.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.analysis import GapStats, MeanVar, merged_time_blocks
from repro.analysis.accumulators import Accumulator
from repro.analysis.engine import _merged_windows
from repro.driver import TRACE_DTYPE
from repro.store import TraceReader, write_trace
from tests.merge_oracle import reference_merged_time_blocks


def _stream(rng: np.random.Generator, n: int, ticks: int) -> np.ndarray:
    """``n`` sorted records on a coarse time grid (many equal times)."""
    arr = np.zeros(n, dtype=TRACE_DTYPE)
    arr["time"] = np.sort(rng.integers(0, ticks, n)) * 0.25
    arr["sector"] = rng.integers(0, 1_000, n)
    arr["write"] = rng.random(n) < 0.5
    arr["size_kb"] = 1.0
    arr["node"] = rng.integers(0, 3, n)
    return arr


def _blocks(merge, paths, predicates):
    readers = [TraceReader(p) for p in paths]
    try:
        return list(merge(readers, **predicates))
    finally:
        for reader in readers:
            reader.close()


def _windowed_gaps(paths, predicates) -> GapStats:
    """The engine's fold: ``update_blocks`` once per merge window."""
    gaps = GapStats()
    readers = [TraceReader(p) for p in paths]
    try:
        for times, starts in _merged_windows(readers, **predicates):
            gaps.update_blocks(times, starts)
    finally:
        for reader in readers:
            reader.close()
    return gaps


def _state(gaps: GapStats) -> list:
    return [gaps.gaps.n] + [
        None if value is None else float(value).hex()
        for value in (gaps.gaps.mean, gaps.gaps.m2, gaps.first, gaps.last)]


def assert_merge_matches_oracle(paths, predicates) -> list:
    """Blocks byte for byte, and the windowed GapStats bit for bit."""
    got = _blocks(merged_time_blocks, paths, predicates)
    want = _blocks(reference_merged_time_blocks, paths, predicates)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == np.float64
        assert a.tobytes() == b.tobytes()
    reference = GapStats()
    for block in want:
        reference.update_values(block)
    assert _state(_windowed_gaps(paths, predicates)) == _state(reference)
    return got


def _write(directory: Path, streams, chunk_records: int) -> list:
    """One trace file per list of times, node ``i`` in file ``i``."""
    paths = []
    for i, times in enumerate(streams):
        arr = np.zeros(len(times), dtype=TRACE_DTYPE)
        arr["time"] = times
        arr["node"] = i
        path = directory / f"node_{i:04d}.rpt"
        write_trace(path, arr, chunk_records=chunk_records)
        paths.append(path)
    return paths


ALL_PREDICATES = [
    {}, {"t0": 2.0}, {"t1": 6.0}, {"t0": 1.5, "t1": 4.75},
    {"node": 1}, {"write": True}, {"write": False}]
PREDICATES = st.sampled_from(ALL_PREDICATES)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       nstreams=st.one_of(st.just(1), st.just(16), st.integers(2, 6)),
       max_records=st.integers(0, 60),
       ticks=st.sampled_from([1, 2, 3, 40, 10_000]),
       chunk_records=st.integers(1, 9),
       predicates=PREDICATES)
# a tie the running chunk ends inside: only that chunk's tied values go
# first, its reader's next chunk competes by reader index
@example(seed=0, nstreams=16, max_records=7, ticks=2, chunk_records=2,
         predicates={})
def test_heap_merge_yields_the_reference_blocks(seed, nstreams, max_records,
                                                ticks, chunk_records,
                                                predicates):
    rng = np.random.default_rng(seed)
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i in range(nstreams):
            # some files stay empty: max_records may be 0, and any
            # stream may draw 0 records
            n = int(rng.integers(0, max_records + 1))
            path = Path(tmp) / f"node_{i:04d}.rpt"
            write_trace(path, _stream(rng, n, ticks),
                        chunk_records=chunk_records)
            paths.append(path)
        assert_merge_matches_oracle(paths, predicates)


def test_tie_across_the_running_chunks_boundary(tmp_path):
    # reader 1's first chunk [1, 2] runs into the tie at 2 and ends
    # there; its next chunk [2, 3] waits behind reader 0's 2
    paths = _write(tmp_path, [[2.0, 5.0], [1.0, 2.0, 2.0, 3.0]],
                   chunk_records=2)
    blocks = assert_merge_matches_oracle(paths, {})
    assert [b.tolist() for b in blocks] == \
        [[1.0, 2.0], [2.0], [2.0, 3.0], [5.0]]


def test_chunk_at_the_horizon_stalls_it(tmp_path):
    # reader 0's second chunk is all 3.0, its last loaded time before
    # and after loading it: the horizon stays at 3 until the third
    paths = _write(tmp_path, [[1.0, 3.0, 3.0, 3.0, 3.0, 4.0],
                              [2.0, 3.0, 5.0]], chunk_records=2)
    blocks = assert_merge_matches_oracle(paths, {})
    assert [b.tolist() for b in blocks] == \
        [[1.0], [2.0, 3.0], [3.0], [3.0, 3.0], [3.0, 4.0], [5.0]]


@pytest.mark.parametrize("predicates", ALL_PREDICATES, ids=repr)
def test_every_predicate_matches_the_oracle(tmp_path, predicates):
    rng = np.random.default_rng(17)
    paths = []
    for i in range(5):
        path = tmp_path / f"node_{i:04d}.rpt"
        write_trace(path, _stream(rng, 40, 30), chunk_records=4)
        paths.append(path)
    assert assert_merge_matches_oracle(paths, predicates)


def test_on_chunk_sees_every_batch_once(tmp_path):
    rng = np.random.default_rng(4)
    paths = []
    for i in range(3):
        path = tmp_path / f"n{i}.rpt"
        write_trace(path, _stream(rng, 50, 20), chunk_records=7)
        paths.append(path)
    seen = []
    blocks = _blocks(
        lambda readers, **pred: merged_time_blocks(
            readers, on_chunk=seen.append, **pred), paths, {"t0": 1.0})
    batches = []
    for path in paths:
        with TraceReader(path) as reader:
            batches += list(reader.iter_arrays(t0=1.0))
    assert sorted(b.tobytes() for b in seen) == \
        sorted(b.tobytes() for b in batches)
    assert np.array_equal(np.concatenate(blocks),
                          np.sort(np.concatenate(
                              [b["time"] for b in batches])))


class _Recorder(Accumulator):
    """Keeps the bytes of every ``update_values`` batch."""

    ordered = True

    def __init__(self):
        self.batches = []

    def update_values(self, values: np.ndarray) -> None:
        self.batches.append(values.tobytes())


def test_default_update_blocks_folds_each_block():
    times = np.sort(np.random.default_rng(2).uniform(0, 9, 40))
    starts = np.array([0, 1, 2, 5, 6, 13, 39])
    bounds = starts.tolist() + [len(times)]
    blocks = [times[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    windowed, per_block = _Recorder(), _Recorder()
    windowed.update_blocks(times, starts)
    for block in blocks:
        per_block.update_values(block)
    assert windowed.batches == per_block.batches
    assert len(windowed.batches) == len(starts)
    # an accumulator without a fold of its own ends bit for bit where
    # the per-block fold does
    windowed, per_block = MeanVar(), MeanVar()
    windowed.update_blocks(times, starts)
    for block in blocks:
        per_block.update_values(block)
    assert (windowed.n, windowed.mean.hex(), windowed.m2.hex()) == \
        (per_block.n, per_block.mean.hex(), per_block.m2.hex())
