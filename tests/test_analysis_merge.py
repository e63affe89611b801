"""The heap k-way merge against the watermark merge it replaced.

``reference_merged_time_blocks`` is the original cursor-list merge, kept
here as the oracle: take the stream with the smallest head (``min`` over
the cursor list, so ties go to the earlier reader) and emit its prefix
up to the other streams' minimum head.  ``GapStats``' Chan-merged mean
and variance depend on how the stream is split, so the production heap
merge must yield exactly these blocks — same count, lengths, bytes and
order — for the arrival pipeline to stay bit-identical.
"""

import tempfile
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.analysis import merged_time_blocks
from repro.driver import TRACE_DTYPE
from repro.store import TraceReader, write_trace


class _TimeCursor:
    """Buffered view over one reader's sorted per-chunk time arrays."""

    __slots__ = ("_blocks", "buffer", "pos")

    def __init__(self, blocks: Iterator[np.ndarray]):
        self._blocks = blocks
        self.buffer = np.zeros(0, dtype=np.float64)
        self.pos = 0

    def refill(self) -> bool:
        for block in self._blocks:
            if len(block):
                self.buffer = np.asarray(block, dtype=np.float64)
                self.pos = 0
                return True
        return False

    @property
    def head(self) -> float:
        return self.buffer[self.pos]


def reference_merged_time_blocks(readers: Sequence[TraceReader],
                                 **predicates) -> Iterator[np.ndarray]:
    """The watermark merge over a cursor list (the oracle)."""
    cursors = []
    for reader in readers:
        blocks = (batch["time"] for batch in
                  reader.iter_arrays(**predicates))
        cursor = _TimeCursor(blocks)
        if cursor.refill():
            cursors.append(cursor)
    while cursors:
        lowest = min(cursors, key=lambda c: c.head)
        others = [c.head for c in cursors if c is not lowest]
        watermark = min(others) if others else np.inf
        hi = np.searchsorted(lowest.buffer, watermark, side="right")
        if hi <= lowest.pos:      # head == watermark: emit at least it
            hi = lowest.pos + 1
        yield lowest.buffer[lowest.pos:hi]
        lowest.pos = int(hi)
        if lowest.pos >= len(lowest.buffer) and not lowest.refill():
            cursors.remove(lowest)


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


PREDICATES = st.sampled_from([
    {}, {"t0": 2.0}, {"t1": 6.0}, {"t0": 1.5, "t1": 4.75},
    {"node": 1}, {"write": True}, {"write": False}])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       nstreams=st.one_of(st.just(1), st.just(16), st.integers(2, 6)),
       max_records=st.integers(0, 60),
       ticks=st.sampled_from([1, 3, 40, 10_000]),
       chunk_records=st.integers(1, 9),
       predicates=PREDICATES)
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
        got = _blocks(merged_time_blocks, paths, predicates)
        want = _blocks(reference_merged_time_blocks, paths, predicates)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == np.float64
        assert a.tobytes() == b.tobytes()


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
