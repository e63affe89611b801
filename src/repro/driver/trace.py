"""Trace record schema and an append-optimised buffer.

One record per physical disk request, matching the paper's driver
instrumentation: timestamp, sector number, read/write flag, and the count of
pending requests.  We additionally carry the request size (the paper's
figures plot request sizes, derived from the sector count) and the node id
(the paper aggregates per-node traces).
"""

from __future__ import annotations

import bisect
import mmap
from dataclasses import dataclass

import numpy as np

#: numpy schema shared by the driver, trace files, and the analysis layer.
TRACE_DTYPE = np.dtype([
    ("time", "f8"),      # seconds since experiment start
    ("sector", "u8"),    # first sector of the request
    ("write", "u1"),     # 1 = write, 0 = read
    ("pending", "u2"),   # requests still queued at the device
    ("size_kb", "f4"),   # request size in KB
    ("node", "u2"),      # cluster node the disk belongs to
])


def mapped_records(count: int) -> np.ndarray:
    """An uninitialised record array of ``count`` rows in its own
    private anonymous page mapping (empty: an ordinary empty array).

    Dropping the array's last reference unmaps its pages, so they go
    back to the OS at once.  A heap array of the same size would come
    from the brk heap, whose freed pages stay resident while any live
    object sits above them.
    """
    if not count:
        return np.empty(0, dtype=TRACE_DTYPE)
    pages = mmap.mmap(-1, count * TRACE_DTYPE.itemsize,
                      flags=mmap.MAP_PRIVATE)
    return np.frombuffer(pages, dtype=TRACE_DTYPE)


def merge_by_time(parts) -> np.ndarray:
    """Concatenate record arrays and stable-sort them by ``time`` (equal
    times keep their order across and within ``parts``) — the one time
    merge of per-node traces.

    The merge sorts the times alone, then scatters each record of
    ``parts`` (a sequence) straight to its sorted place in the result
    (a :func:`mapped_records` array), so it copies every record once:
    until it returns it holds ``parts`` and the result, plus one int64
    index, or three int64 columns while it sorts.  The caller frees
    ``parts`` by dropping them.
    """
    count = sum(len(part) for part in parts)
    times = np.concatenate([part["time"] for part in parts]) if parts \
        else np.zeros(0)
    order = np.argsort(times, kind="stable")
    del times
    # where each concatenated record lands: the inverse of ``order``
    place = np.empty(count, dtype=np.intp)
    place[order] = np.arange(count)
    del order
    merged = mapped_records(count)
    at = 0
    for part in parts:
        merged[place[at:at + len(part)]] = part
        at += len(part)
    return merged


def time_window(records: np.ndarray, t0: float, t1: float) -> np.ndarray:
    """The ``[t0, t1)`` rows of time-sorted ``records``, as a view.

    Bisects the strided ``time`` view in place: ``np.searchsorted``
    would first copy the column to a contiguous array.
    """
    times = records["time"]
    return records[bisect.bisect_left(times, t0):
                   bisect.bisect_left(times, t1)]


@dataclass(frozen=True, slots=True)
class TraceRecord:
    """One instrumentation entry, in object form (handy for tests/streams).

    Slotted: every traced request allocates one of these on the submit
    path, so construction cost is part of the request hot path.
    """

    time: float
    sector: int
    write: bool
    pending: int
    size_kb: float
    node: int = 0

    def as_tuple(self) -> tuple:
        return (self.time, self.sector, int(self.write), self.pending,
                self.size_kb, self.node)


#: the largest block of a :class:`TraceBuffer` (about 100 KB of records)
BLOCK_RECORDS = 4096


class TraceBuffer:
    """Append-only, numpy-backed store of trace records, in blocks.

    Records land in fixed blocks that are never grown or copied: when
    one is full the next starts beside it, as large as all the blocks
    before it (the first holds ``initial_capacity``) and at most
    :data:`BLOCK_RECORDS`.  So a buffer holds at most one block of
    slack, and no append ever holds an old and a new copy at once.
    Each block is a :func:`mapped_records` array, so the blocks the
    end-of-run merge drops go back to the OS.
    :meth:`blocks` hands the written records to the end-of-run merge as
    they lie; :meth:`to_array` joins them into one array.
    """

    def __init__(self, initial_capacity: int = 1024):
        if initial_capacity < 1:
            raise ValueError("initial capacity must be >= 1")
        self._first = min(initial_capacity, BLOCK_RECORDS)
        #: the blocks, every one full but the last
        self._blocks: list = []
        #: records written into the last block
        self._fill = 0
        self._len = 0

    def __len__(self) -> int:
        return self._len

    def _free_block(self) -> np.ndarray:
        """The last block if it has room, else a new one."""
        blocks = self._blocks
        if blocks and self._fill < len(blocks[-1]):
            return blocks[-1]
        size = min(max(self._len, self._first), BLOCK_RECORDS)
        block = mapped_records(size)
        blocks.append(block)
        self._fill = 0
        return block

    def append_array(self, records: np.ndarray) -> None:
        """Bulk append a structured array, a block's room at a time."""
        records = np.asarray(records)
        if records.dtype != TRACE_DTYPE:
            raise TypeError(f"expected trace dtype, got {records.dtype}")
        at, n = 0, len(records)
        while at < n:
            block = self._free_block()
            fill = self._fill
            take = min(n - at, len(block) - fill)
            block[fill:fill + take] = records[at:at + take]
            self._fill = fill + take
            self._len += take
            at += take

    def blocks(self) -> list:
        """The records written so far, in order, one array per block
        (the last a view of its filled part); valid until the next
        append or :meth:`clear`."""
        blocks = self._blocks
        if not blocks:
            return []
        return blocks[:-1] + [blocks[-1][:self._fill]]

    def to_array(self) -> np.ndarray:
        """Structured array of the records written so far (a copy)."""
        # into an array of the schema's own dtype object, as pickles of
        # it (checkpoints) memoize that object
        records = np.empty(self._len, dtype=TRACE_DTYPE)
        if self._len:
            np.concatenate(self.blocks(), out=records)
        return records

    def clear(self) -> None:
        """Drop every record and the storage that held them."""
        self._blocks = []
        self._fill = 0
        self._len = 0
