"""The merge oracles: the original record merge and the original
cursor-list k-way time merge.

``tests/test_trace_assembly.py`` holds ``merge_by_time``, a run's trace
assembly and ``RunCatalog.load_dataset`` to
:func:`reference_merge_by_time`.  ``tests/test_analysis_merge.py`` and
``tests/test_analysis_engine.py`` hold the engine's merge to the blocks
of :func:`reference_merged_time_blocks`, and
``benchmarks/test_analysis_perf.py`` counts them; this module imports
nothing beyond NumPy and the store, so the benchmark job can use it
without the test suite's dependencies.
"""

from typing import Iterator, Sequence

import numpy as np

from repro.store import TraceReader


def reference_merge_by_time(parts: Sequence[np.ndarray]) -> np.ndarray:
    """Concatenate, stable-argsort ``time``, fancy-index (the oracle)."""
    merged = np.concatenate(parts)
    return merged[np.argsort(merged["time"], kind="stable")]


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
