"""Sequential read-ahead: the source of the large request class.

Per open file, the kernel watches the access pattern: sequential reads grow
the read-ahead window (doubling per sequential access) up to a ceiling set
by the node's I/O buffering — 16 KB, the L1 cache size, in the single-
application experiments, observed to scale to 32 KB under the combined
multiprogramming load.  A seek collapses the window back to one block.

The window is a *plan*; the buffer cache fetches only the blocks actually
missing, so cache hits and interfering system activity fragment the
requests — which is why the paper sees sizes "approaching" 16 KB rather
than pinned at it.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple


class ReadAheadState:
    """Sequential-access detector and window sizing for one open file."""

    def __init__(self, max_window_kb: int = 16, block_kb: int = 1,
                 max_window_provider: Optional[Callable[[], int]] = None):
        if max_window_kb < block_kb:
            raise ValueError("window ceiling below one block")
        self.block_kb = block_kb
        self._static_max_kb = max_window_kb
        self._max_provider = max_window_provider
        self._window_blocks = 1
        self._next_sequential: Optional[int] = None
        #: file block up to which data has already been fetched (exclusive)
        self._covered_end = 0
        self.sequential_runs = 0
        self.seeks = 0

    # -- checkpoint state surface ---------------------------------------
    def snapshot_state(self) -> dict:
        return {"window_blocks": self._window_blocks,
                "next_sequential": self._next_sequential,
                "covered_end": self._covered_end,
                "sequential_runs": self.sequential_runs,
                "seeks": self.seeks}

    def restore_state(self, state: dict) -> None:
        self._window_blocks = int(state["window_blocks"])
        ns = state["next_sequential"]
        self._next_sequential = None if ns is None else int(ns)
        self._covered_end = int(state["covered_end"])
        self.sequential_runs = int(state["sequential_runs"])
        self.seeks = int(state["seeks"])

    @property
    def max_window_blocks(self) -> int:
        max_kb = (self._max_provider() if self._max_provider is not None
                  else self._static_max_kb)
        return max(1, max_kb // self.block_kb)

    def plan(self, first_block: int, nblocks: int,
             file_nblocks: int) -> Tuple[int, int]:
        """Decide the fetch span for a read of file blocks
        ``[first_block, first_block + nblocks)``.

        Returns ``(start, count)`` in file-relative blocks, clipped to the
        file end.  The span always covers the requested blocks; on a
        sequential stream it additionally extends a full window past the
        already-fetched region whenever the read nears its edge, so the
        *disk* requests (only the uncached tail of the span) grow toward
        the window ceiling.  A seek collapses the window and coverage.
        """
        if nblocks < 1:
            raise ValueError("nblocks must be >= 1")
        ceiling = self.max_window_blocks
        req_end = min(first_block + nblocks, file_nblocks)
        had_history = self._next_sequential is not None
        sequential = had_history and first_block == self._next_sequential
        self._next_sequential = first_block + nblocks
        if sequential:
            self.sequential_runs += 1
            self._window_blocks = min(self._window_blocks * 2, ceiling)
        else:
            if had_history:
                self.seeks += 1
            self._window_blocks = 1
            self._covered_end = first_block
        if req_end >= self._covered_end:
            # Ran past fetched data: fetch through the request, plus a
            # window of read-ahead when streaming.
            target_end = req_end
            if sequential:
                target_end = min(file_nblocks, req_end - 1 + self._window_blocks)
        elif sequential and req_end + self._window_blocks // 2 >= self._covered_end:
            # Nearing the edge of fetched data: extend ahead a full window.
            target_end = min(file_nblocks, self._covered_end + self._window_blocks)
        else:
            target_end = req_end
        self._covered_end = max(self._covered_end, target_end)
        return first_block, max(target_end, req_end) - first_block
