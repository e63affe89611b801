"""The buffer cache: 1 KB blocks, LRU, delayed write-back.

This is the mechanism behind the paper's dominant request class: "small I/O
requests generating I/O transfers of the smallest possible physical request
size" — 1 KB, the filesystem block size.  Writes are *delayed*: they dirty a
buffer and return; a bdflush-style daemon (driven from
:class:`~repro.kernel.kernel.NodeKernel`) writes aged dirty buffers back,
merging physically contiguous ones into small multiples of 1 KB, exactly the
"few instances of small multiples of 1KB" the baseline shows.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from repro.driver import InstrumentedIDEDriver


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    writebacks: int = 0
    writeback_requests: int = 0
    evictions: int = 0

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class BufferCache:
    """LRU cache of fixed-size blocks over an instrumented driver.

    Block numbers are absolute (block ``b`` covers sectors
    ``[b * spb, (b+1) * spb)``).  All methods that may touch the disk are
    generators to be driven from simulation processes.
    """

    def __init__(self, sim, driver: InstrumentedIDEDriver,
                 capacity_blocks: int, sectors_per_block: int = 2,
                 cluster_blocks: int = 4):
        if capacity_blocks < 1:
            raise ValueError("capacity must be >= 1 block")
        self.sim = sim
        self.driver = driver
        self.capacity = capacity_blocks
        self.spb = sectors_per_block
        self.cluster_blocks = max(1, cluster_blocks)
        self.stats = CacheStats()
        # The resident blocks in LRU order, each mapped to the time it
        # was last dirtied (0.0 if never; a flush leaves the stamp).
        self._buffers: "OrderedDict[int, float]" = OrderedDict()
        # Dirty-set bookkeeping so the flush daemons never walk clean
        # buffers: the block numbers of the dirty residents (the keys of
        # a dict, which holds many keys in less memory than a set), plus
        # a *floor* on their stamps.  ``_earliest_dirty`` may drift below
        # the true minimum after flushes (costing at most one harmless
        # scan), but is never above it — so ``has_aged_dirty() == False``
        # guarantees an unconditional scan would have selected nothing.
        self._dirty: Dict[int, None] = {}
        self._earliest_dirty = float("inf")

    # -- inspection ---------------------------------------------------------
    def __len__(self) -> int:
        return len(self._buffers)

    def contains(self, blockno: int) -> bool:
        return blockno in self._buffers

    def is_dirty(self, blockno: int) -> bool:
        return blockno in self._dirty

    @property
    def dirty_count(self) -> int:
        return len(self._dirty)

    # -- reads ---------------------------------------------------------------
    def read_block(self, blockno: int):
        """Ensure ``blockno`` is cached, reading 1 block on a miss."""
        yield from self.read_range(blockno, 1)

    def read_range(self, start: int, nblocks: int):
        """Ensure ``[start, start+nblocks)`` cached.

        Missing *contiguous runs* are fetched with one driver request each,
        which is how read-ahead produces the large multi-KB requests the
        paper attributes to streaming reads.
        """
        if nblocks < 1:
            raise ValueError("nblocks must be >= 1")
        run_start: Optional[int] = None
        for blockno in range(start, start + nblocks):
            if blockno in self._buffers:
                self.stats.hits += 1
                self._touch(blockno)
                if run_start is not None:
                    yield from self._fetch(run_start, blockno - run_start)
                    run_start = None
            else:
                self.stats.misses += 1
                if run_start is None:
                    run_start = blockno
        if run_start is not None:
            yield from self._fetch(run_start, start + nblocks - run_start)

    # -- writes --------------------------------------------------------------
    def note_write(self, blockno: int) -> bool:
        """Dirty ``blockno`` if it is resident; ``False`` on a miss.

        The no-I/O fast path of the write syscalls: a plain call, not a
        generator, so callers only pay generator-frame overhead when a
        miss actually needs room made.  On ``False`` nothing happened —
        the caller must drive :meth:`write_block`.
        """
        buffers = self._buffers
        if blockno not in buffers:
            return False
        buffers.move_to_end(blockno)
        if blockno not in self._dirty:
            now = self.sim.now
            buffers[blockno] = now
            self._dirty[blockno] = None
            if now < self._earliest_dirty:
                self._earliest_dirty = now
        return True

    def note_write_range(self, start: int, nblocks: int) -> bool:
        """Dirty a fully-resident range; ``False`` (no effect) otherwise.

        Residency is checked for the whole range before any buffer is
        touched, so a ``False`` return leaves LRU order and dirty state
        exactly as they were.
        """
        buffers = self._buffers
        for blockno in range(start, start + nblocks):
            if blockno not in buffers:
                return False
        for blockno in range(start, start + nblocks):
            self.note_write(blockno)
        return True

    def write_block(self, blockno: int):
        """Delayed write: dirty the buffer; disk I/O happens at flush time."""
        if self.note_write(blockno):
            return
        yield from self._make_room(1)
        now = self.sim.now
        self._buffers[blockno] = now
        self._dirty[blockno] = None
        if now < self._earliest_dirty:
            self._earliest_dirty = now

    def write_range(self, start: int, nblocks: int):
        if self.note_write_range(start, nblocks):
            return
        for blockno in range(start, start + nblocks):
            yield from self.write_block(blockno)

    # -- flushing ------------------------------------------------------------
    def sync(self):
        """Write back every dirty buffer."""
        yield from self._flush(list(self._dirty))

    def has_aged_dirty(self, age_limit: float) -> bool:
        """Could :meth:`flush_aged` select anything right now?

        Cheap enough for every daemon tick: when this is ``False`` a
        full scan is guaranteed to select nothing, so callers skip the
        generator entirely (the bdflush fast path).
        """
        return (bool(self._dirty)
                and self._earliest_dirty <= self.sim.now - age_limit)

    def flush_aged(self, age_limit: float):
        """Write back dirty buffers older than ``age_limit`` seconds.

        Scans the dirty set only — on a quiescent node that is a handful
        of log blocks, not the whole resident cache (``_flush`` sorts,
        so selection order does not matter).
        """
        cutoff = self.sim.now - age_limit
        if not self._dirty or self._earliest_dirty > cutoff:
            return
        buffers = self._buffers
        aged: List[int] = []
        floor = float("inf")
        for blockno in self._dirty:
            since = buffers[blockno]
            if since < floor:
                floor = since
            if since <= cutoff:
                aged.append(blockno)
        # exact at scan time (includes buffers another in-flight flush
        # has selected but not yet written); only drifts low afterwards
        self._earliest_dirty = floor
        if aged:
            yield from self._flush(aged)

    def invalidate(self, blockno: int) -> None:
        """Drop a (clean) buffer; dirty buffers must be synced first."""
        if blockno not in self._buffers:
            return
        if blockno in self._dirty:
            raise ValueError(f"invalidate of dirty block {blockno}")
        del self._buffers[blockno]

    # -- checkpoint state surface ---------------------------------------
    def snapshot_state(self) -> dict:
        """Resident buffers (in LRU order), stats, and dirty bookkeeping."""
        s = self.stats
        return {
            "buffers": [(blockno, blockno in self._dirty, since)
                        for blockno, since in self._buffers.items()],
            "earliest_dirty": self._earliest_dirty,
            "stats": {"hits": s.hits, "misses": s.misses,
                      "writebacks": s.writebacks,
                      "writeback_requests": s.writeback_requests,
                      "evictions": s.evictions},
        }

    def restore_state(self, state: dict) -> None:
        self._buffers = OrderedDict()
        self._dirty = {}
        for blockno, dirty, dirty_since in state["buffers"]:
            self._buffers[int(blockno)] = float(dirty_since)
            if dirty:
                self._dirty[int(blockno)] = None
        self._earliest_dirty = float(state["earliest_dirty"])
        st = state["stats"]
        self.stats = CacheStats(**{k: int(v) for k, v in st.items()})

    # -- internals ------------------------------------------------------------
    def _touch(self, blockno: int) -> None:
        self._buffers.move_to_end(blockno)

    def _fetch(self, start: int, nblocks: int):
        yield from self._make_room(nblocks)
        yield self.driver.read_sectors(start * self.spb, nblocks * self.spb,
                                       origin="bcache")
        for blockno in range(start, start + nblocks):
            # A concurrent fetch may have inserted it meanwhile; keep LRU.
            if blockno in self._buffers:
                self._touch(blockno)
            else:
                self._buffers[blockno] = 0.0

    def _make_room(self, incoming: int):
        while len(self._buffers) + incoming > self.capacity:
            victim = self._pick_victim()
            if victim is None:
                break
            if victim in self._dirty:
                yield from self._flush([victim])
            if self._buffers.pop(victim, None) is not None:
                if victim in self._dirty:
                    # re-dirtied while its flush was in flight; the write
                    # is lost with the buffer (pre-existing semantics)
                    del self._dirty[victim]
                    if not self._dirty:
                        self._earliest_dirty = float("inf")
                self.stats.evictions += 1

    def _pick_victim(self) -> Optional[int]:
        # Prefer a clean buffer, but only among the *oldest* quarter of
        # the LRU order — an unconditional clean-first policy would evict
        # freshly-fetched blocks (the only clean ones in a dirty cache)
        # ahead of stale dirty data.  Otherwise take the true LRU buffer
        # and pay the flush.
        if not self._buffers:
            return None
        window = max(4, len(self._buffers) // 4)
        dirty = self._dirty
        oldest = None
        for i, blockno in enumerate(self._buffers):
            if i == 0:
                oldest = blockno
            if i >= window:
                break
            if blockno not in dirty:
                return blockno
        return oldest

    def _flush(self, blocknos: Iterable[int]):
        marked = self._dirty
        dirty = [b for b in blocknos if b in marked]
        if len(dirty) == 1:
            # the dominant bdflush case: one aged log block, no run
            # merging possible — skip the sort and the runs generator
            runs = ((dirty[0], 1),)
        else:
            runs = self._contiguous_runs(sorted(set(dirty)))
        for start, count in runs:
            yield self.driver.write_sectors(start * self.spb,
                                            count * self.spb,
                                            origin="bcache-wb")
            self.stats.writeback_requests += 1
            for blockno in range(start, start + count):
                if blockno in marked:
                    del marked[blockno]
                    if not marked:
                        self._earliest_dirty = float("inf")
                self.stats.writebacks += 1

    def _contiguous_runs(self, blocks: List[int]):
        """Split a sorted block list into runs of <= cluster_blocks."""
        i = 0
        while i < len(blocks):
            start = blocks[i]
            count = 1
            while (i + count < len(blocks)
                   and blocks[i + count] == start + count
                   and count < self.cluster_blocks):
                count += 1
            yield start, count
            i += count
