"""On-drive segment cache with read look-ahead.

Mid-90s IDE drives carried a 64-256 KB buffer organised as a handful of
segments, each holding a contiguous run of recently-read sectors plus
look-ahead read "for free" as the platter kept spinning.  A read fully
contained in a segment is served electronically (no seek, no rotation).
Writes are write-through and invalidate any overlapping cached span.

The device consults this cache before charging mechanical time; the
drive-cache ablation benchmark shows what it buys for sequential 1 KB
streams.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple


@dataclass
class _Segment:
    start: int           # first cached sector
    end: int             # one past the last cached sector
    last_used: int       # LRU stamp

    def contains(self, sector: int, nsectors: int) -> bool:
        return self.start <= sector and sector + nsectors <= self.end

    def overlaps(self, sector: int, nsectors: int) -> bool:
        return sector < self.end and self.start < sector + nsectors


class DriveCache:
    """Segmented on-drive read cache."""

    def __init__(self, nsegments: int = 4, segment_sectors: int = 128,
                 lookahead_sectors: int = 64):
        if nsegments < 1:
            raise ValueError("need at least one segment")
        if segment_sectors < 1 or lookahead_sectors < 0:
            raise ValueError("bad segment/lookahead size")
        self.nsegments = nsegments
        self.segment_sectors = segment_sectors
        self.lookahead_sectors = lookahead_sectors
        self._segments: List[_Segment] = []
        self._clock = 0
        self.hits = 0
        self.misses = 0

    @property
    def capacity_sectors(self) -> int:
        return self.nsegments * self.segment_sectors

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def lookup(self, sector: int, nsectors: int) -> bool:
        """True if a read of this span is fully cached (and count it)."""
        self._clock += 1
        for segment in self._segments:
            if segment.contains(sector, nsectors):
                segment.last_used = self._clock
                self.hits += 1
                return True
        self.misses += 1
        return False

    def fill_after_read(self, sector: int, nsectors: int,
                        disk_sectors: Optional[int] = None) -> Tuple[int, int]:
        """Install the span just read, extended by the look-ahead.

        Returns the cached (start, end) span.  The span is clipped to one
        segment's capacity (largest reads simply stream through) and to
        the end of the disk.
        """
        self._clock += 1
        end = sector + nsectors + self.lookahead_sectors
        if disk_sectors is not None:
            end = min(end, disk_sectors)
        start = max(sector, end - self.segment_sectors)
        segment = self._victim()
        segment.start = start
        segment.end = end
        segment.last_used = self._clock
        return start, end

    def invalidate(self, sector: int, nsectors: int) -> int:
        """Drop segments overlapping a written span; returns count."""
        before = len(self._segments)
        self._segments = [s for s in self._segments
                          if not s.overlaps(sector, nsectors)]
        return before - len(self._segments)

    # -- checkpoint state surface ---------------------------------------
    def snapshot_state(self) -> dict:
        return {"segments": [(s.start, s.end, s.last_used)
                             for s in self._segments],
                "clock": self._clock,
                "hits": self.hits, "misses": self.misses}

    def restore_state(self, state: dict) -> None:
        self._segments = [_Segment(int(a), int(b), int(c))
                          for a, b, c in state["segments"]]
        self._clock = int(state["clock"])
        self.hits = int(state["hits"])
        self.misses = int(state["misses"])

    def _victim(self) -> _Segment:
        if len(self._segments) < self.nsegments:
            segment = _Segment(0, 0, self._clock)
            self._segments.append(segment)
            return segment
        return min(self._segments, key=lambda s: s.last_used)


class NullDriveCache:
    """A drive with its buffer disabled: every read misses.

    Timing-equivalent to a cacheless device (no look-ahead is read, so
    no rotation is charged for one) while keeping the cache interface
    and hit/miss accounting alive — the ablation baseline the 0-segment
    sweeps select.  Accepts and ignores the segmented cache's geometry
    keywords so both kinds build from one config shape.
    """

    nsegments = 0
    segment_sectors = 0
    lookahead_sectors = 0

    def __init__(self, nsegments: int = 0, segment_sectors: int = 0,
                 lookahead_sectors: int = 0):
        self.hits = 0
        self.misses = 0

    @property
    def capacity_sectors(self) -> int:
        return 0

    @property
    def hit_ratio(self) -> float:
        return 0.0

    def lookup(self, sector: int, nsectors: int) -> bool:
        self.misses += 1
        return False

    def snapshot_state(self) -> dict:
        return {"hits": self.hits, "misses": self.misses}

    def restore_state(self, state: dict) -> None:
        self.hits = int(state["hits"])
        self.misses = int(state["misses"])

    def fill_after_read(self, sector: int, nsectors: int,
                        disk_sectors: Optional[int] = None) -> Tuple[int, int]:
        return sector, sector

    def invalidate(self, sector: int, nsectors: int) -> int:
        return 0


#: drive-cache models by scenario kind; factories accept the
#: ``DriveCacheConfig`` geometry keywords they care about
DRIVE_CACHES = {
    "none": NullDriveCache,
    "segmented": DriveCache,
}
