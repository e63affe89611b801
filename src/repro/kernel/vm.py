"""Virtual memory: demand paging against a raw swap region.

Page faults are the paper's 4 KB request class.  Three fault flavours exist,
matching the narrative in the paper's section 4:

* **demand load** — first touch of a file-backed page (program text, mapped
  image data) reads 4 KB from the file's disk location (the wavelet code's
  startup burst, "due to the large program space and image data
  requirements");
* **swap-in** — re-touch of a page previously evicted dirty reads 4 KB from
  its swap slot (working-set maintenance during compute);
* **zero-fill** — first touch of anonymous memory costs no I/O.

Evictions of dirty pages write 4 KB to the swap region.  Replacement is
global LRU over all address spaces on the node, so one application's memory
pressure pages out another's — the combined experiment's amplified paging.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.driver import InstrumentedIDEDriver
from repro.kernel.params import DiskLayout


class OutOfSwap(Exception):
    """The swap region is exhausted."""


@dataclass
class VMStats:
    faults: int = 0
    demand_loads: int = 0
    swap_ins: int = 0
    zero_fills: int = 0
    evictions: int = 0
    swap_outs: int = 0
    hits: int = 0
    #: evictions performed by the background reclaimer (kswapd)
    background_evictions: int = 0
    #: faults that had to reclaim synchronously (direct reclaim)
    direct_reclaims: int = 0


@dataclass
class AddressSpace:
    """Per-process page bookkeeping.

    ``file_pages`` maps a virtual page id to ``(start_sector, nsectors)``
    on disk, for pages backed by a program image or data file.
    ``swapped`` holds pages with a *valid* copy in their swap slot — the
    swap-cache semantics of real kernels: the copy survives a swap-in and
    is only invalidated when the resident page is re-dirtied, so a clean
    re-eviction is free and the next touch swap-ins again.
    """

    name: str
    file_pages: Dict[int, Tuple[int, int]] = field(default_factory=dict)
    swapped: set = field(default_factory=set)
    resident: set = field(default_factory=set)

    @property
    def rss(self) -> int:
        """Resident set size in pages."""
        return len(self.resident)


class VirtualMemory:
    """Global frame pool + swap for one node."""

    def __init__(self, driver: InstrumentedIDEDriver, frames_total: int,
                 page_kb: int = 4, layout: Optional[DiskLayout] = None):
        if frames_total < 1:
            raise ValueError("need at least one frame")
        self.driver = driver
        self.frames_total = frames_total
        self.page_kb = page_kb
        self.sectors_per_page = page_kb * 1024 // 512
        layout = layout or DiskLayout()
        self.swap_start, swap_sectors = layout.zone("swap")
        self.swap_slots = swap_sectors // self.sectors_per_page
        self.stats = VMStats()
        # LRU of resident pages: (aspace id, page id) -> dirty flag
        self._frames: "OrderedDict[Tuple[int, int], bool]" = OrderedDict()
        self._slot_of: Dict[Tuple[int, int], int] = {}
        self._free_slots: list = []
        self._next_slot = 0
        self._spaces: Dict[int, AddressSpace] = {}
        # background reclaimer state (attach_reclaimer)
        self._reclaim_low = 0
        self._reclaim_high = 0
        self._reclaim_wakeup = None
        self._reclaimer_on = False

    # -- address-space management ------------------------------------------
    def create_space(self, name: str) -> AddressSpace:
        aspace = AddressSpace(name=name)
        self._spaces[id(aspace)] = aspace
        return aspace

    def destroy_space(self, aspace: AddressSpace) -> None:
        """Process exit: free its frames and swap slots (no I/O)."""
        key_id = id(aspace)
        for key in [k for k in self._frames if k[0] == key_id]:
            del self._frames[key]
        for key in [k for k in self._slot_of if k[0] == key_id]:
            self._free_slots.append(self._slot_of.pop(key))
        aspace.resident.clear()
        aspace.swapped.clear()
        self._spaces.pop(key_id, None)

    @property
    def frames_used(self) -> int:
        return len(self._frames)

    @property
    def frames_free(self) -> int:
        return self.frames_total - len(self._frames)

    # -- background reclaim (kswapd) -----------------------------------------
    def attach_reclaimer(self, sim, low_fraction: float = 0.02,
                         high_fraction: float = 0.06) -> None:
        """Start a kswapd-style daemon on ``sim``.

        When free frames fall below ``low_fraction`` of the pool, the
        daemon evicts (asynchronously, batching the swap-out writes)
        until ``high_fraction`` are free.  Faults then normally find a
        free frame instead of reclaiming synchronously; a fault arriving
        with nothing free still direct-reclaims, exactly as in Linux.
        """
        if self._reclaimer_on:
            raise RuntimeError("reclaimer already attached")
        if not (0 < low_fraction < high_fraction < 1):
            raise ValueError("need 0 < low < high < 1")
        self._reclaim_low = max(1, int(low_fraction * self.frames_total))
        self._reclaim_high = max(self._reclaim_low + 1,
                                 int(high_fraction * self.frames_total))
        self._reclaimer_on = True
        sim.process(self._kswapd(sim), name="kswapd")

    def stop_reclaimer(self) -> None:
        self._reclaimer_on = False
        if self._reclaim_wakeup is not None \
                and not self._reclaim_wakeup.triggered:
            self._reclaim_wakeup.succeed()

    def _kswapd(self, sim):
        while self._reclaimer_on:
            if self.frames_free >= self._reclaim_low or not self._frames:
                self._reclaim_wakeup = sim.event()
                yield self._reclaim_wakeup
                self._reclaim_wakeup = None
                if not self._reclaimer_on:
                    return
            while (self._reclaimer_on and self._frames
                   and self.frames_free < self._reclaim_high):
                yield from self._evict_one()
                self.stats.background_evictions += 1

    def _kick_reclaimer(self) -> None:
        if (self._reclaimer_on and self._reclaim_wakeup is not None
                and not self._reclaim_wakeup.triggered
                and self.frames_free < self._reclaim_low):
            self._reclaim_wakeup.succeed()

    # -- the fault path ------------------------------------------------------
    def note_access(self, aspace: AddressSpace, page_id: int,
                    write: bool = False) -> bool:
        """Touch one page if it is resident; plain call, no generator.

        The resident fast path of :meth:`access` (hit count, LRU order,
        dirty mark): returns ``False`` with zero side effects when the
        page is not resident, and the caller falls back to ``access``.
        """
        frames = self._frames
        key = (id(aspace), page_id)
        if key not in frames:
            return False
        self.stats.hits += 1
        frames.move_to_end(key)
        if write:
            frames[key] = True
            # Re-dirtying invalidates the swap copy (swap cache).
            aspace.swapped.discard(page_id)
        return True

    def access(self, aspace: AddressSpace, page_id: int, write: bool = False):
        """Touch one page; a generator that performs fault I/O if needed."""
        if self.note_access(aspace, page_id, write):
            return
        key = (id(aspace), page_id)
        self.stats.faults += 1
        if len(self._frames) >= self.frames_total:
            self.stats.direct_reclaims += 1
        while len(self._frames) >= self.frames_total:
            yield from self._evict_one()
        self._kick_reclaimer()
        # Bring the page in.
        if page_id in aspace.swapped:
            slot = self._slot_of[key]
            self.stats.swap_ins += 1
            yield self.driver.read_sectors(self._slot_sector(slot),
                                           self.sectors_per_page,
                                           origin=f"swapin:{aspace.name}")
            if write:
                aspace.swapped.discard(page_id)
        elif page_id in aspace.file_pages:
            sector, nsectors = aspace.file_pages[page_id]
            self.stats.demand_loads += 1
            yield self.driver.read_sectors(sector, nsectors,
                                           origin=f"demand:{aspace.name}")
        else:
            self.stats.zero_fills += 1
        self._frames[key] = write
        aspace.resident.add(page_id)

    def touch_range(self, aspace: AddressSpace, first_page: int,
                    npages: int, write: bool = False):
        """Touch ``npages`` consecutive pages (demand-loading a region)."""
        for page_id in range(first_page, first_page + npages):
            yield from self.access(aspace, page_id, write=write)

    # -- checkpoint state surface ---------------------------------------
    def space_by_name(self, name: str) -> AddressSpace:
        """Find a (restored) address space by its label."""
        for aspace in self._spaces.values():
            if aspace.name == name:
                return aspace
        raise KeyError(f"no address space named {name!r}")

    def snapshot_state(self) -> dict:
        """Frame pool, swap map, and address spaces, re-keyed by name.

        Live bookkeeping keys frames by ``id(aspace)``; ids are
        process-specific, so the snapshot uses the space *name* (unique
        per node: one space per application instance).
        """
        names = {sid: a.name for sid, a in self._spaces.items()}
        s = self.stats
        return {
            "spaces": [{"name": a.name,
                        "file_pages": [[p, sec, n] for p, (sec, n)
                                       in sorted(a.file_pages.items())],
                        "swapped": sorted(a.swapped),
                        "resident": sorted(a.resident)}
                       for a in self._spaces.values()],
            "frames": [[names[sid], page, dirty]
                       for (sid, page), dirty in self._frames.items()],
            "slots": sorted([names[sid], page, slot]
                            for (sid, page), slot in self._slot_of.items()),
            "free_slots": list(self._free_slots),
            "next_slot": self._next_slot,
            "stats": {k: getattr(s, k) for k in vars(s)},
        }

    def restore_state(self, state: dict) -> None:
        self._spaces = {}
        by_name: Dict[str, int] = {}
        for sp in state["spaces"]:
            aspace = AddressSpace(
                name=sp["name"],
                file_pages={int(p): (int(sec), int(n))
                            for p, sec, n in sp["file_pages"]},
                swapped=set(sp["swapped"]),
                resident=set(sp["resident"]))
            self._spaces[id(aspace)] = aspace
            by_name[aspace.name] = id(aspace)
        self._frames = OrderedDict(
            ((by_name[name], int(page)), bool(dirty))
            for name, page, dirty in state["frames"])
        self._slot_of = {(by_name[name], int(page)): int(slot)
                         for name, page, slot in state["slots"]}
        self._free_slots = [int(s) for s in state["free_slots"]]
        self._next_slot = int(state["next_slot"])
        self.stats = VMStats(**{k: int(v)
                                for k, v in state["stats"].items()})

    # -- internals ------------------------------------------------------------
    def _evict_one(self):
        (victim_space_id, victim_page), dirty = next(iter(self._frames.items()))
        del self._frames[(victim_space_id, victim_page)]
        self.stats.evictions += 1
        victim_space = self._spaces.get(victim_space_id)
        if victim_space is not None:
            victim_space.resident.discard(victim_page)
        if dirty:
            slot = self._ensure_slot((victim_space_id, victim_page))
            self.stats.swap_outs += 1
            name = victim_space.name if victim_space else "?"
            yield self.driver.write_sectors(self._slot_sector(slot),
                                            self.sectors_per_page,
                                            origin=f"swapout:{name}")
            if victim_space is not None:
                victim_space.swapped.add(victim_page)
        # Clean pages are simply dropped: if their swap copy is still
        # valid the next touch swap-ins; file-backed pages demand-load
        # again; pure anonymous pages zero-fill again.

    def _ensure_slot(self, key: Tuple[int, int]) -> int:
        slot = self._slot_of.get(key)
        if slot is None:
            if self._free_slots:
                slot = self._free_slots.pop()
            else:
                if self._next_slot >= self.swap_slots:
                    raise OutOfSwap(f"swap full ({self.swap_slots} slots)")
                slot = self._next_slot
                self._next_slot += 1
            self._slot_of[key] = slot
        return slot

    def _slot_sector(self, slot: int) -> int:
        return self.swap_start + slot * self.sectors_per_page
