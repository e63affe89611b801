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

from array import array
from dataclasses import dataclass, field
from typing import Dict

from repro.driver import InstrumentedIDEDriver

#: pages in an address space: the simulated i386's 4 GB of 4 KB pages.
#: Every per-page array of a space is dense up to its highest page id,
#: so the applications refuse ids at or past this where they mint them.
PAGE_LIMIT = 1 << 20


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
    """Per-process page bookkeeping, in flat arrays indexed by page id.

    ``file_pages`` holds the start sector on disk of each page backed by
    a program image or data file, ``-1`` for anonymous pages; every
    file-backed page spans the VM's ``sectors_per_page``.
    ``swapped`` marks pages with a *valid* copy in their swap slot — the
    swap-cache semantics of real kernels: the copy survives a swap-in and
    is only invalidated when the resident page is re-dirtied, so a clean
    re-eviction is free and the next touch swap-ins again.
    ``slots`` (kept by the VM) maps a page id to its swap slot, ``-1``
    for none, and ``slot_order`` lists the assigned slots in the order
    they were assigned, which is the order the VM frees them in.  Only a
    page with a slot can have a swap copy, so ``swapped`` grows with
    ``slots`` and is always as long.
    ``frames`` (kept by the VM) maps a page id to the frame holding it,
    ``0`` for a page not resident.
    """

    name: str
    #: this space's index in its VM's frame table, in creation order
    index: int = 0
    #: resident set size in pages, kept by the VM
    rss: int = 0
    frames: array = field(default_factory=lambda: array("I"), repr=False)
    file_pages: array = field(default_factory=lambda: array("i"),
                              init=False, repr=False)
    swapped: bytearray = field(default_factory=bytearray, init=False,
                               repr=False)
    slots: array = field(default_factory=lambda: array("i"), init=False,
                         repr=False)
    slot_order: array = field(default_factory=lambda: array("i"),
                              init=False, repr=False)

    def map_file_page(self, page: int, sector: int) -> None:
        """Back ``page`` by the disk page starting at ``sector``."""
        pages = self.file_pages
        if page >= len(pages):
            pages.extend(array("i", [-1]) * (page + 1 - len(pages)))
        pages[page] = sector

    def has_swap_copy(self, page: int) -> bool:
        """Does ``page`` have a valid copy in its swap slot?"""
        swapped = self.swapped
        return page < len(swapped) and swapped[page] == 1


class VirtualMemory:
    """Global frame pool + swap for one node."""

    def __init__(self, driver: InstrumentedIDEDriver, frames_total: int,
                 page_kb: int = 4, layout=None):
        if frames_total < 1:
            raise ValueError("need at least one frame")
        self.driver = driver
        self.frames_total = frames_total
        self.page_kb = page_kb
        self.sectors_per_page = page_kb * 1024 // 512
        if layout is None:
            from repro.config import LayoutConfig
            layout = LayoutConfig()
        self.swap_start, swap_sectors = layout.zone("swap")
        self.swap_slots = swap_sectors // self.sectors_per_page
        self.stats = VMStats()
        # Frame numbers are machine words: a table outgrows frames_total
        # only by the faults in flight, so it fits in unsigned shorts
        # while frames_total stays below half their range.
        self._frame_type = "H" if frames_total < 1 << 15 else "I"
        self._reset_frames()
        # freed swap slots, reused last-freed first
        self._free_slots = array("i")
        self._next_slot = 0
        # index -> space, in creation order
        self._spaces: Dict[int, AddressSpace] = {}
        self._next_space = 0
        # background reclaimer state (attach_reclaimer)
        self._reclaim_low = 0
        self._reclaim_high = 0
        self._reclaim_wakeup = None
        self._reclaimer_on = False

    def _reset_frames(self) -> None:
        """An empty frame table, in arrays indexed by frame number.

        Frame ``f`` holds page ``_page[f]`` of the space indexed
        ``_space[f]``, dirty if ``_dirty[f]``.  ``_prev`` and ``_next``
        link the resident frames into the LRU order around frame 0, a
        sentinel: ``_next[0]`` is the least recently used frame and
        ``_prev[0]`` the most recently used.  Freed frame numbers are
        reused from ``_free_frames``, last freed first.
        """
        self._space = array("I", [0])
        self._page = array("I", [0])
        self._dirty = bytearray(1)
        self._prev = array(self._frame_type, [0])
        self._next = array(self._frame_type, [0])
        self._free_frames = array(self._frame_type)
        self._resident = 0

    # -- address-space management ------------------------------------------
    def create_space(self, name: str) -> AddressSpace:
        index = self._next_space
        self._next_space += 1
        aspace = AddressSpace(name=name, index=index,
                              frames=array(self._frame_type))
        self._spaces[index] = aspace
        return aspace

    def destroy_space(self, aspace: AddressSpace) -> None:
        """Process exit: free its frames and swap slots (no I/O).

        The other spaces' pages keep their LRU order.  Once no page is
        resident, the frame table goes back to empty arrays, so what it
        grew to at its high-water mark goes with the last space.
        """
        for frame in aspace.frames:
            if frame:
                self._unlink(frame)
                self._free_frames.append(frame)
                self._resident -= 1
        if not self._resident:
            self._reset_frames()
        self._free_slots.extend(aspace.slot_order)
        aspace.rss = 0
        aspace.frames = array(self._frame_type)
        aspace.swapped = bytearray()
        aspace.slots = array("i")
        aspace.slot_order = array("i")
        self._spaces.pop(aspace.index, None)

    @property
    def frames_used(self) -> int:
        return self._resident

    @property
    def frames_free(self) -> int:
        return self.frames_total - self._resident

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

    def _kswapd(self, sim):
        while True:
            if self.frames_free >= self._reclaim_low or not self._resident:
                self._reclaim_wakeup = sim.event()
                yield self._reclaim_wakeup
                self._reclaim_wakeup = None
            while self._resident and self.frames_free < self._reclaim_high:
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
        frames = aspace.frames
        if page_id >= len(frames):
            return False
        frame = frames[page_id]
        if not frame:
            return False
        self.stats.hits += 1
        prev = self._prev
        succ = self._next
        last = prev[0]
        if frame != last:
            # _unlink and _link_last inlined: a 16-node ``single-apps``
            # pass hits about 505k times
            before = prev[frame]
            after = succ[frame]
            succ[before] = after
            prev[after] = before
            succ[last] = frame
            prev[frame] = last
            succ[frame] = 0
            prev[0] = frame
        if write:
            self._dirty[frame] = 1
            # Re-dirtying invalidates the swap copy (swap cache).
            swapped = aspace.swapped
            if page_id < len(swapped):
                swapped[page_id] = 0
        return True

    def access(self, aspace: AddressSpace, page_id: int, write: bool = False):
        """Touch one page; a generator that performs fault I/O if needed."""
        if not self.note_access(aspace, page_id, write):
            yield from self.fault(aspace, page_id, write)

    def fault(self, aspace: AddressSpace, page_id: int, write: bool = False):
        """Generator: bring in a page that :meth:`note_access` found
        non-resident (reclaiming a frame first if none is free).

        Callers that already tried ``note_access`` call this directly,
        so a fault does not look the page up twice.
        """
        self.stats.faults += 1
        if self._resident >= self.frames_total:
            self.stats.direct_reclaims += 1
        while self._resident >= self.frames_total:
            yield from self._evict_one()
        self._kick_reclaimer()
        # Bring the page in (the bitmap and sector lookups inlined: a
        # 16-node ``combined`` run faults about 300k times).
        swapped = aspace.swapped
        pages = aspace.file_pages
        if page_id < len(swapped) and swapped[page_id]:
            slot = aspace.slots[page_id]
            self.stats.swap_ins += 1
            yield self.driver.read_sectors(self._slot_sector(slot),
                                           self.sectors_per_page,
                                           origin=f"swapin:{aspace.name}")
            if write:
                swapped[page_id] = 0
        elif page_id < len(pages) and pages[page_id] >= 0:
            self.stats.demand_loads += 1
            yield self.driver.read_sectors(pages[page_id],
                                           self.sectors_per_page,
                                           origin=f"demand:{aspace.name}")
        else:
            self.stats.zero_fills += 1
        self._install(aspace, page_id, write)

    def touch_range(self, aspace: AddressSpace, first_page: int,
                    npages: int, write: bool = False):
        """Touch ``npages`` consecutive pages (demand-loading a region)."""
        hit = self.note_access
        for page_id in range(first_page, first_page + npages):
            if not hit(aspace, page_id, write):
                yield from self.fault(aspace, page_id, write)

    # -- checkpoint state surface ---------------------------------------
    def space_by_name(self, name: str) -> AddressSpace:
        """Find a (restored) address space by its label."""
        for aspace in self._spaces.values():
            if aspace.name == name:
                return aspace
        raise KeyError(f"no address space named {name!r}")

    def snapshot_state(self) -> dict:
        """Frame pool, swap map, and address spaces, re-keyed by name.

        Live bookkeeping keys a page by its space's creation index; the
        snapshot uses the space *name* instead (unique per node: one
        space per application instance).
        """
        names = {index: a.name for index, a in self._spaces.items()}
        s = self.stats
        n = self.sectors_per_page
        return {
            "spaces": [{"name": a.name,
                        "file_pages": [[p, sec, n] for p, sec
                                       in enumerate(a.file_pages)
                                       if sec >= 0],
                        "swapped": [p for p, copy in enumerate(a.swapped)
                                    if copy],
                        "resident": [p for p, frame in enumerate(a.frames)
                                     if frame]}
                       for a in self._spaces.values()],
            "frames": [[names[self._space[f]], self._page[f],
                        bool(self._dirty[f])] for f in self._lru_order()],
            "slots": sorted([a.name, page, slot]
                            for a in self._spaces.values()
                            for page, slot in enumerate(a.slots)
                            if slot >= 0),
            "free_slots": list(self._free_slots),
            "next_slot": self._next_slot,
            "stats": {k: getattr(s, k) for k in vars(s)},
        }

    def restore_state(self, state: dict) -> None:
        self._spaces = {}
        self._next_space = 0
        self._reset_frames()
        for sp in state["spaces"]:
            aspace = self.create_space(sp["name"])
            for p, sec, n in sp["file_pages"]:
                if int(n) != self.sectors_per_page:
                    raise ValueError(
                        f"file page of {n} sectors in a VM of "
                        f"{self.sectors_per_page}-sector pages")
                aspace.map_file_page(int(p), int(sec))
        by_name = {a.name: a for a in self._spaces.values()}
        for name, page, dirty in state["frames"]:
            self._install(by_name[name], int(page), bool(dirty))
        for name, page, slot in state["slots"]:
            self._assign_slot(by_name[name], int(page), int(slot))
        # a swap copy sits in its page's slot, so its bit already exists
        for sp in state["spaces"]:
            swapped = by_name[sp["name"]].swapped
            for page in sp["swapped"]:
                swapped[int(page)] = 1
        self._free_slots = array("i", [int(s) for s in state["free_slots"]])
        self._next_slot = int(state["next_slot"])
        self.stats = VMStats(**{k: int(v)
                                for k, v in state["stats"].items()})

    # -- internals ------------------------------------------------------------
    def _install(self, aspace: AddressSpace, page: int, dirty: bool) -> None:
        """Make ``page`` resident at the most recently used end.

        A page made resident meanwhile by another fault keeps its place
        and takes ``dirty``.
        """
        frames = aspace.frames
        if page < len(frames) and frames[page]:
            self._dirty[frames[page]] = dirty
            return
        if self._free_frames:
            frame = self._free_frames.pop()
            self._space[frame] = aspace.index
            self._page[frame] = page
            self._dirty[frame] = dirty
        else:
            frame = len(self._page)
            self._space.append(aspace.index)
            self._page.append(page)
            self._dirty.append(dirty)
            self._prev.append(0)
            self._next.append(0)
        self._link_last(frame)
        if page >= len(frames):
            frames.extend(array(self._frame_type, [0]) *
                          (page + 1 - len(frames)))
        frames[page] = frame
        self._resident += 1
        aspace.rss += 1

    def _unlink(self, frame: int) -> None:
        before = self._prev[frame]
        after = self._next[frame]
        self._next[before] = after
        self._prev[after] = before

    def _link_last(self, frame: int) -> None:
        """Link ``frame`` in at the most recently used end."""
        last = self._prev[0]
        self._next[last] = frame
        self._prev[frame] = last
        self._next[frame] = 0
        self._prev[0] = frame

    def _lru_order(self):
        """Resident frame numbers, least recently used first."""
        succ = self._next
        frame = succ[0]
        while frame:
            yield frame
            frame = succ[frame]

    def _evict_one(self):
        frame = self._next[0]
        self._unlink(frame)
        self._free_frames.append(frame)
        self._resident -= 1
        page = self._page[frame]
        victim = self._spaces[self._space[frame]]
        victim.frames[page] = 0
        victim.rss -= 1
        self.stats.evictions += 1
        if self._dirty[frame]:
            slot = self._ensure_slot(victim, page)
            # taken before the write: a space destroyed meanwhile drops
            # this bitmap, and the copy with it
            swapped = victim.swapped
            self.stats.swap_outs += 1
            yield self.driver.write_sectors(self._slot_sector(slot),
                                            self.sectors_per_page,
                                            origin=f"swapout:{victim.name}")
            swapped[page] = 1
        # Clean pages are simply dropped: if their swap copy is still
        # valid the next touch swap-ins; file-backed pages demand-load
        # again; pure anonymous pages zero-fill again.

    def _ensure_slot(self, aspace: AddressSpace, page: int) -> int:
        slots = aspace.slots
        if page < len(slots) and slots[page] >= 0:
            return slots[page]
        if self._free_slots:
            slot = self._free_slots.pop()
        else:
            if self._next_slot >= self.swap_slots:
                raise OutOfSwap(f"swap full ({self.swap_slots} slots)")
            slot = self._next_slot
            self._next_slot += 1
        self._assign_slot(aspace, page, slot)
        return slot

    @staticmethod
    def _assign_slot(aspace: AddressSpace, page: int, slot: int) -> None:
        slots = aspace.slots
        if page >= len(slots):
            grow = page + 1 - len(slots)
            slots.extend(array("i", [-1]) * grow)
            aspace.swapped.extend(bytes(grow))
        slots[page] = slot
        aspace.slot_order.append(slot)

    def _slot_sector(self, slot: int) -> int:
        return self.swap_start + slot * self.sectors_per_page
