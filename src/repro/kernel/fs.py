"""A minimal ext2-like filesystem over the buffer cache.

What matters for the study is *where file bytes land on the disk* — spatial
locality in the traces is a direct image of allocation policy.  The
filesystem therefore implements real block accounting: zoned first-fit
allocation, an inode table and block bitmap living in the metadata zone
(whose write-back produces the low-sector metadata writes of the baseline),
direct + indirect block mapping, and hierarchical directories whose entry
blocks are dirtied on mutation.

File *contents* are not stored — the simulation tracks geometry and timing,
not bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.kernel.buffercache import BufferCache

#: inodes per metadata block (128-byte on-disk inodes, 1 KB blocks)
INODES_PER_BLOCK = 8
#: direct block pointers in an inode before indirection starts
DIRECT_BLOCKS = 12
#: block pointers per 1 KB indirect block (4-byte pointers)
POINTERS_PER_INDIRECT = 256
#: directory entries per block
DENTRIES_PER_BLOCK = 32


class FsError(Exception):
    """Filesystem-level failure (missing path, no space, ...)."""


@dataclass
class Inode:
    """On-disk file metadata plus its block map."""

    ino: int
    zone: str
    is_dir: bool = False
    size_bytes: int = 0
    blocks: List[int] = field(default_factory=list)
    indirect_blocks: List[int] = field(default_factory=list)

    @property
    def nblocks(self) -> int:
        return len(self.blocks)


@dataclass
class _Dir:
    inode: Inode
    entries: Dict[str, "int"] = field(default_factory=dict)


class _ZoneAllocator:
    """First-fit block allocator inside one disk zone."""

    def __init__(self, start_block: int, nblocks: int):
        self.start = start_block
        self.end = start_block + nblocks
        self._free: List[int] = []      # returned blocks, reused first
        self._next = start_block

    @property
    def blocks_free(self) -> int:
        return len(self._free) + (self.end - self._next)

    def alloc(self) -> int:
        if self._free:
            return self._free.pop()
        if self._next >= self.end:
            raise FsError("zone full")
        block = self._next
        self._next += 1
        return block

    def free(self, block: int) -> None:
        if not (self.start <= block < self.end):
            raise FsError(f"block {block} not in zone")
        self._free.append(block)


class FileSystem:
    """Zoned mini-ext2 with real metadata I/O through the buffer cache."""

    def __init__(self, cache: BufferCache, layout=None,
                 block_kb: int = 1, max_inodes: int = 4096,
                 atime_updates: bool = False):
        if layout is None:
            from repro.config import LayoutConfig
            layout = LayoutConfig()
        self.cache = cache
        self.layout = layout
        self.block_kb = block_kb
        #: classic Unix semantics dirty the inode on every read (access
        #: time); off by default — the studied system's effect is already
        #: captured in the housekeeping calibration
        self.atime_updates = atime_updates
        self.sectors_per_block = block_kb * 1024 // 512
        self.max_inodes = max_inodes

        spb = self.sectors_per_block
        meta_start, meta_sectors = self.layout.zone("metadata")
        self._meta_first_block = meta_start // spb
        meta_blocks = meta_sectors // spb
        # metadata layout: [superblock][block bitmap][inode table]
        self.superblock_block = self._meta_first_block
        self._bitmap_blocks = 64
        self._inode_table_first = self._meta_first_block + 1 + self._bitmap_blocks
        inode_table_blocks = -(-max_inodes // INODES_PER_BLOCK)
        if 1 + self._bitmap_blocks + inode_table_blocks > meta_blocks:
            raise FsError("metadata zone too small for inode table")

        self._zones: Dict[str, _ZoneAllocator] = {}
        for name in ("log", "binary", "data", "highlog"):
            start, nsectors = self.layout.zone(name)
            self._zones[name] = _ZoneAllocator(start // spb, nsectors // spb)

        self._inodes: Dict[int, Inode] = {}
        self._next_ino = 2  # 1 reserved, 2 = root, like ext2
        self._dirs: Dict[int, _Dir] = {}
        root = self._new_inode(zone="data", is_dir=True)
        self.root_ino = root.ino
        self._dirs[root.ino] = _Dir(root)

    # -- inode / metadata helpers ------------------------------------------
    def _new_inode(self, zone: str, is_dir: bool = False) -> Inode:
        if len(self._inodes) >= self.max_inodes:
            raise FsError("out of inodes")
        if zone not in self._zones:
            raise FsError(f"unknown zone {zone!r}")
        inode = Inode(ino=self._next_ino, zone=zone, is_dir=is_dir)
        self._next_ino += 1
        self._inodes[inode.ino] = inode
        return inode

    def inode_table_block(self, ino: int) -> int:
        """Metadata block holding ``ino``'s on-disk inode."""
        return self._inode_table_first + (ino - 1) // INODES_PER_BLOCK

    def _dirty_inode(self, inode: Inode):
        yield from self.cache.write_block(self.inode_table_block(inode.ino))

    def note_dirty_inode(self, inode: Inode) -> bool:
        """Dirty the inode's table block if resident; ``False`` on a miss.

        Plain-call fast path of :meth:`_dirty_inode` (see
        :meth:`BufferCache.note_write`); on ``False`` the caller drives
        the generator instead.
        """
        return self.cache.note_write(self.inode_table_block(inode.ino))

    def _dirty_bitmap(self, block: int):
        bitmap_block = (self._meta_first_block + 1
                        + (block // (self.block_kb * 8192)) % self._bitmap_blocks)
        yield from self.cache.write_block(bitmap_block)

    # -- path handling --------------------------------------------------------
    @staticmethod
    def _split(path: str) -> List[str]:
        parts = [p for p in path.split("/") if p]
        if not parts:
            raise FsError("empty path")
        return parts

    def _walk_dir(self, parts: List[str]) -> _Dir:
        current = self._dirs[self.root_ino]
        for name in parts:
            ino = current.entries.get(name)
            if ino is None or ino not in self._dirs:
                raise FsError(f"no such directory: {name!r}")
            current = self._dirs[ino]
        return current

    def lookup(self, path: str) -> Inode:
        parts = self._split(path)
        parent = self._walk_dir(parts[:-1])
        ino = parent.entries.get(parts[-1])
        if ino is None:
            raise FsError(f"no such file: {path!r}")
        return self._inodes[ino]

    def exists(self, path: str) -> bool:
        try:
            self.lookup(path)
            return True
        except FsError:
            return False

    # -- directory operations ---------------------------------------------
    def mkdir(self, path: str):
        """Create a directory; returns its Inode."""
        parts = self._split(path)
        parent = self._walk_dir(parts[:-1])
        if parts[-1] in parent.entries:
            raise FsError(f"already exists: {path!r}")
        inode = self._new_inode(zone="data", is_dir=True)
        self._dirs[inode.ino] = _Dir(inode)
        yield from self._add_dentry(parent, parts[-1], inode.ino)
        yield from self._dirty_inode(inode)
        return inode

    def makedirs(self, path: str):
        """Create every missing directory along ``path``."""
        parts = self._split(path)
        current = self._dirs[self.root_ino]
        for name in parts:
            ino = current.entries.get(name)
            if ino is None:
                inode = self._new_inode(zone="data", is_dir=True)
                self._dirs[inode.ino] = _Dir(inode)
                yield from self._add_dentry(current, name, inode.ino)
                yield from self._dirty_inode(inode)
                current = self._dirs[inode.ino]
            elif ino in self._dirs:
                current = self._dirs[ino]
            else:
                raise FsError(f"not a directory: {name!r}")

    def listdir(self, path: str) -> List[str]:
        if path in ("/", ""):
            return sorted(self._dirs[self.root_ino].entries)
        inode = self.lookup(path)
        if not inode.is_dir:
            raise FsError(f"not a directory: {path!r}")
        return sorted(self._dirs[inode.ino].entries)

    def _add_dentry(self, parent: _Dir, name: str, ino: int):
        parent.entries[name] = ino
        # Growing past a block boundary allocates a new dentry block.
        needed_blocks = -(-len(parent.entries) // DENTRIES_PER_BLOCK)
        while parent.inode.nblocks < needed_blocks:
            yield from self._alloc_block(parent.inode)
        if parent.inode.blocks:
            dentry_block = parent.inode.blocks[
                (len(parent.entries) - 1) // DENTRIES_PER_BLOCK]
            yield from self.cache.write_block(dentry_block)
        yield from self._dirty_inode(parent.inode)

    # -- file operations --------------------------------------------------
    def create(self, path: str, zone: str = "data"):
        """Create an empty file; returns its Inode."""
        parts = self._split(path)
        parent = self._walk_dir(parts[:-1])
        if parts[-1] in parent.entries:
            raise FsError(f"already exists: {path!r}")
        inode = self._new_inode(zone=zone)
        yield from self._add_dentry(parent, parts[-1], inode.ino)
        yield from self._dirty_inode(inode)
        return inode

    def unlink(self, path: str):
        parts = self._split(path)
        parent = self._walk_dir(parts[:-1])
        ino = parent.entries.get(parts[-1])
        if ino is None:
            raise FsError(f"no such file: {path!r}")
        inode = self._inodes[ino]
        if inode.is_dir:
            raise FsError("unlink of a directory")
        zone = self._zones[inode.zone]
        for block in inode.blocks + inode.indirect_blocks:
            zone.free(block)
            yield from self._dirty_bitmap(block)
        del parent.entries[parts[-1]]
        del self._inodes[ino]
        yield from self._dirty_inode(inode)

    def _alloc_block(self, inode: Inode):
        zone = self._zones[inode.zone]
        block = zone.alloc()
        inode.blocks.append(block)
        # Every POINTERS_PER_INDIRECT data blocks past the direct region
        # consume one indirect block.
        indexed = len(inode.blocks) - DIRECT_BLOCKS
        if indexed > 0 and (indexed - 1) % POINTERS_PER_INDIRECT == 0:
            ind = zone.alloc()
            inode.indirect_blocks.append(ind)
            yield from self.cache.write_block(ind)
        yield from self._dirty_bitmap(block)
        return block

    def truncate_extend(self, inode: Inode, new_size: int):
        """Grow a file to ``new_size`` bytes, allocating blocks."""
        if new_size < inode.size_bytes:
            raise FsError("shrinking not supported")
        block_bytes = self.block_kb * 1024
        needed = -(-new_size // block_bytes)
        while inode.nblocks < needed:
            yield from self._alloc_block(inode)
        inode.size_bytes = new_size
        if not self.note_dirty_inode(inode):
            yield from self._dirty_inode(inode)

    def note_extend(self, inode: Inode, new_size: int) -> bool:
        """No-allocation fast path of :meth:`truncate_extend`.

        Succeeds only when the file already has the blocks and the inode
        table block is resident; ``False`` leaves everything untouched
        (including validation — the generator raises on a shrink).
        """
        if new_size < inode.size_bytes:
            return False
        block_bytes = self.block_kb * 1024
        if inode.nblocks < -(-new_size // block_bytes):
            return False
        if not self.cache.note_write(self.inode_table_block(inode.ino)):
            return False
        inode.size_bytes = new_size
        return True

    # -- block mapping ------------------------------------------------------
    def _indirect_block_for(self, inode: Inode, index: int) -> Optional[int]:
        if index < DIRECT_BLOCKS or not inode.indirect_blocks:
            return None
        which = (index - DIRECT_BLOCKS) // POINTERS_PER_INDIRECT
        return inode.indirect_blocks[min(which, len(inode.indirect_blocks) - 1)]

    def map_blocks(self, inode: Inode, first_index: int, nblocks: int):
        """Resolve file-relative block indices to absolute runs.

        Reads any needed indirect blocks through the cache (a real,
        traceable access), then returns ``[(abs_block, count), ...]``
        covering the requested range in order.
        """
        if first_index < 0 or nblocks < 1:
            raise FsError("bad block range")
        if first_index + nblocks > inode.nblocks:
            raise FsError(
                f"range [{first_index}, {first_index + nblocks}) beyond "
                f"file of {inode.nblocks} blocks")
        seen_indirect = set()
        for idx in range(first_index, first_index + nblocks):
            ind = self._indirect_block_for(inode, idx)
            if ind is not None and ind not in seen_indirect:
                seen_indirect.add(ind)
                yield from self.cache.read_block(ind)
        runs: List[Tuple[int, int]] = []
        for idx in range(first_index, first_index + nblocks):
            block = inode.blocks[idx]
            if runs and runs[-1][0] + runs[-1][1] == block:
                runs[-1] = (runs[-1][0], runs[-1][1] + 1)
            else:
                runs.append((block, 1))
        return runs

    def note_map_blocks(self, inode: Inode, first_index: int,
                        nblocks: int) -> Optional[List[Tuple[int, int]]]:
        """Resolve a range whose indirect blocks are all cache-resident.

        The plain-call fast path of :meth:`map_blocks`: returns the same
        runs — with the same cache-hit accounting and LRU touches, in
        the same order — or ``None``, with *no* effect at all, when any
        needed indirect block would miss (or the range is invalid); the
        caller then drives the generator.
        """
        if (first_index < 0 or nblocks < 1
                or first_index + nblocks > inode.nblocks):
            return None
        cache = self.cache
        indirects = inode.indirect_blocks
        needed: List[int] = []
        if indirects and first_index + nblocks > DIRECT_BLOCKS:
            # _indirect_block_for, inlined across the range (consecutive
            # data blocks nearly always share one indirect block)
            last_which = len(indirects) - 1
            for idx in range(max(first_index, DIRECT_BLOCKS),
                             first_index + nblocks):
                which = (idx - DIRECT_BLOCKS) // POINTERS_PER_INDIRECT
                ind = indirects[which if which < last_which else last_which]
                if ind not in needed:
                    if not cache.contains(ind):
                        return None
                    needed.append(ind)
        for ind in needed:
            cache.stats.hits += 1
            cache._touch(ind)
        runs: List[Tuple[int, int]] = []
        for idx in range(first_index, first_index + nblocks):
            block = inode.blocks[idx]
            if runs and runs[-1][0] + runs[-1][1] == block:
                runs[-1] = (runs[-1][0], runs[-1][1] + 1)
            else:
                runs.append((block, 1))
        return runs

    # -- checkpoint state surface ---------------------------------------
    def snapshot_state(self) -> dict:
        """Namespace, inode table, and allocator positions."""
        return {
            "zones": {name: {"free": list(z._free), "next": z._next}
                      for name, z in self._zones.items()},
            "inodes": {str(i.ino): {"zone": i.zone, "is_dir": i.is_dir,
                                    "size_bytes": i.size_bytes,
                                    "blocks": list(i.blocks),
                                    "indirect": list(i.indirect_blocks)}
                       for i in self._inodes.values()},
            "dirs": {str(ino): sorted(d.entries.items())
                     for ino, d in self._dirs.items()},
            "next_ino": self._next_ino,
            "root_ino": self.root_ino,
        }

    def restore_state(self, state: dict) -> None:
        for name, z in state["zones"].items():
            zone = self._zones[name]
            zone._free = [int(b) for b in z["free"]]
            zone._next = int(z["next"])
        self._inodes = {}
        for ino, rec in state["inodes"].items():
            inode = Inode(ino=int(ino), zone=rec["zone"],
                          is_dir=bool(rec["is_dir"]),
                          size_bytes=int(rec["size_bytes"]),
                          blocks=[int(b) for b in rec["blocks"]],
                          indirect_blocks=[int(b)
                                           for b in rec["indirect"]])
            self._inodes[inode.ino] = inode
        # directory records alias the freshly-built inode objects
        self._dirs = {int(ino): _Dir(self._inodes[int(ino)],
                                     {name: int(e)
                                      for name, e in entries})
                      for ino, entries in state["dirs"].items()}
        self._next_ino = int(state["next_ino"])
        self.root_ino = int(state["root_ino"])

    # -- consistency checking ---------------------------------------------
    def fsck(self) -> List[str]:
        """Consistency check; returns a list of problems (empty = clean).

        Verifies the invariants an fsck would: every block owned by at
        most one inode, blocks inside their inode's zone, sizes consistent
        with block counts, directory entries pointing at live inodes, and
        indirect-block accounting matching the file length.
        """
        problems: List[str] = []
        owner: Dict[int, int] = {}
        for inode in self._inodes.values():
            zone = self._zones.get(inode.zone)
            if zone is None and not inode.is_dir:
                problems.append(f"inode {inode.ino}: unknown zone "
                                f"{inode.zone!r}")
                continue
            for block in inode.blocks + inode.indirect_blocks:
                if block in owner:
                    problems.append(
                        f"block {block} owned by inodes {owner[block]} "
                        f"and {inode.ino}")
                owner[block] = inode.ino
                z = self._zones["data"] if inode.is_dir else zone
                if not (z.start <= block < z.end):
                    problems.append(
                        f"inode {inode.ino}: block {block} outside its "
                        f"{inode.zone!r} zone [{z.start}, {z.end})")
            needed = -(-inode.size_bytes // (self.block_kb * 1024))
            if inode.nblocks < needed:
                problems.append(
                    f"inode {inode.ino}: size {inode.size_bytes} needs "
                    f"{needed} blocks, has {inode.nblocks}")
            indexed = max(0, inode.nblocks - DIRECT_BLOCKS)
            expected_indirect = -(-indexed // POINTERS_PER_INDIRECT) \
                if indexed else 0
            if len(inode.indirect_blocks) != expected_indirect:
                problems.append(
                    f"inode {inode.ino}: {len(inode.indirect_blocks)} "
                    f"indirect blocks, expected {expected_indirect}")
        for directory in self._dirs.values():
            for name, ino in directory.entries.items():
                if ino not in self._inodes:
                    problems.append(
                        f"dentry {name!r} in dir {directory.inode.ino} "
                        f"points at missing inode {ino}")
        return problems

    # -- whole-fs operations -------------------------------------------------
    def sync_metadata(self):
        """Dirty + flush the superblock (the update daemon's heartbeat)."""
        yield from self.cache.write_block(self.superblock_block)

    def iter_inodes(self) -> Iterator[Inode]:
        return iter(self._inodes.values())

    def zone_blocks_free(self, zone: str) -> int:
        return self._zones[zone].blocks_free
