"""Stateful (rule-based) property tests for the buffer cache and FS.

Hypothesis drives random operation sequences against the buffer cache
and the filesystem, checking the structural invariants after every step:
capacity is never exceeded, dirty accounting matches, sync really cleans,
and FS block accounting stays consistent with the zone allocators.
"""

import numpy as np
from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)
from hypothesis import strategies as st

from repro.disk import Disk, SingleVolume
from repro.driver import InstrumentedIDEDriver, ProcTraceTransport
from repro.kernel import BufferCache, FileSystem
from repro.sim import Simulator

CAPACITY = 16


class CacheMachine(RuleBasedStateMachine):
    """Random reads/writes/flushes against a small BufferCache."""

    @initialize()
    def setup(self):
        self.sim = Simulator()
        disk = Disk(self.sim, rng=np.random.default_rng(0))
        driver = InstrumentedIDEDriver(self.sim, SingleVolume([disk]),
                                       transport=ProcTraceTransport(self.sim))
        self.cache = BufferCache(self.sim, driver, capacity_blocks=CAPACITY,
                                 sectors_per_block=2, cluster_blocks=3)
        self.model_dirty = set()

    def _run(self, gen):
        self.sim.process(gen)
        self.sim.run(until=self.sim.now + 60.0)

    @rule(block=st.integers(min_value=0, max_value=60))
    def read(self, block):
        self._run(self.cache.read_block(block))
        assert self.cache.contains(block)
        self.model_dirty &= self._cached_dirty()

    @rule(block=st.integers(min_value=0, max_value=60))
    def write(self, block):
        self._run(self.cache.write_block(block))
        assert self.cache.is_dirty(block)
        self.model_dirty.add(block)
        self.model_dirty &= self._cached_dirty() | {block}

    @rule(start=st.integers(min_value=0, max_value=50),
          count=st.integers(min_value=1, max_value=8))
    def read_range(self, start, count):
        self._run(self.cache.read_range(start, count))
        for b in range(start, start + count):
            assert self.cache.contains(b)
        self.model_dirty &= self._cached_dirty()

    @rule()
    def sync(self):
        self._run(self.cache.sync())
        assert self.cache.dirty_count == 0
        self.model_dirty.clear()

    def _cached_dirty(self):
        return {b for b in range(62) if self.cache.is_dirty(b)}

    @invariant()
    def capacity_respected(self):
        if hasattr(self, "cache"):
            assert len(self.cache) <= CAPACITY

    @invariant()
    def dirty_accounting_consistent(self):
        if hasattr(self, "cache"):
            assert self.cache.dirty_count == len(self._cached_dirty())
            # every dirty block we expect is still dirty (eviction may
            # have cleaned some, but cleaning happens via writeback which
            # resets is_dirty -- so model ⊇ cache-dirty is NOT guaranteed;
            # cache-dirty ⊆ model is:
            assert self._cached_dirty() <= self.model_dirty | set()


class FsMachine(RuleBasedStateMachine):
    """Random create/extend/unlink sequences against the filesystem."""

    @initialize()
    def setup(self):
        self.sim = Simulator()
        disk = Disk(self.sim, rng=np.random.default_rng(0))
        driver = InstrumentedIDEDriver(self.sim, SingleVolume([disk]),
                                       transport=ProcTraceTransport(self.sim))
        cache = BufferCache(self.sim, driver, capacity_blocks=4096,
                            sectors_per_block=2)
        self.fs = FileSystem(cache)
        self.counter = 0
        self.live = {}              # path -> expected size
        self.free0 = self.fs.zone_blocks_free("data")

    def _run(self, gen):
        box = {}

        def runner():
            box["v"] = yield from gen

        self.sim.process(runner())
        self.sim.run(until=self.sim.now + 60.0)
        return box.get("v")

    @rule()
    def create(self):
        path = f"/f{self.counter}"
        self.counter += 1
        self._run(self.fs.create(path))
        self.live[path] = 0
        assert self.fs.exists(path)

    @rule(kb=st.integers(min_value=1, max_value=64))
    def extend(self, kb):
        if not self.live:
            return
        path = sorted(self.live)[0]
        inode = self.fs.lookup(path)
        new_size = max(self.live[path], inode.size_bytes + kb * 1024)
        self._run(self.fs.truncate_extend(inode, new_size))
        self.live[path] = new_size
        assert inode.size_bytes == new_size
        assert inode.nblocks == -(-new_size // 1024)

    @rule()
    def unlink(self):
        if not self.live:
            return
        path = sorted(self.live)[-1]
        self._run(self.fs.unlink(path))
        del self.live[path]
        assert not self.fs.exists(path)

    @invariant()
    def block_accounting_conserved(self):
        if not hasattr(self, "fs"):
            return
        inodes = self.fs.snapshot_state()["inodes"].values()
        used = sum(len(i["blocks"]) + len(i["indirect"]) for i in inodes
                   if i["zone"] == "data" and not i["is_dir"])
        dir_blocks = sum(len(i["blocks"]) for i in inodes if i["is_dir"])
        assert self.fs.zone_blocks_free("data") == \
            self.free0 - used - dir_blocks + self._dir_blocks0()

    def _dir_blocks0(self):
        # the root directory may have had blocks at init time (it doesn't)
        return 0

    @invariant()
    def sizes_match_model(self):
        if not hasattr(self, "fs"):
            return
        for path, size in self.live.items():
            assert self.fs.lookup(path).size_bytes == size


TestCacheMachine = CacheMachine.TestCase
TestCacheMachine.settings = settings(max_examples=25,
                                     stateful_step_count=30,
                                     deadline=None)
TestFsMachine = FsMachine.TestCase
TestFsMachine.settings = settings(max_examples=25, stateful_step_count=30,
                                  deadline=None)
