"""The node kernel facade: one Beowulf node's operating system.

Wires disk + instrumented driver + buffer cache + filesystem + virtual
memory + CPU + logging daemons into a single object applications talk to.
This is the "Linux" of the reproduction: every disk request any application
causes flows through these components and is captured by the driver
instrumentation.
"""

from __future__ import annotations

from typing import Generator, Optional

import numpy as np

from repro.disk import Disk, DiskGeometry, DiskServiceModel
from repro.driver import InstrumentedIDEDriver, ProcTraceTransport, TraceLevel
from repro.kernel.buffercache import BufferCache
from repro.kernel.cpu import CPU
from repro.kernel.fs import FileSystem, Inode
from repro.kernel.klog import HousekeepingLoad, SysLogger, UpdateDaemon
from repro.kernel.readahead import ReadAheadState
from repro.kernel.syscalls import FileHandle
from repro.kernel.vm import VirtualMemory
from repro.sim import Process, RandomStreams, Simulator

#: bytes of one instrumentation record as written to the trace log file
TRACE_RECORD_BYTES = 32


class NodeKernel:
    """One node: hardware, kernel machinery, and system daemons.

    Everything about the node — disk stack (scheduler, drive cache,
    driver transport) and kernel tunables alike — comes from one
    :class:`~repro.config.NodeConfig` (default: the paper's node),
    validated here so a kernel built straight from a config gets the
    same checks as a scenario.
    """

    def __init__(self, sim: Simulator, node_config=None,
                 streams: Optional[RandomStreams] = None, node_id: int = 0,
                 housekeeping: bool = True,
                 housekeeping_message_rate: float = 3.0,
                 obs=None):
        # lazy import: repro.config imports the disk registries, which
        # live beside modules this kernel package also imports
        from repro.config import NodeConfig
        cfg = node_config if node_config is not None else NodeConfig()
        cfg.validate("node_config")
        self.node_config = cfg
        self.sim = sim
        self.node_id = node_id
        streams = streams or RandomStreams(seed=node_id)
        self.streams = streams

        # One Disk per member of the node's volume.  The first member
        # keeps the historical identity (RNG stream "disk", name
        # hda<node>) so a default single-disk scenario is bit-identical
        # to the pre-volume stack; extra members get their own streams
        # and names (hdb<node>, hdc<node>, ...).
        disks = []
        for i, disk_cfg in enumerate(cfg.disks):
            geometry = DiskGeometry.from_capacity_mb(disk_cfg.capacity_mb)
            disks.append(Disk(
                sim,
                service=DiskServiceModel(geometry=geometry),
                scheduler=disk_cfg.build_scheduler(),
                rng=streams.stream("disk" if i == 0 else f"disk{i}"),
                name=f"hd{chr(ord('a') + i)}{node_id}",
                # default: 128 KB on-drive segment buffer, as the
                # era's IDE drives carried
                cache=disk_cfg.build_cache(),
                media_error_rate=disk_cfg.media_error_rate,
                obs=obs))
        self.disks = tuple(disks)
        self.volume = cfg.volume.build(self.disks, name=f"md{node_id}")
        self.transport = ProcTraceTransport(
            sim, ring_capacity=cfg.driver.ring_capacity,
            drain_interval=cfg.driver.drain_interval,
            sink=self._instrumentation_sink)
        self.driver = InstrumentedIDEDriver(sim, self.volume,
                                            node_id=node_id,
                                            transport=self.transport)
        self.cache = BufferCache(
            sim, self.driver,
            capacity_blocks=cfg.buffer_cache_kb // cfg.block_kb,
            sectors_per_block=cfg.sectors_per_block,
            cluster_blocks=cfg.writeback_cluster_blocks)
        self.fs = FileSystem(self.cache, layout=cfg.layout,
                             block_kb=cfg.block_kb,
                             atime_updates=cfg.atime_updates)
        self.vm = VirtualMemory(self.driver, frames_total=cfg.user_frames,
                                page_kb=cfg.vm.page_kb, layout=cfg.layout)
        # kswapd keeps a small free pool so most faults avoid synchronous
        # (direct) reclaim; its batched swap-outs are part of the bursty
        # write clumping the combined figures show.
        self.vm.attach_reclaimer(sim)
        self.cpu = CPU(sim, speed=cfg.cpu_speed, timeslice=cfg.timeslice)

        # System daemons.  Several log files, as on a real system
        # (messages / daemon / wtmp), so quiescent writes land on a few
        # distinct sector groups instead of one sequential run.
        prefix = f"node{node_id}"
        self.syslog = SysLogger(sim, self.fs, "/var/log/messages",
                                zone="log",
                                flush_interval=cfg.bdflush_interval,
                                owner=f"{prefix}:syslog:messages")
        self.daemonlog = SysLogger(sim, self.fs, "/var/log/daemon",
                                   zone="log",
                                   flush_interval=cfg.bdflush_interval,
                                   owner=f"{prefix}:syslog:daemon")
        self.wtmplog = SysLogger(sim, self.fs, "/var/log/wtmp",
                                 zone="log",
                                 flush_interval=cfg.bdflush_interval,
                                 owner=f"{prefix}:syslog:wtmp")
        self.instlog = SysLogger(sim, self.fs, "/var/log/iotrace",
                                 zone="highlog",
                                 flush_interval=cfg.bdflush_interval,
                                 owner=f"{prefix}:syslog:iotrace")
        self.update = UpdateDaemon(sim, self.fs, interval=cfg.update_interval,
                                   buffer_age=cfg.bdflush_age,
                                   owner=f"{prefix}:update")
        self.housekeeping: Optional[HousekeepingLoad] = None
        if housekeeping:
            self.housekeeping = HousekeepingLoad(
                sim, self.fs,
                [self.syslog, self.daemonlog, self.wtmplog],
                rng=streams.stream("housekeeping"),
                message_rate=housekeeping_message_rate,
                owner=prefix)
        self._bdflush_on = True
        sim.process(self._bdflush(), name=f"bdflush:{node_id}")

        self.apps_running = 0

    @property
    def disk(self) -> Disk:
        """The first physical disk (the whole device under ``single``)."""
        return self.disks[0]

    # -- instrumentation plumbing ------------------------------------------
    def _instrumentation_sink(self, nrecords: int) -> None:
        # The user-space trace reader persists drained records; those file
        # writes are themselves visible in the trace (as in the paper,
        # where "system and instrumentation logging" dominate baseline
        # writes).
        self.instlog.log(nrecords * TRACE_RECORD_BYTES)

    @property
    def trace_buffer(self):
        """User-space trace records collected so far."""
        return self.transport.user_buffer

    def trace_array(self) -> np.ndarray:
        self.transport.drain_now()
        return self.transport.user_buffer.to_array()

    def set_trace_level(self, level: TraceLevel) -> None:
        from repro.driver import HDIO_SET_TRACE
        self.driver.ioctl(HDIO_SET_TRACE, level)

    # -- file API -------------------------------------------------------------
    def effective_readahead_kb(self) -> int:
        """Read-ahead ceiling: scales up under multiprogramming.

        The paper attributes the 16-32 KB requests of the combined run to
        "an increased I/O buffer size" when several applications load the
        system; we model that as a doubling of the window ceiling once
        more than one application is resident.
        """
        scale = 2 if self.apps_running > 1 else 1
        return self.node_config.max_readahead_kb * scale

    def create(self, path: str, zone: str = "data"):
        """Generator: create a file; returns an open FileHandle."""
        inode = yield from self.fs.create(path, zone=zone)
        return self._handle(inode)

    def open(self, path: str) -> FileHandle:
        """Open an existing file (namespace lookup only; no disk I/O)."""
        return self._handle(self.fs.lookup(path))

    def _handle(self, inode: Inode) -> FileHandle:
        ra = ReadAheadState(block_kb=self.node_config.block_kb,
                            max_window_provider=self.effective_readahead_kb)
        return FileHandle(self.fs, inode, readahead=ra)

    # -- process management ----------------------------------------------
    def spawn(self, generator: Generator, name: str = "app") -> Process:
        """Run an application generator, tracking the multiprogramming level."""
        self.apps_running += 1

        def wrapper():
            try:
                result = yield from generator
            finally:
                self.apps_running -= 1
            return result

        return self.sim.process(wrapper(), name=name)

    # -- checkpoint state surface ---------------------------------------
    def snapshot_state(self) -> dict:
        """Every stateful component of this node, as one plain tree."""
        tree = {
            "streams": self.streams.snapshot_state(),
            "disks": [d.snapshot_state() for d in self.disks],
            "volume": self.volume.snapshot_state(),
            "driver": self.driver.snapshot_state(),
            "transport": self.transport.snapshot_state(),
            "cache": self.cache.snapshot_state(),
            "fs": self.fs.snapshot_state(),
            "vm": self.vm.snapshot_state(),
            "cpu": self.cpu.snapshot_state(),
            "loggers": {name: getattr(self, name).snapshot_state()
                        for name in ("syslog", "daemonlog", "wtmplog",
                                     "instlog")},
            "update": self.update.snapshot_state(),
            "housekeeping": (None if self.housekeeping is None
                             else self.housekeeping.snapshot_state()),
        }
        return tree

    def restore_state(self, state: dict) -> None:
        self.streams.restore_state(state["streams"])
        for disk, sub in zip(self.disks, state["disks"]):
            disk.restore_state(sub)
        self.volume.restore_state(state["volume"])
        self.driver.restore_state(state["driver"])
        self.transport.restore_state(state["transport"])
        self.cache.restore_state(state["cache"])
        self.fs.restore_state(state["fs"])
        self.vm.restore_state(state["vm"])
        self.cpu.restore_state(state["cpu"])
        for name, sub in state["loggers"].items():
            getattr(self, name).restore_state(sub)
        self.update.restore_state(state["update"])
        if state["housekeeping"] is not None:
            self.housekeeping.restore_state(state["housekeeping"])

    def shutdown_daemons(self) -> None:
        """Stop periodic daemons so the simulation can drain."""
        self.syslog.stop()
        self.daemonlog.stop()
        self.wtmplog.stop()
        self.instlog.stop()
        self.update.stop()
        if self.housekeeping is not None:
            self.housekeeping.stop()
        self.transport.stop()
        self.vm.stop_reclaimer()
        self._bdflush_on = False

    # -- daemons ---------------------------------------------------------------
    def _bdflush(self):
        sim = self.sim
        cache = self.cache
        interval = self.node_config.bdflush_interval
        age = self.node_config.bdflush_age
        owner = f"node{self.node_id}:bdflush"
        while self._bdflush_on:
            yield sim.tick(owner, lambda: interval)
            # ``has_aged_dirty`` is the quiescent-tick fast path: most
            # ticks have nothing old enough, and skipping the generator
            # avoids a full buffer scan per tick (it was the hottest
            # non-request path in profiles).  When it fires, flush_aged
            # does its own (identical) selection.
            if cache.has_aged_dirty(age):
                yield from cache.flush_aged(age)
