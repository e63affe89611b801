"""Kernel logging and housekeeping daemons — the baseline workload.

The paper's quiescent baseline is ~0.9 requests/s, essentially 100 % writes,
concentrated on a few sectors at low *and* high disk addresses, and 1 KB in
size.  Those writes come from exactly the machinery modelled here:

* :class:`SysLogger` — syslogd/klogd appending to ``/var/log/messages``
  (low-sector ``log`` zone) and to the instrumentation output file
  (high-sector ``highlog`` zone, fed by the /proc trace drain);
* :class:`UpdateDaemon` — the classic ``update`` process syncing the
  superblock and aged buffers every 30 s;
* :class:`HousekeepingLoad` — periodic kernel chatter: heartbeat log
  entries and table lookups that are nearly always buffer-cache hits
  (hence no reads reach the disk).
"""

from __future__ import annotations

import math
import weakref
from typing import Optional, Sequence

import numpy as np

from repro.kernel.fs import FileSystem
from repro.kernel.syscalls import FileHandle
from repro.sim import Simulator

#: seconds between the in-place utmp/state-file rewrites
_STATE_REWRITE_INTERVAL = 4.0


def _open_or_create(fs: FileSystem, path: str, zone: str):
    """Generator: a handle on ``path``, created in ``zone`` (parent
    directories first) if it does not exist yet."""
    if fs.exists(path):
        return FileHandle(fs, fs.lookup(path))
    parent = path.rsplit("/", 1)[0]
    if parent:
        yield from fs.makedirs(parent)
    inode = yield from fs.create(path, zone=zone)
    return FileHandle(fs, inode)


class SysLogger:
    """Buffered append-only logger over one file."""

    def __init__(self, sim: Simulator, fs: FileSystem, path: str,
                 zone: str = "log", flush_interval: float = 5.0,
                 owner: Optional[str] = None):
        self.sim = sim
        self.fs = fs
        self.path = path
        self.zone = zone
        self.flush_interval = flush_interval
        # tick-owner key: must be unique across the whole simulator (one
        # sim serves every node), so kernels pass a node-scoped prefix
        self.owner = owner or f"syslog:{path}"
        self._pending_bytes = 0
        self._bytes_logged = 0
        #: the :class:`HousekeepingLoad` whose messages land here, as a
        #: weak proxy (the load holds its loggers); every flush catches
        #: it up first
        self.chatter: Optional["HousekeepingLoad"] = None
        sim.process(self._setup_and_flush(), name=f"syslog:{path}")

    def log(self, nbytes: int) -> None:
        """Queue ``nbytes`` of log text (buffered, non-blocking)."""
        if nbytes < 1:
            raise ValueError("log payload must be >= 1 byte")
        self._pending_bytes += nbytes
        self._bytes_logged += nbytes

    @property
    def bytes_logged(self) -> int:
        """Bytes queued so far, chatter included up to now."""
        if self.chatter is not None:
            self.chatter.catch_up(self.sim.now)
        return self._bytes_logged

    def _setup_and_flush(self):
        handle = yield from _open_or_create(self.fs, self.path, self.zone)
        while True:
            yield self.sim.tick(self.owner, lambda: self.flush_interval)
            chatter = self.chatter
            if chatter is not None:
                now = self.sim.now
                chatter.catch_up(now, now - self.flush_interval)
            if self._pending_bytes:
                n, self._pending_bytes = self._pending_bytes, 0
                yield from handle.append(n)

    # -- checkpoint state surface ---------------------------------------
    def snapshot_state(self) -> dict:
        return {"pending_bytes": self._pending_bytes,
                "bytes_logged": self._bytes_logged}

    def restore_state(self, state: dict) -> None:
        self._pending_bytes = int(state["pending_bytes"])
        self._bytes_logged = int(state["bytes_logged"])


class UpdateDaemon:
    """The `update` process: periodic metadata + aged-buffer sync."""

    def __init__(self, sim: Simulator, fs: FileSystem,
                 interval: float = 30.0, buffer_age: float = 30.0,
                 owner: str = "update"):
        self.sim = sim
        self.fs = fs
        self.interval = interval
        self.buffer_age = buffer_age
        self.owner = owner
        self.syncs = 0
        sim.process(self._loop(), name="update")

    def _loop(self):
        while True:
            yield self.sim.tick(self.owner, lambda: self.interval)
            yield from self.fs.sync_metadata()
            yield from self.fs.cache.flush_aged(self.buffer_age)
            self.syncs += 1

    # -- checkpoint state surface ---------------------------------------
    def snapshot_state(self) -> dict:
        return {"syncs": self.syncs}

    def restore_state(self, state: dict) -> None:
        self.syncs = int(state["syncs"])


class HousekeepingLoad:
    """Background kernel/daemon chatter generating the quiescent trace.

    Log entries arrive as a Poisson process with exponential sizes; table
    lookups re-read a small set of metadata blocks (cache-resident, so they
    produce negligible read traffic, matching the baseline's ~100 % writes).

    The message stream is data, not a process.  A message only queues
    bytes in a logger, and the loggers' flushes are the only readers of
    those bytes, so the time of the next message is kept as
    :attr:`next_message` and each flush first calls :meth:`catch_up`,
    which applies every message due before it in the order a per-message
    loop would draw them: size, logger pick, next gap.  The
    ``housekeeping`` stream has no other consumer, so the bytes and the
    draws are those of the per-message loop.  ``message_rate=0`` means
    no chatter.
    """

    def __init__(self, sim: Simulator, fs: FileSystem,
                 loggers: Sequence[SysLogger], rng: np.random.Generator,
                 message_rate: float = 1.0,
                 mean_message_bytes: float = 120.0,
                 lookup_interval: float = 7.0,
                 lookup_blocks: int = 4,
                 owner: str = "hk"):
        from repro.sim.rng import uniform_index_drawer
        if message_rate < 0:
            raise ValueError("message rate must be >= 0")
        self.sim = sim
        self.fs = fs
        # messages spread across the daemons' files
        self.loggers = list(loggers)
        self.rng = rng
        self.message_rate = message_rate
        self.mean_message_bytes = mean_message_bytes
        self.lookup_interval = lookup_interval
        self.lookup_blocks = lookup_blocks
        self.owner = owner
        self._messages = 0
        self.lookups = 0
        self.state_rewrites = 0
        # the logger pick goes through a verified raw-word drawer:
        # values and stream consumption equal ``integers``, and its
        # half-word buffer is checkpoint state
        self._pick = uniform_index_drawer(self.rng, len(self.loggers))
        self._logs = [lg.log for lg in self.loggers]
        self._exponential = self.rng.exponential
        self._mean_gap = 1.0 / message_rate if message_rate > 0 else 0.0
        now = sim.now
        #: when the next message's per-message tick would have been
        #: queued (the tie rule of :meth:`catch_up`)
        self._scheduled_at = now
        #: simulated time of the next message (``inf``: no more)
        self.next_message = (now + float(self._exponential(self._mean_gap))
                             if message_rate > 0 else math.inf)
        chatter = weakref.proxy(self)
        for lg in self.loggers:
            lg.chatter = chatter
        sim.process(self._table_lookups(), name="klog-lookups")
        sim.process(self._state_rewrites(), name="klog-utmp")

    @property
    def messages(self) -> int:
        """Messages logged so far (caught up to now)."""
        self.catch_up(self.sim.now)
        return self._messages

    def catch_up(self, now: float,
                 flush_scheduled: Optional[float] = None) -> None:
        """Apply every message due strictly before ``now``.

        A message exactly at ``now`` is a tie with the caller.  For a
        flush whose tick was queued at ``flush_scheduled`` it counts iff
        its own tick would have been queued earlier (a per-message tick
        queued first fires first); for a stats read (``None``) it counts.
        """
        t = self.next_message
        if t > now:
            return
        exponential = self._exponential
        mean_bytes = self.mean_message_bytes
        logs = self._logs
        pick = self._pick
        while t < now or (t == now and (flush_scheduled is None or
                                        self._scheduled_at
                                        < flush_scheduled)):
            size = int(exponential(mean_bytes))
            logs[pick()](16 if size < 16 else size)
            self._messages += 1
            self._scheduled_at = t
            t = t + float(exponential(self._mean_gap))
        self.next_message = t

    def _state_rewrites(self):
        # utmp-style state files: a fixed slot rewritten in place, so the
        # disk sees the *same* 1 KB block over and over -- the horizontal
        # lines of the paper's Figure 1.
        handle = yield from _open_or_create(self.fs, "/var/run/utmp", "log")
        owner = f"{self.owner}:utmp"
        while True:
            yield self.sim.tick(owner, lambda: _STATE_REWRITE_INTERVAL)
            handle.seek(0)
            yield from handle.write(256)
            self.state_rewrites += 1

    def _table_lookups(self):
        # Re-reads the first inode-table blocks; hot, so almost always hits.
        first = self.fs._inode_table_first
        owner = f"{self.owner}:lookups"
        while True:
            yield self.sim.tick(owner, lambda: self.lookup_interval)
            yield from self.fs.cache.read_range(first, self.lookup_blocks)
            self.lookups += 1

    # -- checkpoint state surface ---------------------------------------
    def snapshot_state(self) -> dict:
        return {"messages": self._messages,
                "lookups": self.lookups,
                "state_rewrites": self.state_rewrites,
                "pick_half": self._pick.get_state(),
                "next_message": self.next_message,
                "message_scheduled": self._scheduled_at}

    def restore_state(self, state: dict) -> None:
        self._messages = int(state["messages"])
        self.lookups = int(state["lookups"])
        self.state_rewrites = int(state["state_rewrites"])
        self._pick.set_state(state["pick_half"])
        self.next_message = float(state["next_message"])
        self._scheduled_at = float(state["message_scheduled"])
