"""Simulated /proc transport for instrumentation traces.

The paper buffered driver trace entries "by the kernel message handling
facility through the proc filesystem": a fixed-size in-kernel ring that a
user-space reader drains from what looks like a regular file.  We model the
ring (bounded, drop-on-overflow, overflow counted) and a periodic drain
process that moves entries into a user-space :class:`TraceBuffer` and
optionally notifies a sink — in the full node the sink is the system logger,
whose flushes to disk are themselves visible in the traces (the paper's
baseline writes are exactly this logging).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Optional

import numpy as np

from repro.driver.trace import TRACE_DTYPE, TraceBuffer
from repro.sim import Simulator


class ProcTraceTransport:
    """Bounded kernel ring buffer + periodic user-space drain."""

    def __init__(self, sim: Simulator,
                 ring_capacity: int = 4096,
                 drain_interval: float = 1.0,
                 sink: Optional[Callable[[int], None]] = None):
        if ring_capacity < 1:
            raise ValueError("ring capacity must be >= 1")
        if drain_interval <= 0:
            raise ValueError("drain interval must be positive")
        self.sim = sim
        self.ring_capacity = ring_capacity
        self.drain_interval = drain_interval
        #: user-space destination, what the analysis layer ultimately reads
        self.user_buffer = TraceBuffer()
        #: called with the number of records each time a drain moves data
        self.sink = sink
        self.dropped = 0
        #: lifetime records moved to user space (survives buffer clears)
        self.records_drained = 0
        self._ring: Deque[tuple] = deque()
        self._running = True
        self._wakeup = None
        sim.process(self._drain_loop(), name="proc-trace-drain")

    @property
    def ring_fill(self) -> int:
        return len(self._ring)

    def push(self, record) -> None:
        """Called from the driver's interrupt path; never blocks.

        ``record`` is one schema row in :meth:`TraceRecord.as_tuple`
        layout (the driver pushes rows, not dataclasses, to skip a
        construction per request).  When the ring is full the record is
        dropped and counted, matching printk-ring semantics.
        """
        ring = self._ring
        if len(ring) >= self.ring_capacity:
            self.dropped += 1
            return
        ring.append(record)
        wakeup = self._wakeup
        if wakeup is not None and wakeup._ok is None:
            wakeup.succeed()

    def drain_now(self) -> int:
        """Move everything currently in the ring to user space.

        The batch is converted to a structured array once and
        bulk-appended to the user buffer (the hot capture path); the
        user buffer is the one copy of the drained records.
        """
        if not self._ring:
            return 0
        batch = np.array(self._ring, dtype=TRACE_DTYPE)
        self._ring.clear()
        self.records_drained += len(batch)
        self.user_buffer.append_array(batch)
        if self.sink is not None:
            self.sink(len(batch))
        return len(batch)

    # -- checkpoint state surface ---------------------------------------
    def snapshot_state(self) -> dict:
        """User-space records and counters of a *drained* transport.

        At a quiescent capture point the kernel ring must be empty (the
        drain loop parked waiting for a push); the captured records all
        live in the user buffer.
        """
        if self._ring:
            raise RuntimeError(
                f"trace ring still holds {len(self._ring)} records")
        return {"dropped": self.dropped,
                "records_drained": self.records_drained,
                "user_buffer": self.user_buffer.to_array()}

    def restore_state(self, state: dict) -> None:
        self.dropped = int(state["dropped"])
        self.records_drained = int(state["records_drained"])
        self.user_buffer.clear()
        self.user_buffer.append_array(state["user_buffer"])

    def stop(self) -> None:
        """Stop the periodic drain (final drain still possible manually)."""
        self._running = False
        if self._wakeup is not None and not self._wakeup.triggered:
            self._wakeup.succeed()

    def _drain_loop(self):
        # Lazy loop: sleeps on an event while the ring is empty so an idle
        # transport does not keep the simulation alive.
        while self._running:
            if not self._ring:
                self._wakeup = self.sim.event()
                yield self._wakeup
                self._wakeup = None
                if not self._running:
                    return
            yield self.sim.timeout(self.drain_interval)
            self.drain_now()
