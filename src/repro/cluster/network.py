"""Dual-channel Ethernet model.

The Beowulf prototype bonded two parallel 10 Mb/s Ethernet segments.  We
model each segment as a shared medium (one transmission at a time per
segment) with fixed per-frame latency, serialization time proportional to
message size, and a small random inter-frame gap standing in for CSMA/CD
backoff under contention.  Messages larger than the MTU are fragmented.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.obs.registry import FOLD_EVERY
from repro.sim import Resource, Simulator

#: Ethernet II maximum payload in bytes
MTU = 1500
#: per-frame protocol overhead (headers, preamble, CRC) in bytes
FRAME_OVERHEAD = 26


@dataclass
class NetworkStats:
    messages: int = 0
    frames: int = 0
    bytes_carried: int = 0
    busy_time: float = 0.0


class _NetInstruments:
    """Per-fabric live instruments (built only when obs is enabled).

    Lifetime totals (``net.messages`` etc.) are harvested from
    :class:`NetworkStats` once per run by the obs recorder; the live
    histogram here adds the per-frame wire-time *distribution*, which
    totals can't reconstruct.  One child histogram per channel, folded
    every :data:`~repro.obs.registry.FOLD_EVERY` frames.
    """

    __slots__ = ("frame_seconds", "frame_channels")

    def __init__(self, registry, channels: int):
        self.frame_seconds = registry.histogram(
            "net.frame_seconds",
            "wire time per frame, including contention jitter")
        self.frame_channels = [self.frame_seconds.child(f"ch{i}")
                               for i in range(channels)]


class EthernetNetwork:
    """Two (by default) parallel shared segments with frame fragmentation.

    Every construction knob is a parameter — a
    :class:`~repro.config.NetworkConfig` builds the fabric via
    ``scenario.network.build(sim, rng=...)``; the defaults are the
    prototype's bonded dual 10 Mb/s segments.

    ``obs`` takes a :class:`~repro.obs.registry.MetricsRegistry`; when
    enabled, :meth:`transmit` records each frame's wire time per channel.
    """

    def __init__(self, sim: Simulator, bandwidth_bps: float = 10e6,
                 latency: float = 0.3e-3, channels: int = 2,
                 rng: Optional[np.random.Generator] = None,
                 mtu: int = MTU, frame_overhead: int = FRAME_OVERHEAD,
                 obs=None):
        if bandwidth_bps <= 0 or latency < 0:
            raise ValueError("bad bandwidth/latency")
        if channels < 1:
            raise ValueError("need at least one channel")
        if mtu < 1:
            raise ValueError("mtu must be >= 1 byte")
        self.sim = sim
        self.bandwidth_bps = bandwidth_bps
        self.latency = latency
        self.mtu = mtu
        self.frame_overhead = frame_overhead
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self._segments = [Resource(sim, capacity=1) for _ in range(channels)]
        self._next_channel = 0
        self.stats = NetworkStats()
        #: per-segment lifetime counters (index = channel)
        self.channel_frames = [0] * channels
        self.channel_busy_time = [0.0] * channels
        self._obs: Optional[_NetInstruments] = None
        if obs is not None:
            self._obs = _NetInstruments(obs, channels)

    @property
    def channels(self) -> int:
        return len(self._segments)

    # -- checkpoint state surface ---------------------------------------
    def snapshot_state(self) -> dict:
        s = self.stats
        return {"next_channel": self._next_channel,
                "stats": {"messages": s.messages, "frames": s.frames,
                          "bytes_carried": s.bytes_carried,
                          "busy_time": s.busy_time},
                "channel_frames": list(self.channel_frames),
                "channel_busy_time": list(self.channel_busy_time)}

    def restore_state(self, state: dict) -> None:
        self._next_channel = int(state["next_channel"])
        st = state["stats"]
        self.stats = NetworkStats(
            messages=int(st["messages"]), frames=int(st["frames"]),
            bytes_carried=int(st["bytes_carried"]),
            busy_time=float(st["busy_time"]))
        self.channel_frames = [int(v) for v in state["channel_frames"]]
        self.channel_busy_time = [float(v)
                                  for v in state["channel_busy_time"]]

    def frame_time(self, payload_bytes: int) -> float:
        """Serialization time of one frame carrying ``payload_bytes``."""
        wire_bytes = min(payload_bytes, self.mtu) + self.frame_overhead
        return wire_bytes * 8 / self.bandwidth_bps

    def transmit(self, nbytes: int):
        """Move ``nbytes`` across one segment; generator, returns duration.

        Channel choice is round-robin (the prototype's channel bonding);
        frames of one message stay on their segment.
        """
        if nbytes < 1:
            raise ValueError("nbytes must be >= 1")
        channel = self._next_channel
        segment = self._segments[channel]
        self._next_channel = (channel + 1) % len(self._segments)
        frames = (None if self._obs is None
                  else self._obs.frame_channels[channel])
        start = self.sim.now
        remaining = nbytes
        yield self.sim.timeout(self.latency)
        while remaining > 0:
            payload = min(remaining, self.mtu)
            with segment.request() as req:
                yield req
                duration = self.frame_time(payload)
                # CSMA/CD-style jitter grows with visible contention.
                if segment.queue_length > 0:
                    duration += float(self.rng.exponential(duration * 0.2))
                yield self.sim.timeout(duration)
                if frames is not None:
                    frames.observe(duration)
                    if len(frames.raw) >= FOLD_EVERY:
                        frames.fold()
                self.stats.frames += 1
                self.stats.busy_time += duration
                self.channel_frames[channel] += 1
                self.channel_busy_time[channel] += duration
            remaining -= payload
        self.stats.messages += 1
        self.stats.bytes_carried += nbytes
        return self.sim.now - start
