"""Trace replay against configurable disk subsystems.

Feeds a trace's requests (at their recorded arrival times) into a freshly
built disk model and measures the latency/throughput consequences of
design choices: queue discipline, spindle speed, seek profile.  This is
the "system design and tuning" use the paper's parameter set targets —
the scheduler ablation benchmark is built on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.trace import TraceDataset
from repro.disk import Disk, DiskServiceModel, IORequest
# the shared name table: a scheduler added to it anywhere in the
# process is replayable by name
from repro.disk.scheduler import SCHEDULERS
from repro.sim import Simulator


@dataclass(frozen=True)
class ReplayReport:
    """Latency/throughput outcome of one replay."""

    scheduler: str
    requests: int
    duration: float
    mean_latency: float
    p95_latency: float
    max_latency: float
    disk_busy_fraction: float
    max_queue_depth: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (f"{self.scheduler:>6}: mean={self.mean_latency * 1e3:7.2f} ms "
                f"p95={self.p95_latency * 1e3:7.2f} ms "
                f"busy={self.disk_busy_fraction * 100:5.1f}% "
                f"maxq={self.max_queue_depth}")


def _record_arrays(trace):
    """Yield the trace's records as one or more structured arrays.

    Accepts a :class:`TraceDataset` (one array), a
    :class:`~repro.store.TraceReader` or any object with ``iter_arrays``
    (streamed chunk by chunk — a stored trace replays without ever being
    materialised whole), or a plain structured array.
    """
    if isinstance(trace, TraceDataset):
        yield trace.records
    elif hasattr(trace, "iter_arrays"):
        yield from trace.iter_arrays()
    else:
        yield np.asarray(trace)


def replay_trace(trace, scheduler: str = "clook",
                 service: Optional[DiskServiceModel] = None,
                 seed: int = 0,
                 time_scale: float = 1.0,
                 drive_cache=None, scenario=None) -> ReplayReport:
    """Replay ``trace`` on a fresh disk; returns the latency report.

    ``trace`` may be a :class:`TraceDataset` or a
    :class:`~repro.store.TraceReader` — stored traces stream straight
    from disk.  ``time_scale`` < 1 compresses the arrival schedule,
    raising the load (0.1 presents the same requests ten times as fast)
    — the standard trace-driven way to probe saturation behaviour.

    Passing ``scenario`` (a :class:`~repro.config.Scenario`) replays the
    trace against the scenario's whole node-disk fabric instead of one
    ad-hoc disk: every member of ``scenario.node.disks`` is built with
    its own configured scheduler and drive cache, the members are joined
    by the scenario's volume policy, and requests go through the
    volume's address math — the what-if "same workload on raid0" in one
    call.  ``scheduler``/``service``/``drive_cache`` must then be left
    at their defaults (the scenario owns the stack); the report's busy
    fraction averages over members and its queue depth is the deepest
    member's.
    """
    if scenario is not None:
        if scheduler != "clook" or service is not None \
                or drive_cache is not None:
            raise ValueError("scenario= replaces scheduler/service/"
                             "drive_cache; pass one or the other")
    elif scheduler not in SCHEDULERS:
        raise ValueError(f"unknown scheduler {scheduler!r}; "
                         f"choose from {sorted(SCHEDULERS)}")
    if len(trace) == 0:
        raise ValueError("empty trace")
    if time_scale <= 0:
        raise ValueError("time_scale must be positive")

    sim = Simulator()
    if scenario is not None:
        node_cfg = scenario.node
        device = node_cfg.build_volume(
            sim, [np.random.default_rng(seed + i)
                  for i in range(len(node_cfg.disks))])
        disks = device.disks
        total_sectors = device.total_sectors
        scheduler = node_cfg.disks[0].scheduler.kind
    else:
        service = service or DiskServiceModel()
        disks = [Disk(sim, service=service,
                      scheduler=SCHEDULERS[scheduler](),
                      rng=np.random.default_rng(seed), cache=drive_cache)]
        device = disks[0]
        total_sectors = service.geometry.total_sectors
    latencies = []

    def issuer():
        prev_t = 0.0
        for records in _record_arrays(trace):
            for row in records:
                arrival = float(row["time"]) * time_scale
                if arrival > prev_t:
                    yield sim.timeout(arrival - prev_t)
                    prev_t = arrival
                nsectors = max(1, int(round(float(row["size_kb"]) * 2)))
                sector = int(row["sector"])
                if sector + nsectors > total_sectors:
                    sector = total_sectors - nsectors
                request = IORequest(sector=sector, nsectors=nsectors,
                                    is_write=bool(row["write"]))
                done = device.submit(request)
                done.callbacks.append(
                    lambda _ev, r=request: latencies.append(r.latency))

    sim.process(issuer(), name="replayer")
    sim.run()
    lat = np.asarray(latencies)
    duration = max(sim.now, 1e-9)
    return ReplayReport(
        scheduler=scheduler,
        requests=len(lat),
        duration=duration,
        mean_latency=float(lat.mean()),
        p95_latency=float(np.percentile(lat, 95)),
        max_latency=float(lat.max()),
        disk_busy_fraction=float(
            sum(d.stats.busy_time for d in disks)
            / (len(disks) * duration)),
        max_queue_depth=max(d.stats.max_queue_depth for d in disks),
    )


def compare_schedulers(trace, time_scale: float = 1.0,
                       seed: int = 0,
                       service: Optional[DiskServiceModel] = None
                       ) -> dict:
    """Replay under every scheduler; returns {name: ReplayReport}."""
    return {name: replay_trace(trace, scheduler=name, seed=seed,
                               service=service, time_scale=time_scale)
            for name in sorted(SCHEDULERS)}
