"""Per-run metrics collection: the glue between layers and snapshots.

An :class:`ObsRecorder` owns one :class:`~repro.obs.registry.MetricsRegistry`
for one experiment run.  Layers with per-event distributions (the
simulator's event loop, the disk's seek/service histograms) write into the
registry live; layers that already keep cheap lifetime counters
(:class:`~repro.disk.device.DiskStats`,
:class:`~repro.kernel.buffercache.CacheStats`, the ``/proc`` transport, the
store writers) are *harvested* once at the end of the run — zero overhead
during the run, identical metric naming in the snapshot.

Metric naming scheme (see ARCHITECTURE.md §10)::

    <layer>.<metric>{<label>}

    sim.events_processed            counter, whole run (a disk completion
                                    is one event: the device's own queue
                                    entry fires the done callbacks
                                    directly, adding no event of its own)
    sim.process_resumes{prefix}     counter per process-name prefix
    disk.service_seconds{hda0}      histogram per disk
    cache.hits{0}                   counter per node id
    store.compressed_bytes{0}       counter per node id
"""

from __future__ import annotations

from typing import Optional

from repro.obs.registry import MetricsRegistry


class ObsRecorder:
    """Collects one run's metrics; :meth:`snapshot` freezes them."""

    def __init__(self, registry: Optional[MetricsRegistry] = None):
        self.registry = MetricsRegistry() if registry is None else registry

    # -- harvesting ----------------------------------------------------------
    def collect_cluster(self, cluster) -> None:
        """Harvest every node's lifetime counters into the registry.

        ``disk.*{node}`` aggregates over the node's volume members (for a
        single-disk node that is exactly the one disk, bit-identical to
        the pre-volume scheme); multi-disk nodes additionally get a
        ``physdisk.*{hdb3}`` family keyed by physical device name, and
        every node reports its volume's logical/physical request fan-out.
        The cluster-wide fabric (Ethernet segments, PVM) is harvested
        once per run under ``net.* / pvm.*``.
        """
        reg = self.registry
        for node in cluster.nodes:
            label = str(node.node_id)
            kernel = node.kernel

            disks = kernel.disks
            stats = [disk.stats for disk in disks]
            for name, value in (
                    ("disk.reads", sum(d.reads for d in stats)),
                    ("disk.writes", sum(d.writes for d in stats)),
                    ("disk.sectors_read",
                     sum(d.sectors_read for d in stats)),
                    ("disk.sectors_written",
                     sum(d.sectors_written for d in stats)),
                    ("disk.busy_seconds",
                     sum(d.busy_time for d in stats)),
                    ("disk.media_errors",
                     sum(d.media_errors for d in stats))):
                reg.counter(name).child(label).inc(value)
            reg.gauge("disk.max_queue_depth").child(label).set(
                max(d.max_queue_depth for d in stats))
            requests = sum(d.requests for d in stats)
            reg.gauge("disk.mean_latency_seconds").child(label).set(
                sum(d.total_latency for d in stats) / requests
                if requests else 0.0)
            if len(disks) > 1:
                for disk, d in zip(disks, stats):
                    for name, value in (
                            ("physdisk.reads", d.reads),
                            ("physdisk.writes", d.writes),
                            ("physdisk.sectors_read", d.sectors_read),
                            ("physdisk.sectors_written",
                             d.sectors_written),
                            ("physdisk.busy_seconds", d.busy_time)):
                        reg.counter(name).child(disk.name).inc(value)
            volume = kernel.volume
            reg.counter("volume.logical_requests").child(label).inc(
                volume.logical_requests)
            reg.counter("volume.physical_requests").child(label).inc(
                volume.physical_requests)

            c = kernel.cache.stats
            for name, value in (("cache.hits", c.hits),
                                ("cache.misses", c.misses),
                                ("cache.evictions", c.evictions),
                                ("cache.writebacks", c.writebacks),
                                ("cache.writeback_requests",
                                 c.writeback_requests)):
                reg.counter(name).child(label).inc(value)
            reg.gauge("cache.hit_ratio").child(label).set(c.hit_ratio)

            t = kernel.transport
            reg.counter("trace.records_drained").child(label).inc(
                t.records_drained)
            reg.counter("trace.ring_dropped").child(label).inc(t.dropped)

            drv = kernel.driver
            reg.counter("driver.requests_issued").child(label).inc(
                drv.requests_issued)
            reg.counter("driver.retries").child(label).inc(drv.retries)

        network = cluster.network
        n = network.stats
        reg.counter("net.messages").inc(n.messages)
        reg.counter("net.frames").inc(n.frames)
        reg.counter("net.bytes_carried").inc(n.bytes_carried)
        reg.counter("net.busy_seconds").inc(n.busy_time)
        for channel in range(network.channels):
            reg.counter("net.frames").child(f"ch{channel}").inc(
                network.channel_frames[channel])
            reg.counter("net.busy_seconds").child(f"ch{channel}").inc(
                network.channel_busy_time[channel])
        reg.counter("pvm.sends").inc(cluster.pvm.sends)

    def collect_capture(self, capture) -> None:
        """Harvest a stored run's per-node writers (records, chunks,
        bytes).

        Call after the writers closed (tail chunks spilled) so the byte
        counts cover the whole file.
        """
        reg = self.registry
        for node_id, writer in sorted(capture.writers.items()):
            label = str(node_id)
            for name, value in (
                    ("store.records_written", writer.records_written),
                    ("store.chunks_spilled", writer.chunks_written),
                    ("store.compressed_bytes", writer.compressed_bytes),
                    ("store.raw_bytes", writer.raw_bytes)):
                reg.counter(name).child(label).inc(value)

    def collect_run(self, wall_seconds: float, sim_seconds: float) -> None:
        """Whole-run totals: the wall-time-per-sim-second speed gauge.

        These are the only non-deterministic metrics in a snapshot;
        comparisons should mask them (``repro-trace obs`` shows them so
        regressions in simulator *speed* are visible too).
        """
        reg = self.registry
        reg.gauge("run.wall_seconds").set(wall_seconds)
        reg.gauge("run.sim_seconds").set(sim_seconds)
        if wall_seconds > 0:
            reg.gauge("run.sim_seconds_per_wall_second").set(
                sim_seconds / wall_seconds)

    # -- output --------------------------------------------------------------
    def snapshot(self) -> dict:
        return self.registry.snapshot()

