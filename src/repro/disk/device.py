"""The disk device: a single-actuator state machine over a scheduled queue."""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.disk.request import IORequest
from repro.disk.scheduler import CLookScheduler
from repro.disk.service import DiskServiceModel
from repro.sim import BatchedDraws, Event, Simulator


class LatencyReservoir:
    """Bounded uniform sample of request latencies (Algorithm R).

    A device that lives for a long run sees millions of requests; the
    reservoir keeps a fixed-size uniform sample so percentile queries
    stay accurate (exact below ``capacity`` observations, statistically
    tight above) while memory stays constant.  The replacement stream is
    seeded deterministically so runs remain reproducible.
    """

    __slots__ = ("capacity", "count", "_values", "_rng")

    def __init__(self, capacity: int = 8192, seed: int = 0x10DE):
        if capacity < 1:
            raise ValueError("reservoir capacity must be >= 1")
        self.capacity = capacity
        #: total observations offered (not just those retained)
        self.count = 0
        self._values: list = []
        self._rng = random.Random(seed)

    def snapshot_state(self) -> dict:
        return {"count": self.count,
                "values": list(self._values),
                "rng": self._rng.getstate()}

    def restore_state(self, state: dict) -> None:
        self.count = int(state["count"])
        self._values = [float(v) for v in state["values"]]
        # setstate wants the exact nested-tuple shape getstate returned;
        # the checkpoint round-trip preserves tuples, lists stay lists
        self._rng.setstate(tuple(state["rng"]))

    def append(self, value: float) -> None:
        self.count += 1
        if len(self._values) < self.capacity:
            self._values.append(value)
            return
        j = self._rng.randrange(self.count)
        if j < self.capacity:
            self._values[j] = value

    def percentile(self, q: float) -> float:
        if not self._values:
            return 0.0
        return float(np.percentile(self._values, q))

    # list-like views, so existing callers can np.array() the sample
    def __len__(self) -> int:
        return len(self._values)

    def __getitem__(self, index):
        return self._values[index]

    def __iter__(self):
        return iter(self._values)


@dataclass
class DiskStats:
    """Lifetime counters of one disk device.

    Latencies are sampled into a bounded :class:`LatencyReservoir`
    (``_latencies``) rather than appended to an ever-growing list, so a
    device's memory footprint is constant no matter how long it runs;
    ``total_latency``/``mean_latency`` remain exact sums.
    """

    reads: int = 0
    writes: int = 0
    sectors_read: int = 0
    sectors_written: int = 0
    busy_time: float = 0.0
    total_latency: float = 0.0
    max_queue_depth: int = 0
    media_errors: int = 0
    _latencies: LatencyReservoir = field(default_factory=LatencyReservoir,
                                         repr=False)

    @property
    def requests(self) -> int:
        return self.reads + self.writes

    @property
    def mean_latency(self) -> float:
        return self.total_latency / self.requests if self.requests else 0.0

    def latency_percentile(self, q: float) -> float:
        return self._latencies.percentile(q)


class _DiskInstruments:
    """Per-device observability instruments (built only when enabled)."""

    __slots__ = ("queue_depth", "seek_cylinders", "service_time",
                 "requests", "observe_queue_depth", "observe_seek",
                 "observe_service")

    def __init__(self, registry, disk_name: str, discipline: str):
        self.queue_depth = registry.histogram(
            "disk.queue_depth",
            "queue depth sampled at each submit").child(disk_name)
        self.seek_cylinders = registry.histogram(
            "disk.seek_cylinders",
            "actuator travel per serviced request").child(disk_name)
        self.service_time = registry.histogram(
            "disk.service_seconds",
            "mechanical service time per request").child(disk_name)
        self.requests = registry.counter(
            "disk.scheduled_requests",
            "requests serviced, by scheduler discipline").child(discipline)
        # pre-bound hot-path entry points (histogram ``observe`` is
        # already a bound ``list.append``): the device calls these
        # without per-request attribute chains
        self.observe_queue_depth = self.queue_depth.observe
        self.observe_seek = self.seek_cylinders.observe
        self.observe_service = self.service_time.observe


class Disk:
    """A disk drive, replayed as a state machine.

    ``submit()`` enqueues an :class:`IORequest` and returns an event that
    fires when the device has finished transferring it.  The device picks
    requests in scheduler order, one ``scheduler.next()`` per service,
    advances the actuator, and charges seek + rotation + transfer time per
    the service model.

    No process serves the queue: the device is its own event-queue entry
    (armed through ``Simulator._enqueue_at``), and at most one is queued
    at any time — the completion of the request in service, or, after a
    submit found the device idle, a start at that submit's instant.  The
    start does not pick on the spot, so requests submitted later at the
    same instant (a read-ahead cluster, a swap-out run) join the pick.

    ``obs`` takes a :class:`~repro.obs.registry.MetricsRegistry`; when
    enabled the device records queue-depth, seek-distance, and
    service-time histograms (children labeled by device name) and a
    per-scheduler-discipline request counter.
    """

    def __init__(self, sim: Simulator,
                 service: Optional[DiskServiceModel] = None,
                 scheduler=None,
                 rng: Optional[np.random.Generator] = None,
                 name: str = "hda",
                 cache=None,
                 media_error_rate: float = 0.0,
                 obs=None):
        self.sim = sim
        self.service = service or DiskServiceModel()
        # geometry and mechanics are fixed for the device's lifetime:
        # submit() range-checks every request against the capacity
        tables = self.service.tables
        self._total_sectors = self.service.geometry.total_sectors
        self._spc = tables.sectors_per_cylinder
        self._rotation = tables.rotation_time
        self.scheduler = scheduler if scheduler is not None else CLookScheduler()
        # the device is this stream's only consumer, so batching the
        # uniform draws (rotational latency + media-error check) keeps
        # the value sequence identical while amortising generator calls
        self.rng = BatchedDraws(
            rng if rng is not None else np.random.default_rng(0))
        self.name = name
        self._obs: Optional[_DiskInstruments] = None
        if obs is not None and getattr(obs, "enabled", False):
            self._obs = _DiskInstruments(
                obs, name, type(self.scheduler).__name__)
        #: optional on-drive segment cache (see repro.disk.cache)
        self.cache = cache
        self._lookahead = (cache is not None
                           and getattr(cache, "lookahead_sectors", 0) > 0)
        if not (0.0 <= media_error_rate < 1.0):
            raise ValueError("media error rate must be in [0, 1)")
        #: per-request probability of a (soft) media error; the request
        #: takes full service time and completes with ``failed=True``
        self.media_error_rate = media_error_rate
        self.stats = DiskStats()
        self.head_cylinder = 0
        self._head_sector = 0
        #: the request in service and its service time
        self._in_service: Optional[IORequest] = None
        self._duration = 0.0
        #: the device's entry (a start or a completion) is queued
        self._armed = False

    # -- public interface ------------------------------------------------
    @property
    def queue_depth(self) -> int:
        """Requests waiting or in service (the trace's *pending* count)."""
        return len(self.scheduler) + (self._in_service is not None)

    @property
    def total_sectors(self) -> int:
        return self._total_sectors

    def submit(self, request: IORequest) -> Event:
        """Queue ``request``; returns its completion event."""
        if request.last_sector >= self._total_sectors:
            raise ValueError(
                f"request [{request.sector}, {request.last_sector}] "
                f"beyond end of {self.name} ({self.total_sectors} sectors)")
        sim = self.sim
        request.submit_time = sim.now
        done = request.done = sim.event()
        self.scheduler.add(request)
        # queue_depth, inlined (a property call per submit)
        depth = len(self.scheduler) + (self._in_service is not None)
        if depth > self.stats.max_queue_depth:
            self.stats.max_queue_depth = depth
        if self._obs is not None:
            self._obs.observe_queue_depth(depth)
        if not self._armed:
            self._armed = True
            sim._enqueue_at(sim.now, self)
        return done

    # -- checkpoint state surface ------------------------------------------
    def snapshot_state(self) -> dict:
        """Head position, counters, and RNG buffers of an *idle* device.

        Only a quiescent device (empty queue, nothing in service) can be
        captured: in-flight mechanical work is not data.  The settle
        protocol guarantees that; this guards it.
        """
        if len(self.scheduler) or self._armed:
            raise RuntimeError(
                f"disk {self.name} is not idle "
                f"(queue_depth={self.queue_depth})")
        s = self.stats
        return {
            "head_cylinder": self.head_cylinder,
            "head_sector": self._head_sector,
            "rng": self.rng.snapshot_state(),
            "cache": (None if self.cache is None
                      else self.cache.snapshot_state()),
            "stats": {"reads": s.reads, "writes": s.writes,
                      "sectors_read": s.sectors_read,
                      "sectors_written": s.sectors_written,
                      "busy_time": s.busy_time,
                      "total_latency": s.total_latency,
                      "max_queue_depth": s.max_queue_depth,
                      "media_errors": s.media_errors,
                      "latencies": s._latencies.snapshot_state()},
        }

    def restore_state(self, state: dict) -> None:
        self.head_cylinder = int(state["head_cylinder"])
        self._head_sector = int(state["head_sector"])
        self.rng.restore_state(state["rng"])
        if state["cache"] is not None:
            self.cache.restore_state(state["cache"])
        st = dict(state["stats"])
        lat = st.pop("latencies")
        self.stats = DiskStats(
            reads=int(st["reads"]), writes=int(st["writes"]),
            sectors_read=int(st["sectors_read"]),
            sectors_written=int(st["sectors_written"]),
            busy_time=float(st["busy_time"]),
            total_latency=float(st["total_latency"]),
            max_queue_depth=int(st["max_queue_depth"]),
            media_errors=int(st["media_errors"]))
        self.stats._latencies.restore_state(lat)

    # -- the state machine -------------------------------------------------
    def _fire(self) -> None:
        """The device's queue entry fired: complete the request in
        service, or start serving after idle.

        A completion moves the head, stamps the request, draws its media
        error and accounts it.  If more requests wait, the next service
        is committed *before* the finished request's done callbacks run,
        so a submit they make finds the device busy and joins the queue
        behind that pick; otherwise the device goes idle first, and such
        a submit arms a fresh start.  The callbacks are *direct-fired*:
        they run from this frame, at the instant a queued done event
        would have fired.  The ordering is unobservable because service
        durations are continuous random floats — nothing else is
        scheduled at that exact timestamp (the scalar test oracle in
        ``tests/`` guards this).
        """
        request = self._in_service
        if request is None:
            self._commit()
            return
        last = request.last_sector
        # cylinder_of minus the bounds re-check (done at submit)
        self.head_cylinder = last // self._spc
        self._head_sector = last
        request.complete_time = self.sim.now
        merr = self.media_error_rate
        if merr > 0.0 and float(self.rng.random()) < merr:
            request.failed = True
            self.stats.media_errors += 1
        self._account(request, self._duration)
        if len(self.scheduler):
            self._commit()
        else:
            self._in_service = None
            self._armed = False
        self._fire_done(request)

    def _commit(self) -> None:
        """Pick the next request, time its service, and arm its completion.

        A read fully held by the drive cache skips seek and rotation; a
        read miss fills a segment (plus look-ahead, which rides the same
        rotation for half a revolution); a write is write-through and
        invalidates overlapping segments.  With obs enabled the request's
        seek distance and service time are recorded.
        """
        request = self._in_service = self.scheduler.next(self._head_sector)
        service = self.service
        cache = self.cache
        obs = self._obs
        if obs is not None:
            obs.observe_seek(abs(request.sector // self._spc
                                 - self.head_cylinder))
        cached_read = cache is not None and not request.is_write
        if cached_read and cache.lookup(request.sector, request.nsectors):
            duration = (service.controller_overhead
                        + service.transfer_time(request.nsectors))
        else:
            if cache is not None and request.is_write:
                cache.invalidate(request.sector, request.nsectors)
            duration = service.service_time(request, self.head_cylinder,
                                            self.rng)
            if cached_read:
                cache.fill_after_read(request.sector, request.nsectors,
                                      disk_sectors=self._total_sectors)
                if self._lookahead:
                    duration += 0.5 * self._rotation
        if obs is not None:
            obs.observe_service(duration)
            obs.requests.value += 1
        self._duration = duration
        sim = self.sim
        sim._enqueue_at(sim.now + duration, self)

    def _fire_done(self, request: IORequest) -> None:
        """Run ``request``'s completion callbacks without a queue round-trip.

        Equivalent to ``done.succeed(request)`` followed by the engine
        popping and firing the event at the same timestamp — inlined
        here (mirroring :meth:`Event.succeed` + ``Event._fire``) because
        the device's completion already stands at exactly the point in
        the event order where that pop would happen.
        """
        done = request.done
        done._ok = True
        done._value = request
        callbacks = done.callbacks
        done.callbacks = None
        for callback in callbacks:
            callback(done)
        done.processed = True

    def _account(self, request: IORequest, duration: float) -> None:
        stats = self.stats
        if request.is_write:
            stats.writes += 1
            stats.sectors_written += request.nsectors
        else:
            stats.reads += 1
            stats.sectors_read += request.nsectors
        stats.busy_time += duration
        # request.latency, minus the property frames (complete_time is
        # always stamped just before accounting)
        latency = request.complete_time - request.submit_time
        stats.total_latency += latency
        stats._latencies.append(latency)
