"""The disk device: a single-actuator server draining a scheduled queue."""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.disk.request import IORequest
from repro.disk.scheduler import CLookScheduler
from repro.disk.service import DiskServiceModel
from repro.sim import BatchedDraws, Event, Simulator

#: requests claimed from the scheduler per server wakeup; bounds how much
#: claimed work a mid-run submission can force back through ``requeue``
DRAIN_LIMIT = 64
#: run length below which numpy precompute costs more than scalar math
_VECTOR_MIN = 4


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
        # already a bound ``list.append``): the server calls these
        # without per-request attribute chains
        self.observe_queue_depth = self.queue_depth.observe
        self.observe_seek = self.seek_cylinders.observe
        self.observe_service = self.service_time.observe


class Disk:
    """A disk drive as a simulation process.

    ``submit()`` enqueues an :class:`IORequest` and returns an event that
    fires when the device has finished transferring it.  The internal server
    process picks requests in scheduler order, advances the actuator, and
    charges seek + rotation + transfer time per the service model.

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
        # geometry is fixed for the device's lifetime; submit() range-
        # checks every request against this
        self._total_sectors = self.service.geometry.total_sectors
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
        if not (0.0 <= media_error_rate < 1.0):
            raise ValueError("media error rate must be in [0, 1)")
        #: per-request probability of a (soft) media error; the request
        #: takes full service time and completes with ``failed=True``
        self.media_error_rate = media_error_rate
        self.stats = DiskStats()
        self.head_cylinder = 0
        self._head_sector = 0
        self._in_service: Optional[IORequest] = None
        self._wakeup: Optional[Event] = None
        #: bumped on every submit; the server compares it against the
        #: value captured at drain time to detect that its claimed run
        #: went stale and must be handed back for re-ordering
        self._epoch = 0
        #: requests drained from the scheduler but not yet (in) service —
        #: still "waiting" as far as queue-depth accounting is concerned
        self._drained = 0
        sim.process(self._server(), name=f"disk:{name}")

    # -- public interface ------------------------------------------------
    @property
    def queue_depth(self) -> int:
        """Requests waiting or in service (the trace's *pending* count)."""
        return (len(self.scheduler) + self._drained
                + (1 if self._in_service is not None else 0))

    @property
    def total_sectors(self) -> int:
        return self._total_sectors

    def submit(self, request: IORequest) -> Event:
        """Queue ``request``; returns its completion event."""
        if request.last_sector >= self._total_sectors:
            raise ValueError(
                f"request [{request.sector}, {request.last_sector}] "
                f"beyond end of {self.name} ({self.total_sectors} sectors)")
        request.submit_time = self.sim.now
        request.done = self.sim.event()
        self.scheduler.add(request)
        self._epoch += 1
        # queue_depth, inlined (a property call per submit)
        depth = (len(self.scheduler) + self._drained
                 + (1 if self._in_service is not None else 0))
        if depth > self.stats.max_queue_depth:
            self.stats.max_queue_depth = depth
        if self._obs is not None:
            self._obs.observe_queue_depth(depth)
        if self._wakeup is not None and not self._wakeup.triggered:
            self._wakeup.succeed()
        return request.done

    # -- checkpoint state surface ------------------------------------------
    def snapshot_state(self) -> dict:
        """Head position, counters, and RNG buffers of an *idle* device.

        Only a quiescent device (empty queue, nothing in service) can be
        captured: in-flight mechanical work is not data.  The settle
        protocol guarantees that; this guards it.
        """
        if len(self.scheduler) or self._drained or self._in_service:
            raise RuntimeError(
                f"disk {self.name} is not idle "
                f"(queue_depth={self.queue_depth})")
        s = self.stats
        return {
            "head_cylinder": self.head_cylinder,
            "head_sector": self._head_sector,
            "epoch": self._epoch,
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
        self._epoch = int(state["epoch"])
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

    # -- server process ----------------------------------------------------
    def _server(self):
        """The device server: drain runs, vectorize, direct-fire.

        Per wakeup the server *claims* a run of requests via
        ``scheduler.drain`` and precomputes their seek/transfer terms in
        one numpy pass (``service_components``, head carry included).
        Rotational-latency and media-error draws stay scalar and lazy —
        they happen at each request's commit/completion point so the RNG
        stream consumes exactly as a one-request-per-wakeup server's
        would even when a run is cut short.  A submission bumps
        ``_epoch``; the server compares epochs before committing each
        claimed request and hands any stale tail back through
        ``requeue`` so the discipline can re-order around the newcomer —
        the semantics of re-selecting after every service.

        Completions are *direct-fired*: the previous request's done
        callbacks run from this frame at the instant a queued done event
        would have fired (next commit, or the idle transition), skipping
        one event round-trip per request.  The ordering is unobservable
        because service durations are continuous random floats — nothing
        else is scheduled at that exact timestamp (the scalar test
        oracle in ``tests/`` guards this).

        With obs enabled, each serviced request also records its seek
        distance and service time.
        """
        sim = self.sim
        scheduler = self.scheduler
        service = self.service
        spc = service.geometry.sectors_per_cylinder
        rotation = service.tables.rotation_time
        rng = self.rng
        stats = self.stats
        cache = self.cache
        lookahead = (cache is not None
                     and getattr(cache, "lookahead_sectors", 0) > 0)
        total_sectors = self.total_sectors
        merr = self.media_error_rate
        obs = self._obs
        batch: list = ()
        base = transfer = None
        i = 0
        epoch = -1
        completed = None  # serviced request whose callbacks haven't run
        while True:
            if i >= len(batch) or epoch != self._epoch:
                if i < len(batch):
                    # the claimed run went stale: hand the tail back so
                    # the discipline re-orders around the new arrivals
                    scheduler.requeue(batch[i:])
                    self._drained -= len(batch) - i
                batch = ()
                i = 0
                if not len(scheduler):
                    wakeup = self._wakeup = sim.event()
                    if completed is not None:
                        request, completed = completed, None
                        self._fire_done(request)
                    yield wakeup
                    self._wakeup = None
                epoch = self._epoch
                batch = scheduler.drain(self._head_sector, DRAIN_LIMIT)
                self._drained += len(batch)
                if len(batch) >= _VECTOR_MIN:
                    base, transfer = service.service_components(
                        batch, self.head_cylinder)
                else:
                    base = None
            request = batch[i]
            self._drained -= 1
            self._in_service = request
            if obs is not None:
                obs.observe_seek(abs(request.sector // spc
                                     - self.head_cylinder))
            hit = False
            if cache is not None:
                if request.is_write:
                    cache.invalidate(request.sector, request.nsectors)
                elif cache.lookup(request.sector, request.nsectors):
                    hit = True
            if hit:
                duration = (service.controller_overhead
                            + service.transfer_time(request.nsectors))
            elif base is not None:
                duration = ((base[i] + float(rng.random()) * rotation)
                            + transfer[i])
            else:
                duration = service.service_time(request, self.head_cylinder,
                                                rng)
            if cache is not None and not hit and not request.is_write:
                cache.fill_after_read(request.sector, request.nsectors,
                                      disk_sectors=total_sectors)
                if lookahead:
                    duration += 0.5 * rotation
            if obs is not None:
                obs.observe_service(duration)
                obs.requests.value += 1
            i += 1
            timeout = sim.timeout(duration)
            if completed is not None:
                prior, completed = completed, None
                self._fire_done(prior)
            yield timeout
            last = request.last_sector
            # cylinder_of minus the bounds re-check (done at submit)
            self.head_cylinder = last // spc
            self._head_sector = last
            request.complete_time = sim.now
            if merr > 0.0 and float(rng.random()) < merr:
                request.failed = True
                stats.media_errors += 1
            self._account(request, duration)
            self._in_service = None
            completed = request

    def _fire_done(self, request: IORequest) -> None:
        """Run ``request``'s completion callbacks without a queue round-trip.

        Equivalent to ``done.succeed(request)`` followed by the engine
        popping and firing the event at the same timestamp — inlined
        here (mirroring :meth:`Event.succeed` + ``Event._fire``) because
        the server already stands at exactly the point in the
        event order where that pop would happen.
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
