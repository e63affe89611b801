"""Replayed-vs-scalar equivalence: the state-machine disk changes nothing.

:class:`Disk` has no server process: it is its own event-queue entry,
makes one scheduler pick per service, and fires completions directly.
:class:`ScalarDisk` below is the test oracle — the one-request-per-
wakeup reference server: a generator process, one scheduler round-trip
and one queued completion event per request.  The production device is
only allowed to be *faster*: for every registered scheduler discipline
the same submitted stream must produce bit-identical completion
ordering, per-request latencies, and :class:`DiskStats` — also on a
simulator resumed an hour in from a clock snapshot that still names the
event queue (``heap``/``calendar``) it was taken under.

The workloads interleave bursts (same-instant submissions, so picks
choose among real multi-request queues) with spaced arrivals (depth-1
fast paths).  Some requests submit a follow-up from their done callback
at the completion instant, which exercises the idle transition and the
commit-before-callbacks order; others fan out through a two-member
striped or mirrored volume.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.disk import Disk
from repro.disk.request import IORequest
from repro.disk.scheduler import SCHEDULERS
from repro.disk.service import DiskServiceModel
from repro.disk.volume import Raid0Volume, Raid1Volume
from repro.obs import MetricsRegistry
from repro.sim import Simulator

MODEL = DiskServiceModel()
TOTAL_SECTORS = MODEL.geometry.total_sectors


class ScalarDisk(Disk):
    """Reference device: a server process that re-selects after every
    service, queues each completion as an event, and computes every
    service time scalar."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._wakeup = None
        self.sim.process(self._server(), name=f"disk:{self.name}")

    def submit(self, request: IORequest):
        if request.last_sector >= self.total_sectors:
            raise ValueError("request beyond end of disk")
        request.submit_time = self.sim.now
        request.done = self.sim.event()
        self.scheduler.add(request)
        depth = self.queue_depth
        self.stats.max_queue_depth = max(self.stats.max_queue_depth, depth)
        if self._obs is not None:
            self._obs.queue_depth.observe(depth)
        if self._wakeup is not None and not self._wakeup.triggered:
            self._wakeup.succeed()
        return request.done

    def _server(self):
        sim = self.sim
        spc = self.service.geometry.sectors_per_cylinder
        while True:
            request = self.scheduler.next(self._head_sector)
            if request is None:
                self._wakeup = sim.event()
                yield self._wakeup
                self._wakeup = None
                continue
            self._in_service = request
            obs = self._obs
            if obs is not None:
                target = request.sector // spc
                obs.seek_cylinders.observe(abs(target - self.head_cylinder))
            duration = self._service_duration(request)
            if obs is not None:
                obs.service_time.observe(duration)
                obs.requests.value += 1
            yield sim.timeout(duration)
            self.head_cylinder = self.service.geometry.cylinder_of(
                request.last_sector)
            self._head_sector = request.last_sector
            request.complete_time = sim.now
            if (self.media_error_rate > 0.0
                    and float(self.rng.random()) < self.media_error_rate):
                request.failed = True
                self.stats.media_errors += 1
            self._account(request, duration)
            self._in_service = None
            request.done.succeed(request)

    def _service_duration(self, request: IORequest) -> float:
        """Mechanical service time, or electronic time on a drive-cache hit.

        Reads fully contained in the on-drive cache skip seek and
        rotation; misses fill a segment with look-ahead.  Writes are
        write-through and invalidate overlapping segments.
        """
        if self.cache is None:
            return self.service.service_time(request, self.head_cylinder,
                                             self.rng)
        if request.is_write:
            self.cache.invalidate(request.sector, request.nsectors)
            return self.service.service_time(request, self.head_cylinder,
                                             self.rng)
        if self.cache.lookup(request.sector, request.nsectors):
            return (self.service.controller_overhead
                    + self.service.transfer_time(request.nsectors))
        duration = self.service.service_time(request, self.head_cylinder,
                                             self.rng)
        self.cache.fill_after_read(request.sector, request.nsectors,
                                   disk_sectors=self.total_sectors)
        # the look-ahead rides the same rotation; charge half a revolution
        # (drives that read nothing ahead — e.g. NullDriveCache — don't pay)
        if getattr(self.cache, "lookahead_sectors", 0) > 0:
            duration += 0.5 * self.service.rotation_time
        return duration


_span = st.tuples(st.integers(min_value=0, max_value=TOTAL_SECTORS - 64),
                 st.integers(min_value=1, max_value=64),
                 st.booleans())

# (inter-arrival delay, (sector, nsectors, is_write), follow-up span or
# None); zero delays create same-instant bursts, and a follow-up is
# submitted from the request's done callback at its completion instant
_requests = st.lists(
    st.tuples(
        st.one_of(st.just(0.0),
                  st.floats(min_value=1e-6, max_value=0.2,
                            allow_nan=False, allow_infinity=False)),
        _span,
        st.one_of(st.none(), _span),
    ),
    min_size=1, max_size=40,
)


def _stats(disk):
    stats = disk.stats
    return (stats.reads, stats.writes, stats.sectors_read,
            stats.sectors_written, stats.busy_time, stats.total_latency,
            stats.max_queue_depth, stats.media_errors)


def _drive(sim, target, workload, completions):
    """Start a process submitting ``workload`` to ``target`` (a disk or
    a volume); each completion appends ``(label, now, latency, failed)``
    and submits the request's follow-up, if any, right there."""

    def submit(label, span, follow=None):
        request = IORequest(*span)

        def done(_ev):
            completions.append((label, sim.now,
                                request.complete_time - request.submit_time,
                                request.failed))
            if follow is not None:
                submit(-1 - label, follow)

        target.submit(request).callbacks.append(done)

    def submitter():
        for index, (delay, span, follow) in enumerate(workload):
            if delay:
                yield sim.timeout(delay)
            submit(index, span, follow)

    sim.process(submitter(), name="submitter")


def _run(device_cls, scheduler_name, workload, seed,
         media_error_rate=0.0, obs=None, clock=None):
    """Drive one disk with ``workload``; return the observable record.

    ``clock`` is a :meth:`Simulator.clock_state` snapshot to resume from.
    """
    sim = Simulator()
    if clock is not None:
        sim.restore_clock(clock)
    disk = device_cls(sim,
                      service=MODEL,
                      scheduler=SCHEDULERS[scheduler_name](),
                      rng=np.random.default_rng(seed),
                      media_error_rate=media_error_rate,
                      obs=obs)
    completions = []
    _drive(sim, disk, workload, completions)
    sim.run()
    return completions, _stats(disk)


def _run_volume(device_cls, volume_cls, scheduler_name, workload, seed):
    """Drive a two-member volume; return the logical completions plus
    each member's physical completions and stats."""
    sim = Simulator()
    members = [device_cls(sim, service=MODEL,
                          scheduler=SCHEDULERS[scheduler_name](),
                          rng=np.random.default_rng(seed + i),
                          media_error_rate=0.2, name=f"hd{i}")
               for i in range(2)]
    physical = {disk.name: [] for disk in members}
    for disk in members:
        def spy(request, disk=disk, submit=disk.submit):
            done = submit(request)
            done.callbacks.append(lambda _ev: physical[disk.name].append(
                (request.sector, request.nsectors, sim.now,
                 request.complete_time - request.submit_time,
                 request.failed)))
            return done
        disk.submit = spy
    completions = []
    _drive(sim, volume_cls(members, stripe_sectors=16), workload,
           completions)
    sim.run()
    return completions, physical, [_stats(disk) for disk in members]


@pytest.mark.parametrize("engine", [pytest.param(None, id="current"),
                                    pytest.param("heap", id="heap"),
                                    pytest.param("calendar", id="calendar")])
@pytest.mark.parametrize("scheduler_name", sorted(SCHEDULERS))
@settings(max_examples=25, deadline=None)
@given(workload=_requests, seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_batched_server_matches_scalar(scheduler_name, engine, workload, seed):
    # engine=None starts from a fresh clock; otherwise from a snapshot
    # taken while the event queue was selectable
    clock = None if engine is None else {"now": 3600.0, "seq": 100_000,
                                         "queue_kind": engine}
    scalar = _run(ScalarDisk, scheduler_name, workload, seed, clock=clock)
    batched = _run(Disk, scheduler_name, workload, seed, clock=clock)
    assert batched == scalar


@pytest.mark.parametrize("scheduler_name", sorted(SCHEDULERS))
@settings(max_examples=10, deadline=None)
@given(workload=_requests, seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_batched_server_matches_scalar_with_media_errors(scheduler_name,
                                                         workload, seed):
    # failed requests draw one extra uniform each; the lazy batched
    # draws must keep the stream aligned with the scalar server's
    scalar = _run(ScalarDisk, scheduler_name, workload, seed,
                  media_error_rate=0.2)
    batched = _run(Disk, scheduler_name, workload, seed,
                   media_error_rate=0.2)
    assert batched == scalar


@pytest.mark.parametrize("scheduler_name", sorted(SCHEDULERS))
@settings(max_examples=10, deadline=None)
@given(workload=_requests, seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_instrumented_server_matches_scalar(scheduler_name, workload, seed):
    # obs only adds observations: completions and stats stay those of
    # the scalar oracle, and every request is observed exactly once
    registries = {"scalar": MetricsRegistry(), "batched": MetricsRegistry()}
    scalar = _run(ScalarDisk, scheduler_name, workload, seed,
                  obs=registries["scalar"])
    batched = _run(Disk, scheduler_name, workload, seed,
                   obs=registries["batched"])
    assert batched == scalar
    for name in ("disk.seek_cylinders", "disk.service_seconds"):
        hists = {side: reg.histogram(name).child("hda")
                 for side, reg in registries.items()}
        assert hists["batched"].snapshot() == hists["scalar"].snapshot()
        assert hists["batched"].count == len(scalar[0])


@pytest.mark.parametrize("volume_cls", [Raid0Volume, Raid1Volume],
                         ids=["raid0", "raid1"])
@pytest.mark.parametrize("scheduler_name", sorted(SCHEDULERS))
@settings(max_examples=10, deadline=None)
@given(workload=_requests, seed=st.integers(min_value=0, max_value=2**32 - 2))
def test_volume_fanout_matches_scalar_members(scheduler_name, volume_cls,
                                              workload, seed):
    # striping splits spans across both members and mirroring writes
    # both, so one logical submit lands on two devices at one instant
    scalar = _run_volume(ScalarDisk, volume_cls, scheduler_name, workload,
                         seed)
    replayed = _run_volume(Disk, volume_cls, scheduler_name, workload, seed)
    assert replayed == scalar


def test_every_registered_scheduler_supports_batching():
    # drain/requeue stay part of the discipline contract although the
    # device no longer calls them: the traced benchmark's layer table
    # names them on every discipline
    for name in sorted(SCHEDULERS):
        scheduler = SCHEDULERS[name]()
        assert callable(scheduler.drain), name
        assert callable(scheduler.requeue), name
