"""Unit tests for the Disk device process."""

import numpy as np
import pytest

from repro.disk import Disk, DiskGeometry, DiskServiceModel, FIFOScheduler, IORequest
from repro.sim import Simulator


def make_disk(sim, **kwargs):
    return Disk(sim, rng=np.random.default_rng(0), **kwargs)


def test_single_request_completes_with_positive_latency():
    sim = Simulator()
    disk = make_disk(sim)
    req = IORequest(sector=1000, nsectors=2, is_write=False)
    disk.submit(req)
    sim.run()
    assert req.complete_time is not None
    assert req.latency > 0
    assert disk.stats.reads == 1
    assert disk.stats.sectors_read == 2


def test_completion_event_carries_request():
    sim = Simulator()
    disk = make_disk(sim)
    seen = []

    def issuer(sim, disk):
        req = IORequest(sector=10, nsectors=2, is_write=True)
        done = disk.submit(req)
        result = yield done
        seen.append(result)

    sim.process(issuer(sim, disk))
    sim.run()
    assert len(seen) == 1 and seen[0].sector == 10
    assert disk.stats.writes == 1


def test_requests_serialize_on_single_actuator():
    sim = Simulator()
    disk = make_disk(sim, scheduler=FIFOScheduler())
    reqs = [IORequest(sector=s, nsectors=2, is_write=False)
            for s in (100, 200_000, 400_000)]
    for r in reqs:
        disk.submit(r)
    sim.run()
    times = [r.complete_time for r in reqs]
    assert times == sorted(times)
    assert len(set(times)) == 3  # strictly serialized


def test_queue_depth_counts_waiting_and_in_service():
    sim = Simulator()
    disk = make_disk(sim)
    for s in (100, 200, 300):
        disk.submit(IORequest(sector=s, nsectors=2, is_write=False))
    assert disk.queue_depth == 3
    sim.run()
    assert disk.queue_depth == 0
    assert disk.stats.max_queue_depth == 3


def test_request_beyond_disk_end_rejected():
    sim = Simulator()
    disk = make_disk(sim)
    with pytest.raises(ValueError):
        disk.submit(IORequest(sector=disk.total_sectors - 1, nsectors=2,
                              is_write=False))


def test_head_position_follows_service():
    sim = Simulator()
    disk = make_disk(sim)
    target = 600_000
    disk.submit(IORequest(sector=target, nsectors=2, is_write=False))
    sim.run()
    assert disk.head_cylinder == disk.service.geometry.cylinder_of(target + 1)


def test_elevator_orders_service_by_sector():
    sim = Simulator()
    disk = make_disk(sim)  # default C-LOOK
    order = []

    def issue_all(sim, disk):
        reqs = [IORequest(sector=s, nsectors=2, is_write=False)
                for s in (900_000, 5_000, 400_000)]
        events = [disk.submit(r) for r in reqs]
        for r, ev in zip(reqs, events):
            ev.callbacks.append(lambda _e, r=r: order.append(r.sector))
        yield sim.timeout(0)

    sim.process(issue_all(sim, disk))
    sim.run()
    # Head starts at 0 -> single upward sweep.
    assert order == [5_000, 400_000, 900_000]


def test_larger_requests_take_longer():
    def one(nsectors):
        sim = Simulator()
        service = DiskServiceModel(geometry=DiskGeometry())
        disk = Disk(sim, service=service, rng=np.random.default_rng(7))
        req = IORequest(sector=0, nsectors=nsectors, is_write=False)
        disk.submit(req)
        sim.run()
        return req.latency

    assert one(64) > one(2)


def test_busy_time_and_mean_latency_accumulate():
    sim = Simulator()
    disk = make_disk(sim)
    for s in (100, 200):
        disk.submit(IORequest(sector=s, nsectors=2, is_write=True))
    sim.run()
    assert disk.stats.busy_time > 0
    assert disk.stats.mean_latency > 0


def test_disk_idles_then_accepts_new_work():
    sim = Simulator()
    disk = make_disk(sim)

    def late_issuer(sim, disk):
        yield sim.timeout(10.0)
        req = IORequest(sector=100, nsectors=2, is_write=False)
        yield disk.submit(req)
        assert sim.now > 10.0

    sim.process(late_issuer(sim, disk))
    sim.run()
    assert disk.stats.requests == 1


def test_disk_stats_mean_latency_is_the_exact_sum():
    sim = Simulator()
    disk = make_disk(sim)
    requests = [IORequest(sector=(i * 977) % 10_000, nsectors=2,
                          is_write=True) for i in range(50)]

    def issuer():
        for request in requests:
            yield disk.submit(request)

    sim.process(issuer())
    sim.run()
    assert disk.stats.requests == 50
    assert disk.stats.total_latency == pytest.approx(
        sum(request.latency for request in requests))
    assert disk.stats.mean_latency == pytest.approx(
        disk.stats.total_latency / 50)
