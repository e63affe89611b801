"""Tests for queueing analysis and M/G/1 validation of the disk model."""

import numpy as np
import pytest

from repro.core import TraceDataset
from repro.core.queueing import (
    mg1_mean_response,
    mg1_mean_wait,
    queue_summary,
    validate_disk_against_mg1,
)
from repro.disk import Disk, FIFOScheduler, IORequest
from repro.sim import Simulator


def test_queue_summary_basics():
    ds = TraceDataset.from_records([
        (0.0, 1, 1, 1, 1.0, 0),
        (1.0, 2, 1, 3, 1.0, 0),
        (2.0, 3, 1, 6, 1.0, 0),
    ])
    qs = queue_summary(ds)
    assert qs.mean_pending == pytest.approx(10 / 3)
    assert qs.max_pending == 6
    assert qs.idle_arrival_fraction == pytest.approx(1 / 3)
    with pytest.raises(ValueError):
        queue_summary(TraceDataset.empty())


def test_mg1_reduces_to_mm1_for_exponential_service():
    # For SCV=1 (exponential), W = rho * S / (1 - rho): the M/M/1 wait.
    lam, s = 5.0, 0.1   # rho = 0.5
    w = mg1_mean_wait(lam, s, 1.0)
    assert w == pytest.approx(0.5 * 0.1 / 0.5)
    assert mg1_mean_response(lam, s, 1.0) == pytest.approx(w + s)


def test_mg1_deterministic_service_halves_wait():
    lam, s = 5.0, 0.1
    assert mg1_mean_wait(lam, s, 0.0) == \
        pytest.approx(mg1_mean_wait(lam, s, 1.0) / 2)


def test_mg1_validation_errors():
    with pytest.raises(ValueError):
        mg1_mean_wait(0, 1.0, 1.0)
    with pytest.raises(ValueError):
        mg1_mean_wait(11.0, 0.1, 1.0)   # rho > 1


def run_poisson_disk(arrival_rate, nrequests=3000, seed=0):
    """Drive the simulated disk with Poisson arrivals, random sectors;
    returns the disk and its requests' latencies, in submit order."""
    sim = Simulator()
    disk = Disk(sim, scheduler=FIFOScheduler(),
                rng=np.random.default_rng(seed))
    rng = np.random.default_rng(seed + 1)
    total = disk.total_sectors
    requests = []

    def source():
        for _ in range(nrequests):
            yield sim.timeout(float(rng.exponential(1.0 / arrival_rate)))
            requests.append(IORequest(sector=int(rng.integers(0, total - 2)),
                                      nsectors=2, is_write=False))
            disk.submit(requests[-1])

    sim.process(source())
    sim.run()
    return disk, np.array([request.latency for request in requests])


def test_simulated_disk_matches_mg1_at_moderate_load():
    """The disk+FIFO queue behaves like M/G/1 theory predicts."""
    # measure service-time moments first at trivial load
    probe, lat = run_poisson_disk(arrival_rate=0.5, nrequests=800, seed=3)
    service_mean = probe.stats.busy_time / probe.stats.requests
    # at rho ~ 0.01 latency ~ service time; estimate SCV from it
    service_scv = float(lat.var() / lat.mean() ** 2)

    arrival_rate = 0.5 / service_mean   # target rho = 0.5
    disk, _ = run_poisson_disk(arrival_rate, nrequests=4000, seed=7)
    validation = validate_disk_against_mg1(
        disk, arrival_rate, service_mean=service_mean,
        service_scv=service_scv)
    assert 0.4 < validation.utilization < 0.6
    assert validation.relative_error < 0.15, validation


def test_validation_requires_service():
    sim = Simulator()
    disk = Disk(sim, rng=np.random.default_rng(0))
    with pytest.raises(ValueError):
        validate_disk_against_mg1(disk, 1.0)
