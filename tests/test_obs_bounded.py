"""Obs histograms buffer a bounded number of raw observations.

The hot call sites (the disk's commit, the network's per-frame loop)
fold their histograms once ``FOLD_EVERY`` observations are buffered, so
a long instrumented run holds a fixed-size buffer instead of every
value it observed.  Where the folds fall changes no statistic.
"""

import random
import sys

import numpy as np
import pytest

import repro.cluster.network as network_module
import repro.disk.device as device_module
from repro.cluster.network import MTU, EthernetNetwork
from repro.disk import Disk, IORequest
from repro.obs import Histogram, MetricsRegistry
from repro.sim import Simulator

SMALL = 8


def _values(n, seed=3):
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        kind = rng.random()
        if kind < 0.1:
            out.append(0)
        elif kind < 0.15:
            out.append(-rng.random())
        elif kind < 0.5:
            out.append(rng.randrange(1, 5000))
        else:
            out.append(rng.random() * 10 ** rng.randrange(-6, 4))
    return out


def test_folding_in_batches_changes_no_statistic():
    values = _values(5000)
    whole = Histogram("h")
    for value in values:
        whole.observe(value)
    batched = Histogram("h")
    for i, value in enumerate(values, 1):
        batched.observe(value)
        if i % 7 == 0:
            batched.fold()
    a, b = whole.snapshot()["value"], batched.snapshot()["value"]
    if sys.version_info >= (3, 12):
        # sum() of floats is compensated within one call from 3.12 on,
        # so the split into calls can move the last bits
        assert b.pop("sum") == pytest.approx(a.pop("sum"), rel=1e-12)
    assert b == a
    assert batched.raw == []


def _disk_snapshot(monkeypatch, fold_every, nrequests=100):
    monkeypatch.setattr(device_module, "FOLD_EVERY", fold_every)
    sim = Simulator()
    registry = MetricsRegistry()
    disk = Disk(sim, rng=np.random.default_rng(5), obs=registry)
    peak = 0

    def client():
        nonlocal peak
        rng = np.random.default_rng(9)
        for _ in range(nrequests):
            sector = int(rng.integers(0, disk.total_sectors - 8))
            yield disk.submit(IORequest(sector=sector, nsectors=2,
                                        is_write=bool(rng.random() < 0.5)))
            peak = max(peak, *(len(h.raw) for h in (
                disk._obs.queue_depth, disk._obs.seek_cylinders,
                disk._obs.service_time)))

    sim.process(client())
    sim.run()
    return registry.snapshot(), peak


def test_disk_histograms_fold_at_a_fixed_count(monkeypatch):
    folded, peak = _disk_snapshot(monkeypatch, SMALL)
    unfolded, unfolded_peak = _disk_snapshot(monkeypatch, 10 ** 9)
    assert peak <= SMALL
    assert unfolded_peak == 100
    assert folded == unfolded


def _net_snapshot(monkeypatch, fold_every, messages=30):
    monkeypatch.setattr(network_module, "FOLD_EVERY", fold_every)
    sim = Simulator()
    registry = MetricsRegistry()
    net = EthernetNetwork(sim, rng=np.random.default_rng(0), obs=registry)
    peak = 0

    def sender():
        nonlocal peak
        for _ in range(messages):
            yield from net.transmit(3 * MTU)
            peak = max(peak, *(len(h.raw) for h in net._obs.frame_channels))

    sim.process(sender())
    sim.run()
    return registry.snapshot(), peak


def test_network_histograms_fold_at_a_fixed_count(monkeypatch):
    folded, peak = _net_snapshot(monkeypatch, SMALL)
    unfolded, unfolded_peak = _net_snapshot(monkeypatch, 10 ** 9)
    assert peak <= SMALL
    assert unfolded_peak == 45          # 90 frames over two channels
    assert folded == unfolded
