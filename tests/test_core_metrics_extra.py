"""Tests for VERBOSE service-time estimation."""

import numpy as np
import pytest

from repro.core import TraceDataset
from repro.core.metrics import estimate_service_times
from repro.disk import Disk, SingleVolume
from repro.driver import (
    HDIO_SET_TRACE,
    InstrumentedIDEDriver,
    ProcTraceTransport,
    TraceLevel,
)
from repro.sim import Simulator


def test_estimate_service_times_pairs_records():
    # submit at t, complete at t+latency, same identity
    rows = [
        (1.0, 100, 0, 1, 1.0, 0), (1.050, 100, 0, 0, 1.0, 0),
        (2.0, 200, 1, 1, 4.0, 0), (2.120, 200, 1, 0, 4.0, 0),
    ]
    lat = estimate_service_times(TraceDataset.from_records(rows))
    assert np.allclose(sorted(lat), [0.05, 0.12])


def test_estimate_service_times_unpaired_ignored():
    rows = [(1.0, 100, 0, 1, 1.0, 0)]
    assert len(estimate_service_times(TraceDataset.from_records(rows))) == 0
    assert len(estimate_service_times(TraceDataset.empty())) == 0


def test_verbose_driver_trace_yields_latencies_end_to_end():
    sim = Simulator()
    disk = Disk(sim, rng=np.random.default_rng(0))
    transport = ProcTraceTransport(sim)
    driver = InstrumentedIDEDriver(sim, SingleVolume([disk]),
                                   transport=transport)
    driver.ioctl(HDIO_SET_TRACE, TraceLevel.VERBOSE)
    for sector in (1000, 50_000, 600_000):
        driver.read_sectors(sector, 2)
    sim.run(until=10.0)
    transport.drain_now()
    trace = TraceDataset(transport.user_buffer.to_array())
    lat = estimate_service_times(trace)
    assert len(lat) == 3
    assert (lat > 0).all()
    # estimates agree with the device's own accounting
    assert np.mean(lat) == pytest.approx(disk.stats.mean_latency, rel=1e-6)


def test_kb_moved_and_throughput():
    from repro.core.metrics import compute_metrics
    ds = TraceDataset.from_records([
        (0.0, 1, 1, 1, 1.0, 0),
        (5.0, 2, 0, 1, 4.0, 0),
        (10.0, 3, 1, 1, 16.0, 0),
    ])
    m = compute_metrics(ds, duration=10.0)
    assert m.kb_moved == 21.0
    assert m.throughput_kb_per_s == pytest.approx(2.1)


def test_class_throughput_partitions_volume():
    from repro.core.metrics import class_throughput
    from repro.core.sizes import RequestClass
    ds = TraceDataset.from_records([
        (0.0, 1, 1, 1, 1.0, 0),
        (1.0, 2, 0, 1, 4.0, 0),
        (2.0, 3, 1, 1, 16.0, 0),
    ])
    tp = class_throughput(ds, duration=1.0)
    assert tp[RequestClass.BLOCK] == pytest.approx(1.0)
    assert tp[RequestClass.PAGE] == pytest.approx(4.0)
    assert tp[RequestClass.CACHE] == pytest.approx(16.0)
    assert sum(tp.values()) == pytest.approx(21.0)


def test_class_throughput_empty():
    from repro.core.metrics import class_throughput
    tp = class_throughput(TraceDataset.empty(), duration=1.0)
    assert all(v == 0.0 for v in tp.values())


def test_idle_nodes_still_divide_per_node_averages():
    """Regression: a node with zero requests must count in the denominators.

    Deriving the node count from the trace silently dropped idle nodes
    and inflated requests_per_node / req/s/node / KB/s-per-disk.
    """
    from repro.core.experiments import ExperimentResult
    from repro.core.metrics import compute_metrics
    # 4-node cluster, but only node 0 issued I/O
    ds = TraceDataset.from_records([
        (float(i), i, i % 2, 1, 4.0, 0) for i in range(8)
    ])
    m = compute_metrics(ds, duration=10.0, nnodes=4)
    assert m.nnodes == 4
    assert m.requests_per_node == 2.0
    assert m.requests_per_second == pytest.approx(0.2)
    assert m.throughput_kb_per_s == pytest.approx(32.0 / 10.0 / 4)
    # the observed-node fallback (legacy behaviour) would have said 8
    biased = compute_metrics(ds, duration=10.0)
    assert biased.nnodes == 1
    assert biased.requests_per_node == 8.0
    # ExperimentResult threads its cluster size through automatically
    result = ExperimentResult(name="x", trace=ds, duration=10.0, nnodes=4)
    assert result.metrics.requests_per_node == 2.0


def test_throughput_uses_stored_nnodes_not_reconstruction():
    """Regression: throughput once reconstructed the node count as
    round(total_requests / requests_per_node), which broke on windowed
    traces where the two figures came from different record sets."""
    from repro.core.metrics import WorkloadMetrics
    m = WorkloadMetrics(label="x", total_requests=7, read_fraction=1.0,
                        write_fraction=0.0, requests_per_second=0.35,
                        requests_per_node=3.5, duration=10.0,
                        mean_size_kb=4.0, mean_pending=1.0,
                        kb_moved=100.0, nnodes=2)
    assert m.throughput_kb_per_s == pytest.approx(100.0 / 10.0 / 2)


def test_workload_metrics_dict_round_trip():
    from repro.core.metrics import WorkloadMetrics
    m = WorkloadMetrics(label="run", total_requests=10, read_fraction=0.6,
                        write_fraction=0.4, requests_per_second=1.0,
                        requests_per_node=5.0, duration=10.0,
                        mean_size_kb=2.0, mean_pending=1.5,
                        kb_moved=20.0, nnodes=2)
    data = m.to_dict()
    assert data["nnodes"] == 2
    assert data["read_pct"] == 60
    assert WorkloadMetrics.from_dict(data) == m


def test_workload_metrics_from_legacy_manifest_dict():
    """Manifests written before the nnodes field must still load: the
    v1 -> v2 migration step folds percentages back into fractions and
    takes the node count from the manifest."""
    from repro import migrate
    from repro.core.metrics import WorkloadMetrics
    legacy = {"total_requests": 100, "read_pct": 70, "write_pct": 30,
              "requests_per_second": 2.5, "requests_per_node": 25.0,
              "duration": 10.0, "mean_size_kb": 4.0, "mean_pending": 1.0,
              "kb_moved": 400.0}
    manifest = migrate.manifest({"format": "repro-run-v1", "nnodes": 4,
                                 "metrics": legacy})
    m = WorkloadMetrics.from_dict(manifest["metrics"])
    assert m.nnodes == 4          # the manifest's node count
    assert m.read_fraction == pytest.approx(0.7)
    assert m.write_fraction == pytest.approx(0.3)
    assert m.throughput_kb_per_s == pytest.approx(400.0 / 10.0 / 4)
    # minimal legacy dicts default sanely
    bare = WorkloadMetrics.from_dict({"total_requests": 5})
    assert bare.nnodes == 1
    assert bare.label == ""
