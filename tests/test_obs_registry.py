"""Unit tests for the observability metric primitives."""

import json
import math

import pytest

from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    bucket_edge,
    bucket_of,
    compare_snapshots,
    flatten_snapshot,
    render_snapshot_table,
)


# -- counters / gauges --------------------------------------------------------
def test_counter_counts_and_rejects_negative():
    c = Counter("events")
    c.inc()
    c.inc(3)
    assert c.value == 4
    with pytest.raises(ValueError):
        c.inc(-1)


def test_counter_children_are_get_or_create():
    c = Counter("requests")
    a = c.child("hda0")
    assert c.child("hda0") is a
    a.inc(2)
    c.child("hda1").inc(5)
    snap = c.snapshot()
    assert snap == {"type": "counter",
                    "children": {"hda0": 2, "hda1": 5}}


def test_counter_snapshot_keeps_parent_value_alongside_children():
    c = Counter("n")
    c.inc(7)
    c.child("x").inc(1)
    assert c.snapshot() == {"type": "counter",
                            "children": {"x": 1}, "value": 7}


def test_gauge_tracks_high_water_mark():
    g = Gauge("depth")
    g.set(5)
    g.inc(2)
    g.inc(-4)
    assert g.value == 3
    assert g.max == 7
    assert g.snapshot() == {"type": "gauge",
                            "value": {"value": 3, "max": 7}}


def test_gauge_at_its_max_snapshots_as_scalar():
    g = Gauge("depth")
    g.set(9)
    assert g.snapshot() == {"type": "gauge", "value": 9}


# -- histograms ---------------------------------------------------------------
def test_histogram_statistics():
    h = Histogram("lat")
    for v in (1.0, 2.0, 3.0):
        h.observe(v)
    assert h.count == 3
    assert h.sum == 6.0
    assert h.mean == 2.0
    assert h.min == 1.0 and h.max == 3.0


def test_histogram_log2_buckets():
    h = Histogram("sizes")
    for v in (0.75, 1.0, 1.5, 3.0, 4.0, 0.0, -2.0):
        h.observe(v)
    # 0.75 -> (0.5, 1]; 1.0/1.5 -> (1, 2]; 3.0/4.0 -> exponent 2 and 3
    assert h.buckets[0] == 1
    assert h.buckets[1] == 2
    assert h.buckets[2] == 1
    assert h.buckets[3] == 1
    # zero and negative observations go to the explicit underflow
    # bucket, not to nonsense exponent keys
    assert h.underflow == 2
    assert -1024 not in h.buckets and -1025 not in h.buckets


def test_histogram_underflow_in_snapshot_and_render():
    h = Histogram("gap")
    for v in (0.0, -1.5, 2.0):
        h.observe(v)
    snap = h.snapshot()
    assert snap["value"]["buckets"] == {"underflow": 2, "2": 1}
    from repro.obs import flatten_snapshot
    flat = flatten_snapshot({"gap": snap})
    assert flat["gap.underflow"] == 2
    assert flat["gap.count"] == 3


def test_bucket_of_routes_nonpositive_to_underflow():
    assert bucket_of(0.0) == "underflow"
    assert bucket_of(-3.0) == "underflow"
    assert bucket_edge("underflow") == 0.0
    # legacy integer sentinels from old persisted snapshots still decode
    assert bucket_edge(-1024) == 0.0
    assert bucket_edge(-1025) == float("-inf")


def test_bucket_of_brackets_every_positive_value():
    for v in (1e-9, 0.3, 1.0, 7.0, 1024.0, 3.7e11):
        e = bucket_of(v)
        assert 2.0 ** (e - 1) <= v <= bucket_edge(e)


def test_histogram_snapshot_round_trips_through_json():
    h = Histogram("x")
    h.observe(0.5)
    h.observe(8.0)
    snap = json.loads(json.dumps(h.snapshot()))
    assert snap["value"]["count"] == 2
    assert snap["value"]["min"] == 0.5
    assert snap["value"]["max"] == 8
    assert snap["value"]["buckets"] == {"0": 1, "4": 1}


def test_empty_histogram_snapshot_is_minimal():
    assert Histogram("x").snapshot() == {"type": "histogram",
                                         "value": {"count": 0, "sum": 0}}


# -- registry -----------------------------------------------------------------
def test_registry_get_or_create_and_type_guard():
    reg = MetricsRegistry()
    c = reg.counter("a")
    assert reg.counter("a") is c
    with pytest.raises(TypeError):
        reg.gauge("a")
    assert len(reg) == 1


def test_registry_snapshot_is_sorted_and_deterministic():
    reg = MetricsRegistry()
    reg.counter("z").inc()
    reg.counter("a").inc(2)
    reg.histogram("m").observe(1.5)
    snap = reg.snapshot()
    assert list(snap) == ["a", "m", "z"]
    assert snap == reg.snapshot()


def test_registry_span_times_into_histogram():
    reg = MetricsRegistry()
    with reg.span("phase.settle"):
        math.sqrt(2.0)
    h = reg.histogram("phase.settle")
    assert h.count == 1
    assert h.sum >= 0.0


# -- flatten / render / compare ----------------------------------------------
def _sample_snapshot():
    reg = MetricsRegistry()
    reg.counter("sim.events").inc(100)
    g = reg.gauge("sim.heap")
    g.set(9)
    g.set(4)
    h = reg.histogram("disk.service")
    h.child("hda0").observe(2.0)
    h.child("hda0").observe(4.0)
    return reg.snapshot()


def test_flatten_snapshot_rows():
    flat = flatten_snapshot(_sample_snapshot())
    assert flat["sim.events"] == 100
    assert flat["sim.heap"] == 4
    assert flat["sim.heap.max"] == 9
    assert flat["disk.service{hda0}.count"] == 2
    assert flat["disk.service{hda0}.mean"] == 3.0
    assert flat["disk.service{hda0}.max"] == 4


def test_render_snapshot_table_aligns_and_filters():
    snap = _sample_snapshot()
    table = render_snapshot_table({"run": snap}, only=["sim."])
    lines = table.splitlines()
    assert lines[0].startswith("metric")
    assert all("disk." not in line for line in lines)
    assert any("sim.events" in line and "100" in line for line in lines)


def test_render_snapshot_table_delta_column():
    before = _sample_snapshot()
    reg = MetricsRegistry()
    reg.counter("sim.events").inc(150)
    table = render_snapshot_table({"a": before, "b": reg.snapshot()})
    row = next(line for line in table.splitlines() if "sim.events" in line)
    assert "+50.0" in row
    assert "delta%" in table.splitlines()[0]


def test_compare_snapshots_diffs_and_tolerance():
    reg1, reg2 = MetricsRegistry(), MetricsRegistry()
    reg1.counter("n").inc(100)
    reg2.counter("n").inc(104)
    reg1.counter("same").inc(5)
    reg2.counter("same").inc(5)
    diffs = compare_snapshots(reg1.snapshot(), reg2.snapshot())
    assert diffs == {"n": (100, 104)}
    assert compare_snapshots(reg1.snapshot(), reg2.snapshot(),
                             rel_tolerance=0.05) == {}
