"""Unit tests for request-size classification."""

import pytest

from repro.core import RequestClass, TraceDataset, classify_sizes, size_histogram
from repro.core.sizes import (
    class_fractions,
    dominant_size,
    max_size_kb,
    size_time_series,
)


def trace_of_sizes(sizes):
    return TraceDataset.from_records(
        [(float(i), i * 10, 0, 1, s, 0) for i, s in enumerate(sizes)])


def test_three_classes():
    ds = trace_of_sizes([1.0, 2.0, 4.0, 8.0, 16.0, 32.0])
    classes = classify_sizes(ds)
    assert list(classes) == [RequestClass.BLOCK, RequestClass.BLOCK,
                             RequestClass.PAGE, RequestClass.CACHE,
                             RequestClass.CACHE, RequestClass.CACHE]


def test_class_fractions_sum_to_one():
    ds = trace_of_sizes([1.0, 1.0, 4.0, 16.0])
    fractions = class_fractions(ds)
    assert sum(fractions.values()) == pytest.approx(1.0)
    assert fractions[RequestClass.BLOCK] == pytest.approx(0.5)
    assert fractions[RequestClass.PAGE] == pytest.approx(0.25)


def test_class_fractions_empty_trace():
    fractions = class_fractions(TraceDataset.empty())
    assert all(v == 0.0 for v in fractions.values())


def test_custom_page_size():
    ds = trace_of_sizes([8.0])
    assert classify_sizes(ds, page_kb=8.0)[0] == RequestClass.PAGE


def test_size_histogram():
    ds = trace_of_sizes([1.0, 1.0, 4.0])
    assert size_histogram(ds) == {1.0: 2, 4.0: 1}


def test_dominant_and_max():
    ds = trace_of_sizes([1.0, 1.0, 16.0])
    assert dominant_size(ds) == 1.0
    assert max_size_kb(ds) == 16.0
    with pytest.raises(ValueError):
        dominant_size(TraceDataset.empty())
    with pytest.raises(ValueError):
        max_size_kb(TraceDataset.empty())


def test_size_time_series_matches_records():
    ds = trace_of_sizes([1.0, 4.0])
    t, s = size_time_series(ds)
    assert list(t) == [0.0, 1.0]
    assert list(s) == [1.0, 4.0]
