"""Unit tests for TraceDataset."""

import numpy as np
import pytest

from repro.core import TraceDataset
from repro.driver.trace import merge_by_time


@pytest.fixture
def ds():
    return TraceDataset.from_records([
        (0.0, 100, 0, 1, 1.0, 0),
        (1.0, 200, 1, 2, 4.0, 0),
        (2.0, 300, 1, 1, 1.0, 1),
        (3.0, 100, 0, 1, 16.0, 1),
    ])


def test_len_and_fields(ds):
    assert len(ds) == 4
    assert list(ds.sector) == [100, 200, 300, 100]
    assert ds.duration == 3.0


def test_wrong_dtype_rejected():
    with pytest.raises(TypeError):
        TraceDataset(np.zeros(3, dtype=np.float64))


def test_empty(ds):
    empty = TraceDataset.empty()
    assert len(empty) == 0
    assert empty.duration == 0.0


def test_read_write_filters(ds):
    assert len(ds.reads()) == 2
    assert len(ds.writes()) == 2
    assert set(ds.reads().sector) == {100}


def test_node_filter(ds):
    assert len(ds.node(0)) == 2
    assert len(ds.node(1)) == 2
    assert list(ds.nodes()) == [0, 1]


def test_time_window(ds):
    window = ds.between(1.0, 3.0)
    assert list(window.time) == [1.0, 2.0]


def test_sector_range(ds):
    assert len(ds.sector_range(150, 350)) == 2


def test_merge_sorts_by_time():
    a = TraceDataset.from_records([(5.0, 1, 0, 1, 1.0, 0)])
    b = TraceDataset.from_records([(2.0, 2, 1, 1, 1.0, 1)])
    merged = TraceDataset(merge_by_time([a.records, b.records]))
    assert list(merged.time) == [2.0, 5.0]


def test_unknown_attribute_raises(ds):
    with pytest.raises(AttributeError):
        ds.bogus


def test_npy_roundtrip(tmp_path, ds):
    path = tmp_path / "trace.npy"
    ds.save(path)
    assert TraceDataset.load(path) == ds


def test_csv_roundtrip(tmp_path, ds):
    path = tmp_path / "trace.csv"
    ds.save(path)
    loaded = TraceDataset.load(path)
    assert len(loaded) == len(ds)
    assert np.allclose(loaded.time, ds.time)
    assert np.array_equal(loaded.sector, ds.sector)
    assert np.array_equal(loaded.write, ds.write)


def test_equality(ds):
    assert ds == TraceDataset(ds.records.copy())
    assert ds != TraceDataset.empty()


def test_suffixless_roundtrip(tmp_path, ds):
    """Regression: save("trace") let np.save append .npy behind the
    caller's back, and load("trace") then missed the file."""
    path = tmp_path / "trace"
    ds.save(path)
    assert TraceDataset.load(path) == ds
    # the normalised spelling works too, and no bare file was left
    assert TraceDataset.load(tmp_path / "trace.npy") == ds
    assert not path.exists()


def test_unknown_suffix_roundtrip(tmp_path, ds):
    path = tmp_path / "trace.dat"
    ds.save(path)
    assert TraceDataset.load(path) == ds


def test_rpt_roundtrip(tmp_path, ds):
    path = tmp_path / "trace.rpt"
    ds.save(path)
    assert TraceDataset.load(path) == ds


def test_save_returns_written_path(tmp_path, ds):
    assert ds.save(tmp_path / "t.npy") == tmp_path / "t.npy"
    assert ds.save(tmp_path / "t.csv") == tmp_path / "t.csv"
    assert ds.save(tmp_path / "t.rpt") == tmp_path / "t.rpt"
    # suffix-less spellings report the .npy they were normalised to
    assert ds.save(tmp_path / "bare") == tmp_path / "bare.npy"


def test_save_load_accept_str_paths(tmp_path, ds):
    written = ds.save(str(tmp_path / "t.npy"))
    assert written == tmp_path / "t.npy"
    assert TraceDataset.load(str(written)) == ds
