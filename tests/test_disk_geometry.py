"""Unit and property tests for disk geometry."""

import pytest

from repro.disk import DiskGeometry, SECTOR_BYTES


def test_default_geometry_is_about_500mb():
    geo = DiskGeometry()
    capacity_bytes = geo.total_sectors * SECTOR_BYTES
    assert 480 * 1024 * 1024 <= capacity_bytes <= 520 * 1024 * 1024


def test_from_capacity_reaches_requested_size():
    geo = DiskGeometry.from_capacity_mb(500)
    capacity_bytes = geo.total_sectors * SECTOR_BYTES
    assert capacity_bytes >= 500 * 1024 * 1024
    # ... but not by more than one cylinder
    assert capacity_bytes - 500 * 1024 * 1024 < \
        geo.sectors_per_cylinder * SECTOR_BYTES


def test_from_capacity_rejects_nonpositive():
    with pytest.raises(ValueError):
        DiskGeometry.from_capacity_mb(0)


def test_cylinder_of_boundaries():
    geo = DiskGeometry(cylinders=10, heads=2, sectors_per_track=4)
    assert geo.cylinder_of(7) == 0
    assert geo.cylinder_of(8) == 1


def test_out_of_range_sector_rejected():
    geo = DiskGeometry(cylinders=2, heads=2, sectors_per_track=2)
    with pytest.raises(ValueError):
        geo.cylinder_of(geo.total_sectors)
    with pytest.raises(ValueError):
        geo.cylinder_of(-1)


def test_nonpositive_dimensions_rejected():
    with pytest.raises(ValueError):
        DiskGeometry(cylinders=0)


# -- zoned-bit recording ------------------------------------------------------

def test_zbr_outer_tracks_hold_more():
    from repro.disk import ZBRGeometry
    geo = ZBRGeometry(cylinders=1000, heads=16, sectors_per_track=63,
                      zbr_ratio=1.6, zones=8)
    outer = geo.sectors_per_track_at(0)
    inner = geo.sectors_per_track_at(999)
    assert outer > inner
    assert outer / inner == pytest.approx(1.6, rel=0.1)


def test_zbr_mean_capacity_preserved():
    from repro.disk import ZBRGeometry
    import numpy as np
    geo = ZBRGeometry(cylinders=1000, heads=16, sectors_per_track=63)
    spts = [geo.sectors_per_track_at(c) for c in range(0, 1000, 10)]
    assert np.mean(spts) == pytest.approx(63, rel=0.05)
    # LBA mapping unchanged from the flat geometry
    assert geo.total_sectors == 1000 * 16 * 63


def test_zbr_validation():
    from repro.disk import ZBRGeometry
    with pytest.raises(ValueError):
        ZBRGeometry(zbr_ratio=0.5)
    with pytest.raises(ValueError):
        ZBRGeometry(zones=0)
    geo = ZBRGeometry()
    with pytest.raises(ValueError):
        geo.sectors_per_track_at(-1)


def test_plain_geometry_is_uniform():
    geo = DiskGeometry(cylinders=100, heads=2, sectors_per_track=10)
    assert geo.sectors_per_track_at(0) == geo.sectors_per_track_at(99) == 10


def test_zbr_transfer_faster_on_outer_cylinders():
    from repro.disk import DiskServiceModel, ZBRGeometry
    model = DiskServiceModel(geometry=ZBRGeometry())
    rate = model.tables.rate
    assert rate[0] > rate[model.geometry.cylinders - 1]
