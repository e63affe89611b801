"""Unit tests for the disk service-time model."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.disk import DiskServiceModel, IORequest


@pytest.fixture
def model():
    return DiskServiceModel()


def test_rotation_time_matches_rpm(model):
    assert model.rotation_time == pytest.approx(60.0 / 4500.0)


def test_zero_seek_for_same_cylinder(model):
    assert model.tables.seek[0] == 0.0


def test_seek_monotonic_in_distance(model):
    times = [model.tables.seek[d] for d in (1, 10, 100, 1000)]
    assert times == sorted(times)
    assert times[0] > 0


def _base(model, from_cyl, to_cyl):
    """Controller overhead plus seek of one request, as the device
    computes it."""
    spc = model.geometry.sectors_per_cylinder
    req = IORequest(sector=to_cyl * spc, nsectors=1, is_write=False)
    base, _ = model.service_components([req], from_cyl)
    return base[0]


def test_seek_symmetric(model):
    assert _base(model, 10, 500) == _base(model, 500, 10)


def test_transfer_time_linear_in_sectors(model):
    t2 = model.transfer_time(2)
    t8 = model.transfer_time(8)
    assert t8 == pytest.approx(4 * t2)


def test_transfer_rejects_nonpositive(model):
    with pytest.raises(ValueError):
        model.transfer_time(0)


def test_track_transfer_rate_is_era_plausible(model):
    # A mid-90s IDE drive moved roughly 1-4 MB/s off the media.
    assert 0.5e6 < model.track_transfer_rate < 8e6


def _random_seeks(model, n=200_000):
    """Seek times of ``n`` moves between uniformly random cylinders."""
    rng = np.random.default_rng(5)
    c = model.geometry.cylinders
    d = np.abs(rng.integers(0, c, n) - rng.integers(0, c, n))
    return model.tables.seek[d]


def test_average_random_seek_near_nominal(model):
    # Calibration target: ~14 ms average seek, within a loose band.
    assert 0.008 < _random_seeks(model).mean() < 0.025


def test_average_random_seek_matches_monte_carlo(model):
    # The closed form is E[seek(|X - Y|)] for X, Y uniform over the
    # cylinders — E[sqrt(d)] = (8/15) sqrt(C) and E[d] = C/3, *not*
    # seek(E[d]) (the Jensen-biased version reads ~3.8% high).
    c = model.geometry.cylinders
    closed_form = (model.seek_settle
                   + model.seek_sqrt_coeff * (8.0 / 15.0) * np.sqrt(c)
                   + model.seek_linear_coeff * (c / 3.0))
    assert _random_seeks(model).mean() == pytest.approx(closed_form,
                                                        rel=0.005)


def test_average_random_seek_below_jensen_biased_value(model):
    # sqrt is concave, so the true mean sits strictly below seek(E[d]).
    c = model.geometry.cylinders
    biased = (model.seek_settle + model.seek_sqrt_coeff * np.sqrt(c / 3.0)
              + model.seek_linear_coeff * (c / 3.0))
    assert _random_seeks(model).mean() < biased


def test_service_time_includes_all_components(model):
    rng = np.random.default_rng(1)
    req = IORequest(sector=500_000, nsectors=2, is_write=False)
    t = model.service_time(req, head_cylinder=0, rng=rng)
    lower = (model.controller_overhead
             + model.tables.seek[model.geometry.cylinder_of(500_000)]
             + model.transfer_time(2))
    assert t >= lower
    assert t <= lower + model.rotation_time


def test_rotational_latency_bounded(model):
    # a request on the head's cylinder: no seek, so what the service
    # time holds beyond overhead and transfer is the rotational wait
    rng = np.random.default_rng(2)
    req = IORequest(sector=0, nsectors=1, is_write=False)
    fixed = model.controller_overhead + model.transfer_time(1)
    draws = [model.service_time(req, 0, rng) - fixed for _ in range(200)]
    assert all(-1e-12 <= d < model.rotation_time for d in draws)
    # Mean of uniform(0, rot) should be near rot/2.
    assert np.mean(draws) == pytest.approx(model.rotation_time / 2, rel=0.25)


@given(st.integers(min_value=0, max_value=1015),
       st.integers(min_value=0, max_value=1015))
def test_seek_time_nonnegative_property(a, b):
    model = DiskServiceModel()
    assert model.tables.seek[abs(a - b)] >= 0.0


# -- precomputed tables vs the scalar formulas --------------------------------
def test_seek_table_matches_scalar_formula(model):
    import math
    for d in range(model.geometry.cylinders):
        expected = 0.0 if d == 0 else (
            model.seek_settle + model.seek_sqrt_coeff * math.sqrt(d)
            + model.seek_linear_coeff * d)
        assert model.tables.seek[d] == expected


def test_transfer_table_matches_zone_rates(model):
    geo = model.geometry
    for cyl in (0, geo.cylinders // 2, geo.cylinders - 1):
        rate = geo.sectors_per_track_at(cyl) * 512 / model.rotation_time
        assert model.tables.rate[cyl] == rate


def test_service_time_bitwise_equals_scalar_path(model):
    # The hot path (table lookups) must reproduce the per-request math
    # bit for bit — this is what keeps the golden runs byte-identical.
    import math
    rng = np.random.default_rng(11)
    draws = np.random.default_rng(11)
    geo = model.geometry
    sectors = np.random.default_rng(3).integers(
        0, geo.total_sectors - 8, size=500)
    for sector in sectors.tolist():
        req = IORequest(sector=sector, nsectors=8, is_write=False)
        head = sector % geo.cylinders
        target = sector // geo.sectors_per_cylinder
        d = abs(target - head)
        seek = 0.0 if d == 0 else (
            model.seek_settle + model.seek_sqrt_coeff * math.sqrt(d)
            + model.seek_linear_coeff * d)
        rate = geo.sectors_per_track_at(target) * 512 / model.rotation_time
        expected = (model.controller_overhead + seek
                    + float(draws.random()) * model.rotation_time
                    + req.nsectors * 512 / rate)
        assert model.service_time(req, head, rng) == expected
