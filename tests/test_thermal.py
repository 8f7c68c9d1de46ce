"""Two-phonon-mode thermal model of the zero-field splitting."""

import numpy as np
import pytest

from spin_atlas import constants as c
from spin_atlas.thermal import ThermalZfsModel, occupation


@pytest.fixture(scope="module")
def model():
    return ThermalZfsModel()


def test_occupation_at_zero_temperature():
    assert occupation(58.73, 0.0) == 0.0
    assert occupation(145.5, 0.0) == 0.0


def test_occupation_oracles_300k():
    # Bose-Einstein occupations n = 1/(exp(delta/kT) - 1) at T = 300 K.
    assert np.isclose(occupation(58.73, 300.0), 0.11499, atol=2e-5)
    assert np.isclose(occupation(145.5, 300.0), 3.608e-3, atol=2e-6)


def test_zfs_at_zero_is_d0(model):
    assert model.zfs_at(0.0) == c.ZFS_D0


def test_zfs_oracle_300k(model):
    assert np.isclose(model.zfs_at(300.0), 2870.385, atol=2e-3)
    assert np.isclose(model.zfs_at(300.0) - model.zfs_at(0.0), -7.2145, atol=1e-3)


def test_zfs_monotone_decreasing(model):
    temps = np.linspace(0.0, 600.0, 61)
    values = [model.zfs_at(t) for t in temps]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_slope_oracle_300k(model):
    assert np.isclose(model.zfs_slope(300.0), -0.0702670, atol=1e-5)


@pytest.mark.parametrize("t", [0.5, 1.0, 4.0, 20.0, *np.linspace(50.0, 300.0, 11)])
def test_analytic_slope_matches_finite_difference(model, t):
    h = 1e-3
    fd = (model.zfs_at(t + h) - model.zfs_at(t - h)) / (2.0 * h)
    assert abs(model.zfs_slope(t) - fd) < 1e-6


def test_from_dict_overrides():
    m = ThermalZfsModel.from_dict({"d0": 2880.0})
    assert m.zfs_at(0.0) == 2880.0
    # Unspecified parameters keep their defaults.
    assert np.isclose(
        m.zfs_at(300.0) - m.zfs_at(0.0),
        ThermalZfsModel().zfs_at(300.0) - c.ZFS_D0,
    )
