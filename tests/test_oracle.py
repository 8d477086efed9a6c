import numpy as np
import pytest

from conftest import oracle_c3_from_flux, radial_profile, regularized_oracle
from slmcf.metrics import get_metric
from slmcf.oracle import translator_oracle


def test_flux_consistency_flat():
    orc = translator_oracle(0.2, 1.0)
    assert abs(oracle_c3_from_flux(orc.c3, 0.2, 1.0) - orc.c3) < 1e-9


def test_flux_consistency_sphere():
    orc = translator_oracle(0.1, 0.8, get_metric("sphere"))
    assert abs(oracle_c3_from_flux(orc.c3, 0.1, 0.8, get_metric("sphere")) - orc.c3) < 1e-9


def test_small_angle_asymptote():
    # leading order: c3 = -phi * perimeter / area = -2 phi on the unit disk
    phi = 1e-3
    orc = translator_oracle(phi, 1.0)
    assert abs(orc.c3 + 2 * phi) < 5e-3 * phi


def test_boundary_slope_condition():
    for phi, r0, metric in ((0.2, 1.0, None), (0.1, 0.8, get_metric("sphere"))):
        slope = radial_profile(translator_oracle(phi, r0, metric).c3, r0, metric).slope
        assert slope(r0) == pytest.approx(-phi / np.sqrt(1 + phi ** 2), abs=1e-10)
        assert abs(slope(1e-6)) < 1e-5


def test_profile_zero_mean_flat():
    profile = radial_profile(translator_oracle(0.2, 1.0).c3, 1.0).profile
    r = np.linspace(1e-6, 1.0, 4001)
    vals = profile(r)
    mean = np.trapezoid(vals * r, r) / np.trapezoid(r, r)
    assert abs(mean) < 1e-6


def test_zero_phi_trivial():
    orc = translator_oracle(0.0, 1.0)
    assert orc.c3 == 0.0
    assert np.allclose(radial_profile(orc.c3, 1.0).profile(np.linspace(0.01, 1, 5)), 0.0)


def test_regularized_approaches_translator():
    orc = translator_oracle(0.2, 1.0)
    gaps = []
    for eps in (0.1, 0.01, 0.001):
        reg = regularized_oracle(eps, 0.2, 1.0)
        gaps.append(abs(reg.mean_eps_u - orc.c3))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 2e-7


def test_regularized_profile_shape():
    reg = regularized_oracle(0.1, 0.2, 1.0)
    r = np.linspace(0.05, 0.95, 11)
    assert np.all(np.diff(reg.u(r)) < 0)  # decreasing toward the boundary
    assert reg.slope(1.0) == pytest.approx(-0.2 / np.sqrt(1.04), abs=1e-10)
