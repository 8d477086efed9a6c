import dataclasses

import numpy as np
import pytest
from scipy.integrate import quad

from conftest import tensor_pullback
from slmcf.domain import build_domain
from slmcf.errors import GridError, ScenarioError
from slmcf.grid import ContactAngle, GridFunction, build_grid


def test_grid_parameter_validation(unit_disk):
    with pytest.raises(GridError):
        build_grid(unit_disk, 4, 32)
    with pytest.raises(GridError):
        build_grid(unit_disk, 16, 8)
    with pytest.raises(GridError):
        build_grid(unit_disk, 16, 33)
    # refused before anything is allocated
    with pytest.raises(GridError, match="n_radial"):
        build_grid(unit_disk, 10 ** 30, 32)
    with pytest.raises(GridError, match="n_angular"):
        build_grid(unit_disk, 16, 2050)


def test_boundary_ring_on_curve(disk_grid, cap_grid):
    for grid in (disk_grid, cap_grid):
        gam = grid.domain.curve.gamma(grid.s)
        assert np.max(np.abs(grid.X[-1] - gam)) < 1e-12


def test_jacobian_positive(disk_grid, cap_grid, ellipse21):
    for grid in (disk_grid, cap_grid, build_grid(ellipse21, 32, 64)):
        assert np.min(np.linalg.det(tensor_pullback(grid)["jac_inv"])) > 0


def test_disk_area_and_perimeter(unit_disk):
    grid = build_grid(unit_disk, 64, 128)
    assert abs(grid.area - np.pi) < 1e-3
    assert abs(np.sum(grid.boundary_weights) - 2 * np.pi) < 1e-4


def test_ellipse_area(ellipse21):
    grid = build_grid(ellipse21, 64, 128)
    assert abs(grid.area - 2 * np.pi) < 1e-3


def test_sphere_cap_area_and_perimeter(sphere_cap):
    grid = build_grid(sphere_cap, 64, 128)
    assert abs(grid.area - 2 * np.pi * (1 - np.cos(0.8))) < 1e-3
    assert abs(np.sum(grid.boundary_weights) - 2 * np.pi * np.sin(0.8)) < 1e-10


def test_interior_quadrature_second_order(unit_disk):
    # integral of a smooth non-radial integrand against the exact value
    exact = np.pi / 2 + 0.0  # int over unit disk of (x^2 + y^2) dA = pi/2
    errs = []
    for n in (24, 48, 96):
        grid = build_grid(unit_disk, n, 2 * n)
        f = grid.X[..., 0] ** 2 + grid.X[..., 1] ** 2
        errs.append(abs(grid.domain_integral(f) - exact))
    assert errs[2] < errs[0] / 8  # at least order 2 over a 4x refinement


def test_boundary_quadrature_spectral(unit_disk):
    grid = build_grid(unit_disk, 16, 32)
    # constant and odd harmonics are exact
    assert grid.boundary_integral(np.full(32, 3.0)) == pytest.approx(6 * np.pi, abs=1e-10)
    assert grid.boundary_integral(np.cos(grid.s)) == pytest.approx(0.0, abs=1e-12)
    # analytic integrand: error decays faster than any low fixed power
    ref = quad(lambda s: np.exp(np.sin(s)), 0, 2 * np.pi, limit=200)[0]
    e1 = abs(build_grid(unit_disk, 16, 16).boundary_integral(
        np.exp(np.sin(build_grid(unit_disk, 16, 16).s))) - ref)
    e2 = abs(build_grid(unit_disk, 16, 32).boundary_integral(
        np.exp(np.sin(build_grid(unit_disk, 16, 32).s))) - ref)
    assert e2 < max(e1 / 100, 1e-13)


def test_weighted_integral_unit_weight(disk_grid):
    du2 = np.zeros((disk_grid.n_radial, disk_grid.n_angular))
    ones = np.ones_like(du2)
    assert abs(disk_grid.domain_integral(ones, du2=du2) - np.pi) < 1e-3


def test_weighted_integral_rejects_null(disk_grid):
    from slmcf.errors import SpacelikeViolationError
    du2 = np.zeros((disk_grid.n_radial, disk_grid.n_angular))
    du2[3, 4] = 1.0
    with pytest.raises(SpacelikeViolationError):
        disk_grid.domain_integral(np.ones_like(du2), du2=du2)


def test_grid_function_basics(disk_grid):
    with pytest.raises(ValueError):
        GridFunction(np.zeros((3, 3)), disk_grid)
    bad = np.zeros((disk_grid.n_radial, disk_grid.n_angular))
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        GridFunction(bad, disk_grid)


def test_contact_angle_kinds(unit_disk):
    const = ContactAngle({"kind": "constant", "value": 0.3}, unit_disk)
    assert const.phi0 == const.phi1 == pytest.approx(0.3)
    assert const.phi2 == 0.0
    assert const.boundary_integral == pytest.approx(0.6 * np.pi, rel=1e-10)

    four = ContactAngle({"kind": "fourier", "cos": [0.3]}, unit_disk)
    assert four.phi0 == pytest.approx(-0.3, abs=1e-6)
    assert four.phi1 == pytest.approx(0.3, abs=1e-6)
    assert four.phi2 == pytest.approx(0.3, abs=1e-6)  # max|phi'| / |gamma'|
    assert abs(four.boundary_integral) < 1e-12

    s = np.linspace(0, 2 * np.pi, 64, endpoint=False)
    table = ContactAngle({"kind": "table", "values": 0.1 + 0.05 * np.sin(s)},
                         unit_disk, n_angular=64)
    assert np.allclose(table._phi(s), 0.1 + 0.05 * np.sin(s), atol=1e-12)
    assert np.allclose(table._phi(s[3] + 2 * np.pi), table._phi(s[3]), atol=1e-12)
    with pytest.raises(ScenarioError):
        ContactAngle({"kind": "table", "values": [0.1] * 10}, unit_disk, n_angular=64)


@pytest.mark.parametrize("domain", [{"kind": "disk", "radius": 1.0},
                                    {"kind": "ellipse", "a": 1.5, "b": 1.0}])
def test_constant_phi_is_the_fourier_phi_of_its_value(domain):
    """A constant phi is the Fourier phi with a0 = value and no harmonics, bit for bit."""
    dom = build_domain(domain, "flat")
    grid = build_grid(dom, 16, 32)
    for value in (0.2, -0.15, 0):
        const = ContactAngle({"kind": "constant", "value": value}, dom)
        four = ContactAngle({"kind": "fourier", "a0": value}, dom)
        assert np.array_equal(const.values_on(grid), four.values_on(grid))
        for name in ("phi0", "phi1", "phi2", "boundary_integral", "zero_flux"):
            assert getattr(const, name) == getattr(four, name), name


# -- the pullback against the tensor formulas ------------------------------------

DOMAIN_KINDS = [({"kind": "disk", "radius": 1.0}, "flat"),
                ({"kind": "ellipse", "a": 1.5, "b": 1.0}, "flat"),
                ({"kind": "smooth_convex", "r0": 1.0, "amp": 0.05, "k": 4}, "flat"),
                ({"kind": "chart_circle", "r0": 0.8}, "sphere"),
                ({"kind": "chart_circle", "r0": 1.0}, "dome"),
                ({"kind": "disk", "radius": 0.4, "center": [0.3, 0.0]}, "sphere"),
                ({"kind": "ellipse", "a": 0.9, "b": 0.6}, "dome")]


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


@pytest.mark.parametrize("shape", [(16, 32), (48, 96)])
@pytest.mark.parametrize("spec,metric", DOMAIN_KINDS + [("skew", None)])
def test_pullback_is_bit_identical_to_the_tensor_formulas(spec, metric, shape, skew_metric):
    if spec == "skew":
        domain = dataclasses.replace(build_domain({"kind": "ellipse", "a": 1.5, "b": 1.0}),
                                     metric=skew_metric)
    else:
        domain = build_domain(spec, metric)
    grid = build_grid(domain, *shape)
    ref = tensor_pullback(grid)
    ref["sqrt_sigma_ss_bd"] = np.sqrt(ref["sigma_t"][-1, :, 1, 1])
    for name in ("X", "sigma_t_inv", "gamma_t", "weights", "gauss", "sqrt_sigma_ss_bd"):
        got = getattr(grid, name)
        assert got.shape == ref[name].shape, name
        assert np.array_equal(got, ref[name]), name
        assert np.array_equal(_bits(got), _bits(ref[name])), name   # the signs of zeros too
    h = float(np.max(np.sqrt(ref["sigma_t"][..., 0, 0])) * grid.hr)
    assert np.array_equal(_bits(grid.h), _bits(h))


@pytest.mark.parametrize("metric", ["sphere", "dome"])
def test_a_node_at_the_pole_is_a_regular_node(metric):
    """Off-center domains can put a node on the pole of the normal chart: its
    metric data are those of the pole (sigma~ from sigma = I, Gamma = 0) and
    finite, and the grid's arrays are finite everywhere."""
    rho = 3.5 / 15.5
    dom = build_domain({"kind": "disk", "radius": 1.0, "center": [-rho, 0.0]}, metric)
    grid = build_grid(dom, 16, 32)
    assert np.array_equal(grid.X[3, 0], [0.0, 0.0])
    for name in ("sigma_t_inv", "gamma_t", "weights", "gauss"):
        assert np.all(np.isfinite(getattr(grid, name))), name
    ref = tensor_pullback(grid)
    J = np.linalg.inv(ref["jac_inv"][3, 0])
    assert np.allclose(ref["sigma_t"][3, 0], J.T @ J, rtol=0, atol=1e-15)
