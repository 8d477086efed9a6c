import numpy as np
import pytest
from scipy.sparse.linalg import splu

from slmcf.domain import build_domain
from slmcf.grid import ContactAngle, build_grid
from slmcf.metrics import Metric


@pytest.fixture(scope="session")
def unit_disk():
    return build_domain({"kind": "disk", "radius": 1.0}, "flat")


@pytest.fixture(scope="session")
def ellipse21():
    return build_domain({"kind": "ellipse", "a": 2.0, "b": 1.0}, "flat")


@pytest.fixture(scope="session")
def sphere_cap():
    return build_domain({"kind": "chart_circle", "r0": 0.8}, "sphere")


@pytest.fixture(scope="session")
def disk_grid(unit_disk):
    return build_grid(unit_disk, 48, 96)


@pytest.fixture(scope="session")
def disk_grid_small(unit_disk):
    return build_grid(unit_disk, 16, 32)


@pytest.fixture(scope="session")
def cap_grid(sphere_cap):
    return build_grid(sphere_cap, 48, 96)


@pytest.fixture(scope="session")
def phi02(unit_disk):
    return ContactAngle({"kind": "constant", "value": 0.2}, unit_disk)


class SkewMetric(Metric):
    """A cartesian metric with no zero component, so that the order in which a
    contraction sums its terms shows in the last bits (not a real surface: the
    Christoffel symbols are not those of sigma)."""

    metric_id = "skew"
    chart = "cartesian"

    def sigma(self, points):
        x, y = points[..., 0], points[..., 1]
        off = 0.2 * np.sin(x + 2 * y)
        return np.stack([np.stack([1.3 + x * x, off], -1), np.stack([off, 0.7 + y * y], -1)], -2)

    def christoffel(self, points):
        x, y = points[..., 0], points[..., 1]
        return np.stack([np.cos(k + 0.3 * x - 0.7 * y) for k in range(8)], -1).reshape(
            points.shape[:-1] + (2, 2, 2))

    def gauss_curvature(self, points):
        return np.ones(points.shape[:-1])


@pytest.fixture(scope="session")
def skew_metric():
    return SkewMetric()


def chart_radius(grid):
    return np.sqrt(grid.X[..., 0] ** 2 + grid.X[..., 1] ** 2)


@pytest.fixture
def record_splu(monkeypatch):
    """``record_splu(module)`` replaces ``module.splu`` by a recorder and
    returns the list of every (matrix, keywords, SuperLU) it makes."""
    def install(module):
        made = []

        def recording(A, **kw):
            lu = splu(A, **kw)
            made.append((A, kw, lu))
            return lu

        monkeypatch.setattr(module, "splu", recording)
        return made

    return install
