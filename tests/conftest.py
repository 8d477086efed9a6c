import numpy as np
import pytest
from scipy.sparse.linalg import splu

from slmcf.domain import build_domain
from slmcf.grid import ContactAngle, build_grid


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
