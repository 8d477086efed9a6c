"""Start-up contract: a slmcf process imports only the scipy layers its run uses.

The oracle's ODE and quadrature stack, ``scipy.sparse`` with the sparse LU,
and ``scipy.linalg`` are imported where they are first called.  ``conftest`` imports
``scipy.sparse.linalg`` and the ODE stack into this process, so the script runs in a fresh
interpreter and reports which of the deferred modules each stage has loaded.
"""

import json
import os
import pathlib
import subprocess
import sys

import slmcf

SRC = pathlib.Path(slmcf.__file__).resolve().parents[1]

SCRIPT = r"""
import json, sys

DEFERRED = ("scipy.integrate", "scipy.optimize", "scipy.sparse", "scipy.sparse.linalg",
            "scipy.linalg")
stages = {}

def stage(name, **extra):
    stages[name] = dict(extra, loaded=[m for m in DEFERRED if m in sys.modules])

import slmcf, slmcf.cli
from slmcf.runio import load_scenario
stage("import")

disk = load_scenario({"metric": {"id": "flat"}, "domain": {"kind": "disk", "radius": 1.0},
                      "phi": {"kind": "constant", "value": 0.2},
                      "grid": {"n_radial": 16, "n_angular": 32}})
run = slmcf.run_to_convergence(disk.u0, disk.phi, disk.grid, disk.stepper)
stage("flow", converged=run.converged, solvers=[r[4] for r in run.lu_refreshes])

sol = slmcf.continuation(disk.continuation, disk.phi, disk.grid)
stage("translator", solvers=[kind for _, kind in sol.limit["solvers"]])

zero_flux = load_scenario({"metric": {"id": "flat"},
                           "domain": {"kind": "smooth_convex", "r0": 1.0, "amp": 0.05, "k": 4},
                           "phi": {"kind": "fourier", "cos": [0.3]},
                           "grid": {"n_radial": 16, "n_angular": 32}})
run = slmcf.run_to_convergence(zero_flux.u0, zero_flux.phi, zero_flux.grid, zero_flux.stepper)
stage("zero_flux", converged=run.converged, solvers=[r[4] for r in run.lu_refreshes])

stage("oracle", c3=slmcf.translator_oracle(0.2, 1.0).c3)
print(json.dumps(stages))
"""


def test_each_scipy_layer_loads_only_when_a_run_uses_it():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    stages = json.loads(proc.stdout.strip().splitlines()[-1])

    assert stages["import"]["loaded"] == []
    # the radial disk is served by ring solves alone, so no solve needs scipy.linalg
    assert stages["flow"]["converged"] and set(stages["flow"]["solvers"]) == {"ring"}
    assert stages["flow"]["loaded"] == []
    # the translator's bordered mode 0 is a dense LU; its ring solves never escalate
    assert set(stages["translator"]["solvers"]) == {"ring"}
    assert stages["translator"]["loaded"] == ["scipy.linalg"]
    # off rotational symmetry every refresh escalates to the sparse LU on a CSC matrix
    assert stages["zero_flux"]["converged"] and set(stages["zero_flux"]["solvers"]) == {"lu"}
    assert {"scipy.sparse", "scipy.sparse.linalg"} <= set(stages["zero_flux"]["loaded"])
    assert "scipy.integrate" not in stages["zero_flux"]["loaded"]
    assert "scipy.optimize" not in stages["zero_flux"]["loaded"]
    # the oracle imports its ODE and root-finding stack on its first call
    assert {"scipy.integrate", "scipy.optimize"} <= set(stages["oracle"]["loaded"])
    assert stages["oracle"]["c3"] == slmcf.translator_oracle(0.2, 1.0).c3
