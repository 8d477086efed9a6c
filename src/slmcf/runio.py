"""Scenario configuration, validation, and run persistence.

A scenario is a single JSON document:

    {
      "name": "disk_phi02",
      "metric": {"id": "flat"},
      "domain": {"kind": "disk", "radius": 1.0},
      "phi": {"kind": "constant", "value": 0.2},
      "u0": {"kind": "constant", "value": 0.0},
      "grid": {"n_radial": 64, "n_angular": 128},
      "stepper": {"dt": 0.01, "tol_speed": 1e-7, "max_time": 10.0},
      "continuation": {"eps_min": 1e-6},
      "seed_label": "baseline"
    }

Validation on load rejects non-convex domains, negative ambient curvature on
the closure, non-space-like initial data and mismatched phi tables.  The
scenario hash is the sha256 of the canonical (sorted-keys, compact) JSON
encoding; every CSV artifact carries it in a leading comment so a manifest
can be validated against its files.

CSV conventions: UTF-8, comma delimiter, "." decimal point, float cells in
repr (shortest round-trip) form; identical configs produce byte-identical
files.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import numbers
import pathlib
import typing
import weakref

import numpy as np

from . import __version__
from .domain import build_domain
from .errors import ScenarioError
from .flow import FlowRun, StepperConfig
from .geometry import gradient_fields
from .grid import ContactAngle, CurvilinearGrid, GridFunction, build_grid
from .metrics import get_metric
from .translator import ContinuationSchedule, TranslatorSolution
from .verify import monitor_constants

_CURVATURE_FLOOR = -1e-12


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def scenario_hash(config: dict) -> str:
    return hashlib.sha256(canonical_json(config).encode()).hexdigest()[:16]


def scenario_core_hash(config: dict) -> str:
    """Hash ignoring u0 and solver knobs; used to pair runs of one scenario."""
    core = {k: config.get(k) for k in ("metric", "domain", "phi", "grid")}
    return hashlib.sha256(canonical_json(core).encode()).hexdigest()[:16]


@dataclasses.dataclass
class Scenario:
    config: dict
    grid: CurvilinearGrid
    phi: ContactAngle
    u0: GridFunction
    stepper: StepperConfig
    continuation: ContinuationSchedule

    @property
    def hash(self):
        return scenario_hash(self.config)

    @property
    def core_hash(self):
        return scenario_core_hash(self.config)

    @property
    def name(self):
        return self.config.get("name", "scenario")


def _build_u0(spec: dict, grid: CurvilinearGrid) -> GridFunction:
    if not isinstance(spec, dict):
        raise ScenarioError("scenario section 'u0' must be a JSON object")
    kind = spec.get("kind", "constant")
    if kind == "constant":
        return GridFunction.constant(grid, float(spec.get("value", 0.0)))
    if kind == "polynomial":
        terms = spec.get("terms", [])

        def poly(x, y):
            out = np.zeros_like(x)
            for c, px, py in terms:
                out = out + float(c) * x ** int(px) * y ** int(py)
            return out

        return GridFunction.from_chart(grid, poly)
    if kind == "sampled":
        vals = np.asarray(spec["values"], dtype=float)
        if vals.shape != (grid.n_radial, grid.n_angular):
            raise ScenarioError(
                f"sampled u0 shape {vals.shape} != grid ({grid.n_radial}, {grid.n_angular})")
        return GridFunction(vals, grid)
    raise ScenarioError(f"unknown u0 kind '{kind}'")


# The JSON values a solver setting of each annotated type accepts, and their name.
_JSON_TYPES = {float: (numbers.Real, "a number"), int: (numbers.Integral, "an integer"),
               str: (str, "a string"), tuple: ((list, tuple), "an array"),
               type(None): (type(None), "null")}


def _solver_config(cls, section, spec):
    """``cls`` from a scenario section.

    A section that is not a JSON object, that has a key ``cls`` does not
    know, or whose value does not have the JSON type of its field (booleans
    are no numbers) is a ScenarioError naming the section and the key.
    """
    if not isinstance(spec, dict):
        raise ScenarioError(f"scenario section '{section}' must be a JSON object")
    hints = typing.get_type_hints(cls)
    unknown = sorted(set(spec) - set(hints))
    if unknown:
        raise ScenarioError(f"unknown key(s) in scenario section '{section}': "
                            f"{', '.join(unknown)} (known: {', '.join(sorted(hints))})")
    for key, value in spec.items():
        kinds = [_JSON_TYPES[t] for t in typing.get_args(hints[key]) or (hints[key],)]
        if isinstance(value, bool) or not isinstance(value, tuple(t for t, _ in kinds)):
            raise ScenarioError(f"scenario section '{section}': '{key}' must be "
                                f"{' or '.join(name for _, name in kinds)}, "
                                f"not {value!r}")
    return cls(**spec)


def _from_section(section, build, *args, **kwargs):
    """``build(*args, **kwargs)``, where a missing key or a value of the wrong
    type in the scenario section it reads is a ScenarioError naming it."""
    try:
        return build(*args, **kwargs)
    except (KeyError, TypeError, ValueError) as err:
        raise ScenarioError(f"scenario section '{section}': "
                            f"{type(err).__name__}: {err}") from err


def _non_finite_keys(node, key=""):
    """The dotted keys of the NaN and infinite numbers in a JSON value."""
    if isinstance(node, (dict, list, tuple)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        return [k for i, v in items for k in _non_finite_keys(v, f"{key}.{i}".lstrip("."))]
    return [key] if isinstance(node, float) and not math.isfinite(node) else []


def load_scenario(config: dict) -> Scenario:
    """Validate a config dict and build all runtime objects."""
    if not isinstance(config, dict):
        raise ScenarioError("scenario config must be a JSON object")
    # json reads NaN and Infinity, which no setting admits and canonical_json refuses
    keys = _non_finite_keys(config)
    if keys:
        raise ScenarioError(f"scenario holds NaN or Infinity at {', '.join(keys)}")
    for key in ("metric", "domain", "phi", "grid"):
        if key not in config:
            raise ScenarioError(f"scenario missing required section '{key}'")
        if not isinstance(config[key], dict):
            raise ScenarioError(f"scenario section '{key}' must be a JSON object")

    metric = _from_section("metric", get_metric, config["metric"].get("id", "flat"))
    domain = _from_section("domain", build_domain, config["domain"], metric)  # kappa0 > 0
    shape = []
    for key in ("n_radial", "n_angular"):
        value = config["grid"].get(key)
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ScenarioError(f"scenario section 'grid': '{key}' must be an integer, "
                                f"not {value!r}")
        shape.append(int(value))
    grid = build_grid(domain, *shape)

    if np.min(grid.gauss) < _CURVATURE_FLOOR:
        raise ScenarioError(
            f"ambient Gaussian curvature is negative on the domain closure "
            f"(min K = {np.min(grid.gauss):.3e}); scenario rejected")

    phi = _from_section("phi", ContactAngle, config["phi"], domain, n_angular=grid.n_angular)
    u0 = _from_section("u0", _build_u0, config.get("u0", {"kind": "constant", "value": 0.0}),
                       grid)
    _, du2, _ = gradient_fields(u0.values, grid, ghost=None, guard=False)
    if float(np.max(du2)) >= 1.0 - 1e-10:
        raise ScenarioError(
            f"initial data is not space-like: sup |Du0|^2 = {float(np.max(du2)):.6f}")

    stepper = _solver_config(StepperConfig, "stepper", config.get("stepper", {}))
    continuation = _solver_config(ContinuationSchedule, "continuation",
                                  config.get("continuation", {}))

    return Scenario(config=config, grid=grid, phi=phi, u0=u0, stepper=stepper,
                    continuation=continuation)


def load_scenario_file(path) -> Scenario:
    path = pathlib.Path(path)
    try:
        config = json.loads(path.read_text())
    except json.JSONDecodeError as err:
        raise ScenarioError(f"invalid JSON in {path}: {err}") from None
    return load_scenario(config)


# -- CSV ------------------------------------------------------------------------

def _fmt(x):
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def _write_lines(path, columns, body, header: dict):
    lines = [f"# {k}: {v}" for k, v in header.items()]
    lines.append(",".join(columns))
    lines.extend(body)
    pathlib.Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_csv(path, columns, rows, header: dict):
    _write_lines(path, columns, (",".join(_fmt(x) for x in row) for row in rows), header)


def _header_entry(line, header):
    key, _, val = line[1:].partition(":")
    header[key.strip()] = val.strip()


def _csv_lines(path):
    """(header dict, column names, data lines) of a CSV file."""
    header = {}
    lines = pathlib.Path(path).read_text(encoding="utf-8").splitlines()
    k = 0
    while k < len(lines) and lines[k].startswith("#"):
        _header_entry(lines[k], header)
        k += 1
    columns = lines[k].split(",") if k < len(lines) else None
    return header, columns, [line for line in lines[k + 1:] if line]


def read_csv(path):
    """Returns (header dict, column names, float ndarray of shape (rows, columns))."""
    header, columns, rows = _csv_lines(path)
    if not rows:
        return header, columns, np.empty((0, len(columns or ())))
    return header, columns, np.loadtxt(rows, delimiter=",", ndmin=2)


def read_csv_header(path) -> dict:
    """The leading ``# key: value`` lines of a CSV file; data rows are not read."""
    header = {}
    with pathlib.Path(path).open(encoding="utf-8") as fh:
        for line in fh:
            if not line.startswith("#"):
                break
            _header_entry(line, header)
    return header


def write_series_csv(path, run, header):
    cols = ["t", "sup_ut", "sup_du2", "mean_ut", "osc_u"]
    rows = zip(*(run.series[c] for c in cols))
    write_csv(path, cols, rows, {**header, "columns": "time, sup|u_t|, sup|Du|^2, "
              "area-mean u_t, osc(u)"})


def write_energy_csv(path, run, header):
    cols = ["t", "E", "I", "residual"]
    rows = zip(*(run.energy[c] for c in cols))
    write_csv(path, cols, rows, {**header, "columns": "time, int v - bdry int u phi, "
              "int u_t^2/v, per-step identity residual"})


# The "i,j,rho,s,x1,x2," start of every field-file row, per grid.  Weak keys:
# the cache does not keep a grid alive.
_NODE_COLUMNS = weakref.WeakKeyDictionary()


def _node_columns(grid: CurvilinearGrid):
    cells = _NODE_COLUMNS.get(grid)
    if cells is None:
        rho, s, X = grid.rho.tolist(), grid.s.tolist(), grid.X.tolist()
        cells = [f"{i},{j},{rho[i]!r},{s[j]!r},{X[i][j][0]!r},{X[i][j][1]!r},"
                 for i in range(grid.n_radial) for j in range(grid.n_angular)]
        _NODE_COLUMNS[grid] = cells
    return cells


def write_field_csv(path, grid: CurvilinearGrid, values, header):
    """One (i, j, rho, s, x1, x2, u) row per node, in row-major (i, j) order."""
    values = np.asarray(values, dtype=float)
    if values.shape != (grid.n_radial, grid.n_angular):
        raise ValueError(f"field of shape {values.shape} on a "
                         f"{grid.n_radial} x {grid.n_angular} grid")
    body = (cells + repr(x) for cells, x in zip(_node_columns(grid), values.ravel().tolist()))
    _write_lines(path, ["i", "j", "rho", "s", "x1", "x2", "u"], body, header)


def read_field_csv(path, grid: CurvilinearGrid):
    """(header, values) of a field file with one (i, j, rho, s, x1, x2, u) row per
    node; only the i, j and u columns are parsed."""
    header, columns, rows = _csv_lines(path)
    if columns is None or len(columns) != 7:
        raise ScenarioError(f"field file {path} has {len(columns or ())} columns, not 7")
    try:
        data = (np.loadtxt(rows, delimiter=",", ndmin=2, usecols=(0, 1, 6)) if rows
                else np.empty((0, 3)))
    except ValueError as err:
        raise ScenarioError(f"field file {path} has a malformed row: {err}") from None
    ii = data[:, 0].astype(int)
    jj = data[:, 1].astype(int)
    if np.any((ii < 0) | (ii >= grid.n_radial) | (jj < 0) | (jj >= grid.n_angular)):
        raise ScenarioError(f"field file {path} has a node outside the "
                            f"{grid.n_radial} x {grid.n_angular} grid")
    values = np.full((grid.n_radial, grid.n_angular), np.nan)
    values[ii, jj] = data[:, 2]
    if np.any(np.isnan(values)):
        raise ScenarioError(f"field file {path} does not cover the grid")
    return header, values


# -- manifests --------------------------------------------------------------------

def write_manifest(path, manifest: dict):
    """Indented, key-sorted JSON; scenario.json and result.json use it too."""
    pathlib.Path(path).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n",
                                  encoding="utf-8")


def load_manifest(path):
    return json.loads(pathlib.Path(path).read_text(encoding="utf-8"))


def validate_manifest(run_dir) -> dict:
    """Check the manifest's files exist and carry the scenario hash."""
    run_dir = pathlib.Path(run_dir)
    manifest = load_manifest(run_dir / "manifest.json")
    expect = manifest["scenario_hash"]
    files = []
    for entry in manifest["files"].values():
        files.extend(entry if isinstance(entry, list) else [entry])
    for rel in files:
        fp = run_dir / rel
        if not fp.exists():
            raise ScenarioError(f"manifest lists missing file {rel}")
        if fp.suffix == ".csv":
            header = read_csv_header(fp)
            if header.get("scenario") != expect:
                raise ScenarioError(f"{rel} carries scenario hash "
                                    f"{header.get('scenario')} != {expect}")
    return manifest


def standard_header(scenario: Scenario) -> dict:
    return {"scenario": scenario.hash, "tool": f"slmcf {__version__}"}


# -- run directories --------------------------------------------------------------
#
# A flow run directory holds scenario.json, series.csv, energy.csv, one
# snapshots/snap_<k>.csv per snapshot, snapshots/dense_<k>_<m>.csv (m = 0, 1, 2)
# per dense triplet k, in ascending tau, whose header records tau (repr), and
# manifest.json; a translator run directory holds
# scenario.json, profile.csv, result.json and manifest.json.  ``load_run``
# gives back the FlowRun or TranslatorSolution that was saved.

def _save(outdir, scenario: Scenario, kind, files, seconds, final) -> dict:
    manifest = {
        "kind": kind,
        "scenario_hash": scenario.hash,
        "scenario_core_hash": scenario.core_hash,
        "tool_version": __version__,
        "scenario": scenario.config,
        "files": files,
        "timing": {"seconds": seconds},
        "final": final,
    }
    write_manifest(pathlib.Path(outdir) / "scenario.json", scenario.config)
    write_manifest(pathlib.Path(outdir) / "manifest.json", manifest)
    return manifest


def save_flow_run(outdir, scenario: Scenario, run: FlowRun, seconds) -> dict:
    """Write ``run`` of ``scenario`` to ``outdir``; returns the manifest."""
    outdir = pathlib.Path(outdir)
    (outdir / "snapshots").mkdir(parents=True, exist_ok=True)
    header = standard_header(scenario)
    write_series_csv(outdir / "series.csv", run, header)
    write_energy_csv(outdir / "energy.csv", run, header)
    taus = sorted(run.dense)
    snap_files = [f"snapshots/snap_{k:06d}.csv" for k in range(len(run.snapshots))]
    dense_files = [f"snapshots/dense_{k:06d}_{m}.csv"
                   for k in range(len(taus)) for m in range(3)]
    fields = ([(t, u, {}) for t, u in run.snapshots]
              + [(t, u, {"tau": repr(float(tau))})
                 for tau in taus for t, u in run.dense[tau]])
    for rel, (t, u, extra) in zip(snap_files + dense_files, fields):
        write_field_csv(outdir / rel, run.grid, u, {**header, "time": t, **extra})

    mc = monitor_constants(scenario.u0, run.phi, run.grid, c0=run.monitor_c0)
    files = {"series": "series.csv", "energy": "energy.csv",
             "snapshots": snap_files, "dense": dense_files}
    return _save(outdir, scenario, "flow", files, seconds, run.to_record(mc.as_dict()))


def save_translator_solution(outdir, scenario: Scenario, solution: TranslatorSolution,
                             seconds) -> dict:
    """Write ``solution`` of ``scenario`` to ``outdir``; returns the manifest."""
    outdir = pathlib.Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    grid = solution.profile.grid
    write_field_csv(outdir / "profile.csv", grid, solution.profile.values,
                    standard_header(scenario))
    write_manifest(outdir / "result.json", solution.to_record())
    files = {"profile": "profile.csv", "result": "result.json"}
    final = {"c3": solution.c3, "residuals": solution.residuals, "h": grid.h}
    return _save(outdir, scenario, "translator", files, seconds, final)


def load_flow_run(run_dir, manifest: dict, scenario: Scenario) -> FlowRun:
    """The FlowRun saved in ``run_dir``."""
    run_dir = pathlib.Path(run_dir)
    files = manifest["files"]

    def table(rel):
        _, cols, data = read_csv(run_dir / rel)
        return {c: data[:, k] for k, c in enumerate(cols)}

    def field(rel):
        header, values = read_field_csv(run_dir / rel, scenario.grid)
        return header, (float(header["time"]), values)

    snapshots = [field(rel)[1] for rel in files["snapshots"]]
    if not snapshots:
        raise ScenarioError(f"flow run {run_dir} lists no snapshots")
    dense_files = files["dense"]
    if len(dense_files) % 3:
        raise ScenarioError(f"flow run {run_dir} lists {len(dense_files)} dense files, "
                            f"not a whole number of triplets")
    dense = {}
    for k in range(0, len(dense_files), 3):
        headers, triplet = zip(*map(field, dense_files[k:k + 3]))
        if not all("tau" in h for h in headers):
            raise ScenarioError(f"a dense file of {run_dir} has no tau header "
                                f"({', '.join(dense_files[k:k + 3])})")
        taus = {h["tau"] for h in headers}
        if len(taus) != 1:
            raise ScenarioError(f"dense triplet {', '.join(dense_files[k:k + 3])} of "
                                f"{run_dir} records more than one tau")
        dense[float(taus.pop())] = triplet

    return FlowRun.from_record(manifest["final"], scenario.grid, scenario.phi,
                               scenario.stepper, series=table(files["series"]),
                               energy=table(files["energy"]), snapshots=snapshots,
                               dense=dense)


def load_translator_solution(run_dir, manifest: dict,
                             scenario: Scenario) -> TranslatorSolution:
    """The TranslatorSolution saved in ``run_dir``."""
    run_dir = pathlib.Path(run_dir)
    files = manifest["files"]
    _, profile = read_field_csv(run_dir / files["profile"], scenario.grid)
    record = load_manifest(run_dir / files["result"])
    return TranslatorSolution.from_record(record, GridFunction(profile, scenario.grid))


def load_run(run_dir, scenarios=None):
    """(scenario, FlowRun or TranslatorSolution) of a validated run directory.

    scenarios: optional dict of built scenarios by scenario hash.  A run whose
    scenario is in it shares that build; a new one is built and added.  A
    manifest or file that lacks a key or holds a value of the wrong type is a
    ScenarioError.
    """
    try:
        manifest = validate_manifest(run_dir)
        scenarios = {} if scenarios is None else scenarios
        key = scenario_hash(manifest["scenario"])
        if key not in scenarios:
            scenarios[key] = load_scenario(manifest["scenario"])
        scenario = scenarios[key]
        if scenario.hash != manifest["scenario_hash"]:
            raise ScenarioError(f"manifest of {run_dir} records scenario hash "
                                f"{manifest['scenario_hash']} != {scenario.hash} of its "
                                f"scenario")
        load = load_flow_run if manifest["kind"] == "flow" else load_translator_solution
        return scenario, load(run_dir, manifest, scenario)
    except (KeyError, TypeError, ValueError) as err:   # JSONDecodeError too
        raise ScenarioError(f"malformed run directory {run_dir}: "
                            f"{type(err).__name__}: {err}") from err
