"""Scenario configuration, validation, and run persistence.

A scenario is one JSON document, held to the tables of ``schema`` before
anything is built; the builders then reject non-convex domains, negative
ambient curvature on the closure, non-space-like initial data and mismatched
phi tables.  The scenario hash is the sha256 of the canonical (sorted-keys,
compact) JSON encoding; series.csv and energy.csv carry it in a leading
comment, and the manifest records it with the sha256 of every field file,
so a manifest can be validated against its files.  A run directory states
each value once: the ``final`` block and result.json hold what no other file
states (the final time is the last series row, a translator's ``c3`` and
``residuals`` are in ``final`` alone) and nothing ``slmcf verify`` computes
(the monitor bound c1, the energy identity's per-step residual).

JSON: ``decode_json`` decodes all JSON the package reads, the files that
``load_manifest`` reads as UTF-8 in any locale and the ``--grid`` string of
``slmcf sweep``; bytes that are not UTF-8, text that is not JSON and JSON
nested past the decoder's recursion limit are a ScenarioError naming the
source.  ``write_manifest`` writes every JSON file.

CSV conventions (series.csv, energy.csv and the field CSVs of ``slmcf
export``): UTF-8, comma delimiter, "." decimal point, float cells in repr
(shortest round-trip) form; identical configs produce byte-identical files.
The "i,j,rho,s,x1,x2," start of the exported field rows is one table per grid
content (the bytes of rho, s and X), shared by every grid built alike and
kept in a bounded cache that holds no grid.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import io
import json
import numbers
import pathlib

import numpy as np

from . import __version__
from .domain import build_domain
from .errors import ScenarioError, SpacelikeViolationError
from .flow import FlowRun, StepperConfig
from .geometry import gradient_fields
from .grid import ContactAngle, CurvilinearGrid, GridFunction, build_grid
from .schema import SCENARIO, SECTIONS, check, fields
from .translator import ContinuationSchedule, TranslatorSolution

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
        return self.config.get("name", SCENARIO[None]["name"].default)


def _build_u0(spec: dict, grid: CurvilinearGrid) -> GridFunction:
    """u0 from a u0 section that ``check_config`` filled in."""
    if spec["kind"] == "constant":
        return GridFunction.constant(grid, spec["value"])
    x, y = grid.X[..., 0], grid.X[..., 1]
    values = (sum((c * x ** px * y ** py for c, px, py in spec["terms"]), np.zeros_like(x))
              if spec["kind"] == "polynomial" else np.asarray(spec["values"], dtype=float))
    if values.shape != x.shape or not np.all(np.isfinite(values)):
        raise ScenarioError(f"scenario section 'u0': the {spec['kind']} u0 of shape "
                            f"{values.shape} is not a finite field on the {x.shape} grid")
    return GridFunction(values, grid)


# every scenario section's table: the solver sections' keys are their configs' fields
_SECTIONS = {**SECTIONS, "stepper": fields("stepper", StepperConfig),
             "continuation": fields("continuation", ContinuationSchedule)}


def check_config(config) -> dict:
    """Every section of the scenario ``config`` with its defaults filled in, once
    the scenario and each section fit their tables (see ``schema.check``)."""
    config = check(None, config, SCENARIO)
    return {name: check(name, config[name], table) for name, table in _SECTIONS.items()}


def load_scenario(config: dict) -> Scenario:
    """Validate a config dict and build all runtime objects."""
    spec = check_config(config)
    stepper = StepperConfig(**spec["stepper"])
    continuation = ContinuationSchedule(**spec["continuation"])
    domain = build_domain(spec["domain"], spec["metric"]["id"])  # kappa0 > 0
    grid = build_grid(domain, spec["grid"]["n_radial"], spec["grid"]["n_angular"])

    if np.min(grid.gauss) < _CURVATURE_FLOOR:
        raise ScenarioError(
            f"ambient Gaussian curvature is negative on the domain closure "
            f"(min K = {np.min(grid.gauss):.3e}); scenario rejected")

    phi = ContactAngle(spec["phi"], domain, n_angular=grid.n_angular)
    u0 = _build_u0(spec["u0"], grid)
    try:
        gradient_fields(u0.values, grid)
    except SpacelikeViolationError as err:      # err.value is the largest |Du0|^2
        raise ScenarioError(
            f"initial data is not space-like: sup |Du0|^2 = {err.value:.6f}") from None

    return Scenario(config=config, grid=grid, phi=phi, u0=u0, stepper=stepper,
                    continuation=continuation)


def load_scenario_file(path) -> Scenario:
    return load_scenario(load_manifest(path))


# -- CSV ------------------------------------------------------------------------

def _write_lines(path, columns, body, header: dict):
    lines = [f"# {k}: {v}" for k, v in header.items()]
    lines.append(",".join(columns))
    lines.extend(body)
    pathlib.Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_csv(path, columns, rows, header: dict):
    _write_lines(path, columns, (",".join(repr(float(x)) for x in row) for row in rows), header)


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
    cols = ["t", "E", "I"]
    rows = zip(*(run.energy[c] for c in cols))
    write_csv(path, cols, rows, {**header, "columns": "time, int v - bdry int u phi, "
              "int u_t^2/v"})


def _node_columns(grid: CurvilinearGrid):
    """The "i,j,rho,s,x1,x2," start of every field-file row of ``grid``."""
    return _node_table(grid.rho.tobytes(), grid.s.tobytes(), grid.X.tobytes())


@functools.lru_cache(maxsize=8)
def _node_table(rho, s, X):
    """The row starts of a grid by the bytes of its rho, s and X: grids built
    alike share one table, and the cache holds no grid."""
    rho, s = ([repr(x) for x in np.frombuffer(b).tolist()] for b in (rho, s))
    x = [repr(v) for v in np.frombuffer(X).tolist()]   # x1, x2 of each node in turn
    heads = [f"{i},{j},{r},{sj}," for i, r in enumerate(rho) for j, sj in enumerate(s)]
    return tuple(f"{h}{x1},{x2}," for h, x1, x2 in zip(heads, x[0::2], x[1::2]))


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
    """Indented, key-sorted UTF-8 JSON: every JSON file the package writes."""
    pathlib.Path(path).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n",
                                  encoding="utf-8")


def load_manifest(path):
    """The JSON document of the UTF-8 file ``path``: every JSON file the package reads."""
    return decode_json(pathlib.Path(path).read_bytes(), path)


def decode_json(text, source):
    """The JSON document in ``text``, a str or UTF-8 bytes: all JSON the package
    decodes.  Bytes that are not UTF-8, text that is not JSON, or JSON nested
    past the decoder's recursion limit, are a ScenarioError naming ``source``."""
    try:
        return json.loads(text if isinstance(text, str) else text.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as err:
        raise ScenarioError(f"invalid JSON in {source}: {err}") from None


# The keys of a field entry of the manifest besides "file" and "sha256", by the
# ``files`` group that lists it.
_FIELD_KEYS = {"snapshots": ("time",), "dense": ("time", "tau"), "profile": ()}


def _entries(run_dir, manifest):
    """(group, entry) of every file the manifest of ``run_dir`` lists: a field
    entry is a dict, any other entry a file name."""
    files = manifest["files"]
    if not isinstance(files, dict):
        raise ScenarioError(f"manifest of {run_dir} lists its files as a JSON "
                            f"{type(files).__name__}, not an object")
    for group, listed in files.items():
        for entry in listed if isinstance(listed, list) else [listed]:
            yield group, entry


def _listed_file(run_dir, rel):
    """``run_dir / rel`` for a file the manifest lists: ``rel`` must be a
    relative path that stays in the run directory, and the file must exist."""
    path = pathlib.PurePosixPath(rel) if isinstance(rel, str) else None
    if path is None or path.is_absolute() or ".." in path.parts or not path.parts:
        raise ScenarioError(f"manifest of {run_dir} lists {rel!r}, which is not a path "
                            f"inside the run directory")
    if not (run_dir / path).is_file():
        raise ScenarioError(f"manifest of {run_dir} lists missing file {rel}")
    return run_dir / path


def _check_field_entry(run_dir, group, entry):
    keys = ("file", "sha256") + _FIELD_KEYS[group]
    missing = [k for k in keys if k not in entry] if isinstance(entry, dict) else keys
    if missing:
        raise ScenarioError(f"a '{group}' entry of the manifest of {run_dir} has no "
                            f"{', '.join(missing)}: {entry!r}")
    for key in _FIELD_KEYS[group]:
        if isinstance(entry[key], bool) or not isinstance(entry[key], numbers.Real):
            raise ScenarioError(f"'{key}' of {entry['file']} in the manifest of {run_dir} "
                                f"is not a number: {entry[key]!r}")


def validate_manifest(run_dir) -> dict:
    """The manifest of ``run_dir``, once every file it lists is present inside
    the run directory, every field file has the sha256 its entry records and
    every other CSV carries the scenario hash."""
    run_dir = pathlib.Path(run_dir)
    manifest = load_manifest(run_dir / "manifest.json")
    expect = manifest["scenario_hash"]
    for group, entry in _entries(run_dir, manifest):
        if group in _FIELD_KEYS:
            _check_field_entry(run_dir, group, entry)
            fp = _listed_file(run_dir, entry["file"])
            digest = hashlib.sha256(fp.read_bytes()).hexdigest()
            if digest != entry["sha256"]:
                raise ScenarioError(f"{fp} has sha256 {digest}, not the {entry['sha256']} "
                                    f"its manifest records")
        elif _listed_file(run_dir, entry).suffix == ".csv":
            header = read_csv_header(run_dir / entry)
            if header.get("scenario") != expect:
                raise ScenarioError(f"{entry} carries scenario hash "
                                    f"{header.get('scenario')} != {expect}")
    return manifest


def standard_header(scenario: Scenario) -> dict:
    return {"scenario": scenario.hash, "tool": f"slmcf {__version__}"}


# -- run directories --------------------------------------------------------------
#
# A flow run directory holds scenario.json, series.csv, energy.csv, one
# snapshots/snap_<k>.npy per snapshot, snapshots/dense_<k>_<m>.npy (m = 0, 1, 2)
# per dense triplet k, in ascending tau, and manifest.json; a translator run
# directory holds scenario.json, profile.npy, result.json and manifest.json.
# A field file is one float64 (n_radial, n_angular) .npy array.  Its manifest
# entry {"file", "time", "tau", "sha256"} records its time (not for the
# profile), its tau (dense files only) and the sha256 of its bytes.
# ``load_run`` gives back the FlowRun or TranslatorSolution that was saved;
# ``export_field_csvs`` writes the field files as i,j,rho,s,x1,x2,u CSVs.

def _save_field(outdir, rel, values, **keys) -> dict:
    """Write ``values`` to ``outdir / rel`` as a float64 .npy file; returns its
    manifest entry: ``rel``, ``keys`` and the sha256 of the bytes written."""
    buf = io.BytesIO()
    np.save(buf, np.asarray(values, dtype=np.float64), allow_pickle=False)
    data = buf.getvalue()
    (outdir / rel).write_bytes(data)
    return {"file": rel, **keys, "sha256": hashlib.sha256(data).hexdigest()}


def _load_field(path, grid: CurvilinearGrid) -> np.ndarray:
    """The array of the .npy field file ``path``: float64 of the grid's shape,
    never unpickled."""
    try:
        with open(path, "rb") as fh:
            values = np.load(fh, allow_pickle=False)
    except (OSError, ValueError, EOFError) as err:
        raise ScenarioError(f"field file {path} is not a readable .npy array: {err}") from None
    if not isinstance(values, np.ndarray):
        raise ScenarioError(f"field file {path} is an .npz archive, not an .npy array")
    if values.dtype != np.float64:
        raise ScenarioError(f"field file {path} holds {values.dtype} values, not float64")
    shape = (grid.n_radial, grid.n_angular)
    if values.shape != shape:
        raise ScenarioError(f"field file {path} holds an array of shape {values.shape}, "
                            f"not the grid's {shape}")
    return values


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
    snapshots = [_save_field(outdir, f"snapshots/snap_{k:06d}.npy", u, time=float(t))
                 for k, (t, u) in enumerate(run.snapshots)]
    dense = [_save_field(outdir, f"snapshots/dense_{k:06d}_{m}.npy", u, time=float(t),
                         tau=float(tau))
             for k, tau in enumerate(sorted(run.dense))
             for m, (t, u) in enumerate(run.dense[tau])]
    files = {"series": "series.csv", "energy": "energy.csv",
             "snapshots": snapshots, "dense": dense}
    return _save(outdir, scenario, "flow", files, seconds, run.to_record())


def save_translator_solution(outdir, scenario: Scenario, solution: TranslatorSolution,
                             seconds) -> dict:
    """Write ``solution`` of ``scenario`` to ``outdir``; returns the manifest."""
    outdir = pathlib.Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    write_manifest(outdir / "result.json", solution.to_record())
    files = {"profile": _save_field(outdir, "profile.npy", solution.profile.values),
             "result": "result.json"}
    final = {"c3": solution.c3, "residuals": solution.residuals}
    return _save(outdir, scenario, "translator", files, seconds, final)


def load_flow_run(run_dir, manifest: dict, scenario: Scenario) -> FlowRun:
    """The FlowRun saved in ``run_dir``."""
    run_dir = pathlib.Path(run_dir)
    files = manifest["files"]

    def table(rel):
        _, cols, data = read_csv(run_dir / rel)
        return {c: data[:, k] for k, c in enumerate(cols)}

    def field(entry):
        return float(entry["time"]), _load_field(run_dir / entry["file"], scenario.grid)

    snapshots = [field(entry) for entry in files["snapshots"]]
    if not snapshots:
        raise ScenarioError(f"flow run {run_dir} lists no snapshots")
    dense_entries = files["dense"]
    if len(dense_entries) % 3:
        raise ScenarioError(f"flow run {run_dir} lists {len(dense_entries)} dense files, "
                            f"not a whole number of triplets")
    dense = {}
    for k in range(0, len(dense_entries), 3):
        triplet = dense_entries[k:k + 3]
        taus = {entry["tau"] for entry in triplet}
        if len(taus) != 1:
            raise ScenarioError(f"dense triplet {', '.join(e['file'] for e in triplet)} of "
                                f"{run_dir} records more than one tau")
        dense[float(taus.pop())] = tuple(map(field, triplet))

    return FlowRun.from_record(manifest["final"], scenario.grid, scenario.phi,
                               scenario.stepper, series=table(files["series"]),
                               energy=table(files["energy"]), snapshots=snapshots,
                               dense=dense)


def load_translator_solution(run_dir, manifest: dict,
                             scenario: Scenario) -> TranslatorSolution:
    """The TranslatorSolution saved in ``run_dir``."""
    run_dir = pathlib.Path(run_dir)
    files = manifest["files"]
    profile = _load_field(run_dir / files["profile"]["file"], scenario.grid)
    record = load_manifest(run_dir / files["result"])
    return TranslatorSolution.from_record(manifest["final"], record,
                                          GridFunction(profile, scenario.grid))


@contextlib.contextmanager
def _typed_errors(run_dir):
    """A KeyError, TypeError or ValueError inside is a ScenarioError naming
    ``run_dir``: a manifest or file lacks a key or holds a wrongly typed value."""
    try:
        yield
    except (KeyError, TypeError, ValueError) as err:
        raise ScenarioError(f"malformed run directory {run_dir}: "
                            f"{type(err).__name__}: {err}") from err


def load_run(run_dir, scenarios=None):
    """(scenario, FlowRun or TranslatorSolution) of a validated run directory.

    scenarios: optional dict of built scenarios by scenario hash.  A run whose
    scenario is in it shares that build; a new one is built and added.
    """
    with _typed_errors(run_dir):
        manifest = validate_manifest(run_dir)
        kind = manifest["kind"]
        if kind not in ("flow", "translator"):
            raise ScenarioError(f"manifest of {run_dir} records kind {kind!r}, not 'flow' "
                                f"or 'translator'")
        scenarios = {} if scenarios is None else scenarios
        key = scenario_hash(manifest["scenario"])
        if key not in scenarios:
            scenarios[key] = load_scenario(manifest["scenario"])
        scenario = scenarios[key]
        if scenario.hash != manifest["scenario_hash"]:
            raise ScenarioError(f"manifest of {run_dir} records scenario hash "
                                f"{manifest['scenario_hash']} != {scenario.hash} of its "
                                f"scenario")
        load = load_flow_run if kind == "flow" else load_translator_solution
        return scenario, load(run_dir, manifest, scenario)


def export_field_csvs(run_dir, outdir) -> list:
    """Write every field file of the run directory ``run_dir`` to ``outdir`` as
    the i,j,rho,s,x1,x2,u CSV of the same relative name with ".csv"; returns
    the paths written.

    The header holds the scenario hash, the manifest's tool version, the
    field's time and its tau (dense files), each in repr form.
    """
    run_dir, outdir = pathlib.Path(run_dir), pathlib.Path(outdir)
    scenario, _ = load_run(run_dir)      # checks the manifest and every field
    with _typed_errors(run_dir):
        manifest = load_manifest(run_dir / "manifest.json")
        header = {"scenario": scenario.hash, "tool": f"slmcf {manifest['tool_version']}"}
        written = []
        for group, entry in _entries(run_dir, manifest):
            if group in _FIELD_KEYS:
                path = outdir / pathlib.PurePosixPath(entry["file"]).with_suffix(".csv")
                path.parent.mkdir(parents=True, exist_ok=True)
                values = _load_field(run_dir / entry["file"], scenario.grid)
                keys = {key: float(entry[key]) for key in _FIELD_KEYS[group]}
                write_field_csv(path, scenario.grid, values, {**header, **keys})
                written.append(path)
    return written
