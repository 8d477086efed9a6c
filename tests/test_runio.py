"""Run directories: FlowRun and TranslatorSolution saved and loaded by runio."""

import dataclasses
import gc
import hashlib
import io
import json
import pathlib
import pickle
import re
import shutil
import weakref

import numpy as np
import pytest

from conftest import floor_stop_residuals, limit_factorizations, record_sha256, trace_refactors
from slmcf import __version__, runio, translator
from slmcf.cli import cmd_flow, main
from slmcf.domain import build_domain
from slmcf.errors import ScenarioError
from slmcf.flow import FlowRun, PairRun, run_to_convergence
from slmcf.grid import build_grid
from slmcf.runio import (_node_columns, _node_table, export_field_csvs, load_run,
                         load_scenario, read_field_csv, save_flow_run,
                         save_translator_solution, write_field_csv)
from slmcf.translator import TranslatorSolution, continuation
from slmcf.verify import (check_evo_du_residual, check_maximal_limit, check_osc_decay,
                          check_spacelike_bound, check_translator_agreement,
                          check_ut_max_principle, monitor_constants)

# zero flux, so every check of `slmcf verify` applies
CONFIG = {
    "name": "disk_cos",
    "metric": {"id": "flat"},
    "domain": {"kind": "disk", "radius": 1.0},
    "phi": {"kind": "fourier", "cos": [0.3]},
    "u0": {"kind": "constant", "value": 0.0},
    "grid": {"n_radial": 16, "n_angular": 32},
    "stepper": {"tol_speed": 1e-7, "max_time": 3.0, "dt": 0.01, "snapshot_interval": 50,
                "dense_sample_times": [0.125, 0.5]},
    "continuation": {"eps_min": 1e-5},
}
BUMP = {"kind": "polynomial", "terms": [[0.1, 2, 0], [0.1, 0, 2]]}


def _flow(tmp_path, config, name):
    """(in-memory, loaded) run of ``config``; the load shares the scenario build."""
    scenario = load_scenario(config)
    run = run_to_convergence(scenario.u0, scenario.phi, scenario.grid, scenario.stepper)
    save_flow_run(tmp_path / name, scenario, run, 0.0)
    return run, load_run(tmp_path / name, {scenario.hash: scenario})[1]


@pytest.fixture(scope="module")
def runs_dir(tmp_path_factory):
    """The folder of the run directories of ``saved``: flow, bump and tr."""
    return tmp_path_factory.mktemp("runs")


@pytest.fixture(scope="module")
def saved(runs_dir):
    """(in-memory, loaded) pairs of two flow runs and one translator solution."""
    tmp_path = runs_dir
    flow = _flow(tmp_path, CONFIG, "flow")
    bump = _flow(tmp_path, dict(CONFIG, name="disk_cos_bump", u0=BUMP), "bump")
    scenario = load_scenario(CONFIG)
    solution = continuation(scenario.continuation, scenario.phi, scenario.grid)
    save_translator_solution(tmp_path / "tr", scenario, solution, 0.0)
    return flow, bump, (solution, load_run(tmp_path / "tr")[1])


def _same(a, b):
    """a == b with no tolerance, arrays by np.array_equal, containers and
    dataclasses entry by entry."""
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and np.array_equal(a, b)
    if isinstance(a, dict):
        return isinstance(b, dict) and list(a) == list(b) and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return (isinstance(b, (list, tuple)) and len(a) == len(b)
                and all(_same(x, y) for x, y in zip(a, b)))
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(_same(getattr(a, f.name), getattr(b, f.name))
                                          for f in dataclasses.fields(a))
    return a == b


# the zero-flux scenario, the default-stepper disk with phi = 0.2, and an
# ellipse with Fourier phi off rotational symmetry
ROUND_TRIP = {
    "zero_flux": CONFIG,
    "disk_phi02": dict({k: v for k, v in CONFIG.items() if k != "stepper"},
                       name="disk_phi02", phi={"kind": "constant", "value": 0.2}),
    "ellipse_fourier": dict({k: v for k, v in CONFIG.items() if k != "stepper"},
                            name="ellipse_fourier", domain={"kind": "ellipse", "a": 1.5, "b": 1.0},
                            phi={"kind": "fourier", "a0": 0.15, "cos": [0.0, 0.05],
                                 "sin": [0.03]},
                            grid={"n_radial": 24, "n_angular": 48}),
}


def _triplets(run):
    """The step times t_{k-1}, t_k, t_{k+1} of each dense sample time tau of
    ``run``, t_k the first step time >= tau (step 1 at the earliest)."""
    times = list(run.series["t"])
    centres = {tau: max(1, next(i for i, t in enumerate(times) if t >= tau))
               for tau in run.cfg.dense_sample_times}
    return {tau: times[k - 1:k + 2] for tau, k in centres.items()}


def _holds_triplets(run):
    """Each dense sample time's three steps are snapshots of ``run``."""
    snap_times = [t for t, _ in run.snapshots]
    return all(set(triplet) <= set(snap_times) for triplet in _triplets(run).values())


def test_flow_run_round_trip(saved, tmp_path):
    """The loaded run equals the saved one field for field, and so does every
    derived diagnostic."""
    for name, config in ROUND_TRIP.items():
        run, loaded = saved[0] if name == "zero_flux" else _flow(tmp_path, config, name)
        assert isinstance(loaded, FlowRun)
        assert len(run.snapshots) >= 2
        assert bool(run.cfg.dense_sample_times) == (name == "zero_flux")
        assert _holds_triplets(run) and _holds_triplets(loaded)
        for field in dataclasses.fields(FlowRun):
            assert _same(getattr(loaded, field.name), getattr(run, field.name)), (name, field)
        for prop in ("u_t", "H_field", "sup_du2", "sup_ut", "monitor_c0", "lu_factorizations"):
            assert _same(getattr(loaded, prop), getattr(run, prop)), (name, prop)


def test_translator_solution_round_trip(saved):
    _, _, (solution, loaded) = saved
    assert isinstance(loaded, TranslatorSolution)
    assert np.array_equal(loaded.profile.values, solution.profile.values)
    assert loaded.to_record() == solution.to_record()
    assert (loaded.c3, loaded.residuals) == (solution.c3, solution.residuals)
    assert loaded.limit == solution.limit
    assert {"trace_residuals", "floor_stops"} <= set(loaded.limit)
    assert loaded.eps_trace == solution.eps_trace


# the keys of the run records, as the README lists them: each is a measurement
# that nothing else in the run directory states
FLOW_FINAL = {"converged", "message", "steps", "rejected", "lu_refreshes", "lu_factorizations",
              "speed_estimate", "max_H_final", "sup_ut", "sup_du2"}
MANIFEST = {"kind", "scenario_hash", "tool_version", "scenario", "files", "timing", "final"}
TRANSLATOR_FINAL = {"c3", "residuals"}
RESULT = {"eps_trace", "eps_trace_mean", "newton_iterations", "limit"}
RESIDUALS = {"interior_max", "c3_quadrature"}
LIMIT = {"residuals", "newton_steps", "floor_stops", "trace_residuals", "solvers"}


def test_records_hold_exactly_the_documented_keys(saved, runs_dir):
    flow = json.loads((runs_dir / "flow" / "manifest.json").read_text())["final"]
    translator = json.loads((runs_dir / "tr" / "manifest.json").read_text())["final"]
    result = json.loads((runs_dir / "tr" / "result.json").read_text())
    for run in ("flow", "tr"):
        assert set(json.loads((runs_dir / run / "manifest.json").read_text())) == MANIFEST
    assert set(flow) == FLOW_FINAL
    assert set(translator) == TRANSLATOR_FINAL
    assert set(result) == RESULT
    assert set(translator["residuals"]) == RESIDUALS
    assert set(result["limit"]) == LIMIT
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    assert [k for k in FLOW_FINAL | RESULT | RESIDUALS | LIMIT if f"`{k}`" not in readme] == []


@pytest.mark.parametrize("metric, domain, phi, n", [
    ("flat", {"kind": "disk", "radius": 3.0}, 0.2, 16),
    ("sphere", {"kind": "disk", "radius": 0.4, "center": [0.3, 0.0]}, 0.1, 64),
], ids=["disk_r3", "sphere_off"])
def test_translator_record_states_each_value_once(tmp_path, monkeypatch, metric, domain, phi, n):
    """result.json and the manifest's ``final`` block share no key, and the
    counts and residuals the limit record does not state derive from what it
    does: the limit's factorizations, each trace level's refactors with its
    last residual, and each floor stop's residual, as every bordered solve
    reports them.  The radius-3 disk refactors at eps = 1; the off-centre
    sphere cap at 64 x 128 stops at its rounding floor."""
    factored, solves = [], []    # eps per factorization; per bordered solve
    factor, bordered_newton = translator._Bordered.factor, translator._bordered_newton

    def spy_factor(system, q, eps):
        factored.append(eps)
        factor(system, q, eps)

    def spy_solve(eps, w, c, system, fallback=None):
        start = len(factored)
        w, c, q, info = bordered_newton(eps, w, c, system, fallback)
        solves.append((eps, len(factored) - start, info["residuals"][-1],
                       list(info["floor_stops"])))    # the limit's list grows by the trace's
        return w, c, q, info

    monkeypatch.setattr(translator._Bordered, "factor", spy_factor)
    monkeypatch.setattr(translator, "_bordered_newton", spy_solve)
    scenario = load_scenario({"name": "record", "metric": {"id": metric}, "domain": domain,
                              "phi": {"kind": "constant", "value": phi},
                              "grid": {"n_radial": n, "n_angular": 2 * n}})
    solution = continuation(scenario.continuation, scenario.phi, scenario.grid)
    manifest = save_translator_solution(tmp_path, scenario, solution, 0.0)
    result = json.loads((tmp_path / "result.json").read_text())
    assert not set(result) & set(manifest["final"])

    limit = result["limit"]
    (eps0, limit_factors, _, _), *levels = solves
    assert eps0 == 0.0 and factored.count(0.0) == limit_factors + 1    # and the trace's LU
    assert limit_factorizations(limit) == limit_factors + 1
    refactors = [[eps, k, last] for eps, k, last, _ in levels if k]
    assert trace_refactors(limit) == refactors
    stops = [[eps, last, floor] for eps, _, last, stops in solves for _, floor in stops]
    assert floor_stop_residuals(limit) == stops
    assert [eps for eps, *_ in refactors] == ([1.0] if domain["radius"] == 3.0 else [])
    assert bool(stops) == (metric == "sphere")


def _all_checks(flow, bump, solution):
    c1 = monitor_constants(flow.phi, flow.grid, flow.monitor_c0)
    h = flow.grid.h
    return [check_ut_max_principle(flow.series),
            check_spacelike_bound(flow.series, c1, h),
            check_maximal_limit(flow),
            check_evo_du_residual(flow),
            check_translator_agreement(flow, solution),
            check_osc_decay(PairRun.from_snapshots(flow, bump))]


def test_checks_agree_in_memory_and_on_disk(saved):
    (flow, flow_disk), (bump, bump_disk), (solution, solution_disk) = saved
    in_memory = _all_checks(flow, bump, solution)
    on_disk = _all_checks(flow_disk, bump_disk, solution_disk)
    for mem, disk in zip(in_memory, on_disk):
        assert disk.as_dict() == mem.as_dict(), mem.name
    assert all(r.passed for r in in_memory)


def _flow_dir(tmp_path, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    cmd_flow(cfg, tmp_path / "flow")
    return tmp_path / "flow"


SMALL = dict(CONFIG, grid={"n_radial": 12, "n_angular": 24},
             stepper={"tol_speed": 1e-7, "max_time": 1.0, "dense_sample_times": [0.25]})


def _npy(values):
    buf = io.BytesIO()
    np.save(buf, values, allow_pickle=True)
    return buf.getvalue()


def _replace_field(run_dir, rel, data, digest=True):
    """Write ``data`` as the field file ``rel``; with ``digest``, the manifest
    records its sha256, so only the loader's own checks can catch it."""
    (run_dir / rel).write_bytes(data)
    if digest:
        record_sha256(run_dir, rel)


def _edit_manifest(run_dir, change):
    path = run_dir / "manifest.json"
    manifest = json.loads(path.read_text())
    change(manifest)
    path.write_text(json.dumps(manifest))


def _rejected(run_dir, match):
    """load_run raises a ScenarioError matching ``match`` and verify exits 2."""
    with pytest.raises(ScenarioError, match=match):
        load_run(run_dir)
    assert main(["verify", str(run_dir)]) == 2


@pytest.fixture(scope="module")
def small_dir(tmp_path_factory):
    """A pristine SMALL flow run directory; tests corrupt copies of it."""
    return _flow_dir(tmp_path_factory.mktemp("small"), SMALL)


@pytest.fixture
def small_run(small_dir, tmp_path):
    shutil.copytree(small_dir, tmp_path / "flow")
    return tmp_path / "flow"


SNAP = "snapshots/snap_000000.npy"


def test_saved_fields_are_float64_npy_with_their_digest(small_run):
    """Every field of a flow run is one .npy file whose sha256 the manifest
    records; no field CSV is written."""
    manifest = json.loads((small_run / "manifest.json").read_text())
    entries = manifest["files"]["snapshots"]
    assert "dense" not in manifest["files"]
    assert set(_triplets(load_run(small_run)[1])[0.25]) <= {e["time"] for e in entries}
    for entry in entries:
        data = (small_run / entry["file"]).read_bytes()
        assert entry["sha256"] == hashlib.sha256(data).hexdigest()
        assert np.load(io.BytesIO(data)).dtype == np.float64
    assert all(set(e) == {"file", "time", "sha256"} for e in entries)
    assert sorted(p.name for p in small_run.rglob("*.csv")) == ["energy.csv", "series.csv"]


def test_field_file_of_wrong_shape_is_a_scenario_error(small_run):
    """A field with a node outside the grid, or short of one, or transposed."""
    for shape in ((13, 24), (12, 23), (24, 12), (288,)):
        _replace_field(small_run, SNAP, _npy(np.zeros(shape)))
        _rejected(small_run, "shape")


def test_truncated_field_file_is_a_scenario_error(small_run):
    data = (small_run / SNAP).read_bytes()
    for cut in (data[:-8], data[:40], b""):
        _replace_field(small_run, SNAP, cut)
        _rejected(small_run, "not a readable .npy")


def test_field_file_of_wrong_dtype_is_a_scenario_error(small_run):
    for dtype in (np.int64, np.float32, ">f8"):
        _replace_field(small_run, SNAP, _npy(np.zeros((12, 24), dtype=dtype)))
        _rejected(small_run, "not float64")


def test_pickled_field_file_is_a_scenario_error(small_run):
    """Neither a pickle nor an object array is ever unpickled."""
    objects = np.empty((12, 24), dtype=object)
    objects[...] = 0.0
    for data in (_npy(objects), pickle.dumps(np.zeros((12, 24)))):
        _replace_field(small_run, SNAP, data)
        _rejected(small_run, "not a readable .npy")


def test_npz_field_file_is_a_scenario_error(small_run):
    buf = io.BytesIO()
    np.savez(buf, u=np.zeros((12, 24)))
    _replace_field(small_run, SNAP, buf.getvalue())
    _rejected(small_run, "npz archive")


def test_missing_field_file_is_a_scenario_error(small_run):
    """The right end of the tau = 0.25 triplet: the snapshot after the tau state."""
    right = _triplets(load_run(small_run)[1])[0.25][2]
    entries = json.loads((small_run / "manifest.json").read_text())["files"]["snapshots"]
    rel = next(e["file"] for e in entries if e["time"] == right)
    (small_run / rel).unlink()
    _rejected(small_run, f"missing file {rel}")


def test_field_digest_mismatch_is_a_scenario_error(small_run):
    values = np.load(small_run / SNAP)
    values[3, 5] = np.nextafter(values[3, 5], np.inf)
    _replace_field(small_run, SNAP, _npy(values), digest=False)
    _rejected(small_run, "sha256")


@pytest.mark.parametrize("group, key", [("snapshots", "time"), ("snapshots", "sha256"),
                                        ("snapshots", "file")])
def test_field_entry_without_a_key_is_a_scenario_error(small_run, group, key):
    _edit_manifest(small_run, lambda m: m["files"][group][1].pop(key))
    _rejected(small_run, f"'{group}' entry .* has no {key}")


def test_field_entry_time_must_be_a_number(small_run):
    def change(manifest):
        entry = manifest["files"]["snapshots"][0]
        entry["time"] = repr(entry["time"])
    _edit_manifest(small_run, change)
    _rejected(small_run, "not a number")


def test_flow_run_without_snapshots_is_a_scenario_error(small_run):
    _edit_manifest(small_run, lambda m: m["files"].update(snapshots=[]))
    _rejected(small_run, "lists no snapshots")


# the flow of the dense console-script check: 0.3000001 and 0.3000004 are
# reached by one step, and the run stops at max_time before it settles
DENSE = {"name": "dense", "metric": {"id": "flat"}, "domain": {"kind": "disk", "radius": 1.0},
         "phi": {"kind": "constant", "value": 0.2}, "grid": {"n_radial": 16, "n_angular": 32},
         "stepper": {"dt": 0.01, "max_time": 0.5,
                     "dense_sample_times": [0.1, 0.3000001, 0.3000004]}}


def test_each_field_state_is_stored_once(tmp_path):
    """t = 0, the steps around 0.1 and around 0.3, and the final state: 8
    states in 8 snapshot files of 8 distinct digests, and no second record."""
    files = json.loads((_flow_dir(tmp_path, DENSE) / "manifest.json").read_text())["files"]
    assert "dense" not in files
    digests = [entry["sha256"] for entry in files["snapshots"]]
    assert len(digests) == len(set(digests)) == 8


@pytest.mark.parametrize("dense", ["empty", "triplet"])
def test_flow_manifest_with_a_dense_group_is_a_scenario_error(small_run, dense):
    """A flow directory that lists a "dense" group, empty as a run without dense
    times wrote it or holding a triplet of files whose digests it records, is
    refused with its groups and a flow run's groups named."""
    entries = []
    if dense == "triplet":
        for m, entry in enumerate(json.loads((small_run / "manifest.json").read_text())
                                  ["files"]["snapshots"][1:4]):
            rel = f"snapshots/dense_000000_{m}.npy"
            shutil.copyfile(small_run / entry["file"], small_run / rel)
            entries.append(dict(entry, file=rel, tau=0.25))
    _edit_manifest(small_run, lambda m: m["files"].update(dense=entries))
    _rejected(small_run, re.escape("groups ['dense', 'energy', 'scenario', 'series', "
                                   "'snapshots'], not the ['energy', 'scenario', 'series', "
                                   "'snapshots'] of a flow run"))


def test_translator_manifest_with_a_snapshots_group_is_a_scenario_error(saved, runs_dir,
                                                                        tmp_path):
    shutil.copytree(runs_dir / "tr", tmp_path / "tr")

    def change(manifest):
        manifest["files"]["snapshots"] = [dict(manifest["files"]["profile"], time=0.0)]
    _edit_manifest(tmp_path / "tr", change)
    _rejected(tmp_path / "tr", re.escape("groups ['profile', 'result', 'scenario', "
                                         "'snapshots'], not the ['profile', 'result', "
                                         "'scenario'] of a translator run"))


@pytest.mark.parametrize("rel", ["series.csv", "energy.csv"])
def test_table_without_a_data_row_is_a_scenario_error(small_run, rel):
    """A series.csv or energy.csv that keeps its header lines and loses every
    row, its digest recorded, is refused: every run records t = 0."""
    path = small_run / rel
    lines = path.read_text().splitlines(keepends=True)
    columns = next(k for k, line in enumerate(lines) if not line.startswith("#"))
    path.write_text("".join(lines[:columns + 1]))
    record_sha256(small_run, rel)
    _rejected(small_run, f"{rel} holds no data row")


def test_translator_manifest_of_another_scenario_hash_is_a_scenario_error(saved, runs_dir,
                                                                          tmp_path):
    """A translator run has no CSV whose header could disagree: the manifest's
    hash is held to the hash of the scenario it records."""
    shutil.copytree(runs_dir / "tr", tmp_path / "tr")
    _edit_manifest(tmp_path / "tr", lambda m: m.update(scenario_hash="0123456789abcdef"))
    _rejected(tmp_path / "tr", "records scenario hash 0123456789abcdef != ")


def _listed(manifest):
    return [entry for listed in manifest["files"].values()
            for entry in (listed if isinstance(listed, list) else [listed])]


def test_manifest_lists_every_file_but_itself_with_its_digest(saved, runs_dir):
    for run in ("flow", "tr"):
        manifest = json.loads((runs_dir / run / "manifest.json").read_text())
        held = {p.relative_to(runs_dir / run).as_posix()
                for p in (runs_dir / run).rglob("*") if p.is_file()}
        assert sorted(e["file"] for e in _listed(manifest)) == sorted(held - {"manifest.json"})
        for entry in _listed(manifest):
            data = (runs_dir / run / entry["file"]).read_bytes()
            assert entry["sha256"] == hashlib.sha256(data).hexdigest()
        for group in {"flow": ("series", "energy", "scenario"),
                      "tr": ("profile", "result", "scenario")}[run]:
            assert set(manifest["files"][group]) == {"file", "sha256"}


@pytest.mark.parametrize("run, rel", [("flow", "series.csv"), ("flow", "energy.csv"),
                                      ("flow", "scenario.json"), ("flow", SNAP),
                                      ("tr", "result.json"), ("tr", "scenario.json"),
                                      ("tr", "profile.npy")])
def test_one_byte_changed_in_any_listed_file_is_a_scenario_error(saved, runs_dir, tmp_path,
                                                                 run, rel):
    """A CSV or JSON file is held to its sha256 as a field file is: one digit
    changed (the last bit of a field file) is refused, naming the file."""
    shutil.copytree(runs_dir / run, tmp_path / run)
    path = tmp_path / run / rel
    data = bytearray(path.read_bytes())
    k = -1 if rel.endswith(".npy") else max(i for i, b in enumerate(data) if chr(b).isdigit())
    data[k] ^= 1                    # a digit stays a digit
    path.write_bytes(bytes(data))
    _rejected(tmp_path / run, f"{re.escape(rel)} has sha256 ")


@pytest.mark.parametrize("run, group", [("flow", "series"), ("flow", "energy"),
                                        ("tr", "result")])
def test_manifest_that_lists_a_file_by_bare_name_is_a_scenario_error(saved, runs_dir,
                                                                     tmp_path, run, group):
    """A manifest written before every listed file had a digest names series,
    energy and result by file name alone: it is refused, naming the entry."""
    shutil.copytree(runs_dir / run, tmp_path / run)
    rel = {"series": "series.csv", "energy": "energy.csv", "result": "result.json"}[group]

    def old_format(manifest):
        manifest["files"][group] = rel
        del manifest["files"]["scenario"]
    _edit_manifest(tmp_path / run, old_format)
    _rejected(tmp_path / run, f"a '{group}' entry .* has no file, sha256: '{re.escape(rel)}'")


def test_manifest_paths_outside_the_run_are_a_scenario_error(small_run):
    """A listed file outside the run directory is refused, though it exists and
    has the recorded digest."""
    outside = small_run.parent / "outside.npy"
    shutil.copy(small_run / SNAP, outside)
    for rel in ("../outside.npy", str(outside), "snapshots/../../outside.npy", "", 7):
        _edit_manifest(small_run, lambda m: m["files"]["snapshots"][0].update(file=rel))
        _rejected(small_run, "not a path inside the run directory")
    _edit_manifest(small_run, lambda m: m["files"]["snapshots"][0].update(file=SNAP))
    load_run(small_run)
    shutil.copy(small_run / "series.csv", small_run.parent / "series.csv")
    _edit_manifest(small_run, lambda m: m["files"]["series"].update(file="../series.csv"))
    _rejected(small_run, "not a path inside the run directory")


@pytest.mark.parametrize("files", [[], "series.csv", None])
def test_manifest_files_not_an_object_is_a_scenario_error(small_run, tmp_path, files):
    _edit_manifest(small_run, lambda m: m.update(files=files))
    _rejected(small_run, f"manifest of {re.escape(str(small_run))} lists its files")
    assert main(["export", str(small_run), "-o", str(tmp_path / "out")]) == 2


@pytest.mark.parametrize("kind", ["Flow", "pair", None])
def test_unknown_manifest_kind_is_a_scenario_error(small_run, kind):
    _edit_manifest(small_run, lambda m: m.update(kind=kind))
    _rejected(small_run, f"records kind {re.escape(repr(kind))}, not 'flow' or 'translator'")


@pytest.mark.parametrize("data", [b'{"kind": ', '{"kind": "caf\u00e9"}'.encode("latin-1"),
                                  b"[" * 100000 + b"]" * 100000],
                         ids=["truncated", "latin-1", "nested"])
def test_manifest_that_is_not_readable_json_is_a_scenario_error(small_run, data):
    """A truncated manifest, a latin-1 byte in it or arrays nested past the
    decoder's recursion limit: the error names the file."""
    (small_run / "manifest.json").write_bytes(data)
    _rejected(small_run, f"invalid JSON in {re.escape(str(small_run / 'manifest.json'))}")


def test_field_reader_checks_columns_and_coverage_and_reads_any_row_order(tmp_path):
    grid = build_grid(build_domain({"kind": "disk", "radius": 1.0}, "flat"), 8, 16)
    values = np.random.default_rng(3).standard_normal((8, 16))
    path = tmp_path / "field.csv"
    write_field_csv(path, grid, values, {"time": 0.0})
    lines = path.read_text().splitlines()
    head = [k for k, line in enumerate(lines) if not line.startswith("#")][0] + 1
    header, body = lines[:head], lines[head:]

    def read(rows, columns=None):
        path.write_text("\n".join((columns or header) + rows) + "\n")
        return read_field_csv(path, grid)

    rng = np.random.default_rng(4)
    assert np.array_equal(read([body[k] for k in rng.permutation(len(body))])[1], values)
    with pytest.raises(ScenarioError, match="does not cover"):
        read(body[:17] + body[18:])
    six = [line.rsplit(",", 1)[0] for line in body]
    with pytest.raises(ScenarioError, match="6 columns"):
        read(six, header[:-1] + [header[-1].rsplit(",", 1)[0]])
    with pytest.raises(ScenarioError, match="malformed row"):
        read(six)
    # a negative index too: it would address a node from the end
    for i, j in ((8, 0), (-1, 3), (2, 16), (2, -1)):
        with pytest.raises(ScenarioError, match="node outside the 8 x 16 grid"):
            read(body + [f"{i},{j},0.5,0.0,0.0,0.0,1.0"])


def test_default_stepper_run_verifies_against_translator(tmp_path):
    """With dt growth the 16 x 32 flow settles before its first snapshot on
    the default cadence; its drift rate is read from the final u_t."""
    config = {k: v for k, v in CONFIG.items() if k != "stepper"}
    config.update(name="disk_phi02", phi={"kind": "constant", "value": 0.2})
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main(["flow", str(cfg), "-o", str(tmp_path / "flow")]) == 0
    assert main(["translator", str(cfg), "-o", str(tmp_path / "tr")]) == 0
    assert main(["verify", str(tmp_path / "flow"), str(tmp_path / "tr"),
                 "-o", str(tmp_path / "report.json")]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    agreement = [r for r in report["reports"] if r["name"].endswith("translator_agreement")]
    assert len(agreement) == 1 and agreement[0]["passed"]


def _row_by_row_field_csv(grid, values, header):
    """The field file as the earlier writer built it, one cell at a time."""
    def fmt(x):
        if isinstance(x, (int, np.integer)):
            return str(int(x))
        return repr(float(x))

    lines = [f"# {k}: {v}" for k, v in header.items()]
    lines.append("i,j,rho,s,x1,x2,u")
    for i in range(grid.n_radial):
        for j in range(grid.n_angular):
            row = (i, j, grid.rho[i], grid.s[j], grid.X[i, j, 0], grid.X[i, j, 1],
                   values[i, j])
            lines.append(",".join(fmt(x) for x in row))
    return ("\n".join(lines) + "\n").encode("utf-8")


def test_field_csv_bytes_match_the_row_writer(tmp_path):
    dom = build_domain({"kind": "ellipse", "a": 2.0, "b": 1.0}, "flat")
    grid = build_grid(dom, 12, 24)
    values = np.random.default_rng(3).normal(size=(12, 24))
    values[0, :3] = (-0.0, 1e-300, -1e-300)
    values[1] = np.arange(24.0) - 12.0
    values[2, 0] = 1e17
    header = {"scenario": "abc", "time": 0.125}
    for name in ("first.csv", "second.csv"):     # the second reuses the node columns
        write_field_csv(tmp_path / name, grid, values, header)
        assert (tmp_path / name).read_bytes() == _row_by_row_field_csv(grid, values, header)
    with pytest.raises(ValueError, match="shape"):
        write_field_csv(tmp_path / "bad.csv", grid, values.T, header)


def test_field_csv_node_columns_do_not_keep_the_grid_alive(tmp_path):
    grid = build_grid(build_domain({"kind": "disk", "radius": 1.0}, "flat"), 8, 16)
    write_field_csv(tmp_path / "f.csv", grid, np.zeros((8, 16)), {})
    ref = weakref.ref(grid)
    del grid
    gc.collect()
    assert ref() is None


def test_field_row_table_is_one_per_grid_content():
    _node_table.cache_clear()
    first, second = (load_scenario(CONFIG).grid for _ in range(2))   # built apart
    assert first is not second
    table = _node_columns(first)
    assert _node_columns(second) is table
    assert _node_table.cache_info().misses == 1
    assert table == tuple(line.rpartition(",")[0] + "," for line in
                          _row_by_row_field_csv(first, np.zeros((16, 32)), {})
                          .decode().splitlines()[1:])

    # a different domain of the same shape has its own table
    ellipse = load_scenario({**CONFIG, "domain": {"kind": "ellipse", "a": 1.5, "b": 1.0}}).grid
    other = _node_columns(ellipse)
    assert other is not table and other != table
    assert _node_table.cache_info().misses == 2

    # bounded: more grids than the cache holds evict the oldest tables
    maxsize = _node_table.cache_info().maxsize
    disk = build_domain({"kind": "disk", "radius": 1.0}, "flat")
    for n in range(maxsize + 2):
        _node_columns(build_grid(disk, 8 + n, 16))
    assert _node_table.cache_info().currsize == maxsize
    assert _node_columns(second) is not table      # evicted, built again
    assert _node_columns(second) == table


def test_export_writes_the_field_csvs_of_the_saved_values(saved, runs_dir, tmp_path):
    """``slmcf export`` of a flow with dense samples and of its translator gives,
    byte for byte, the CSVs write_field_csv makes of the in-memory fields."""
    (run, _), _, (solution, _) = saved
    scenario = load_scenario(CONFIG)
    header = {"scenario": scenario.hash, "tool": f"slmcf {__version__}"}
    expect = {f"snapshots/snap_{k:06d}.csv": (u, {**header, "time": t})
              for k, (t, u) in enumerate(run.snapshots)}
    assert len(run.cfg.dense_sample_times) == 2 and _holds_triplets(run)
    written = export_field_csvs(runs_dir / "flow", tmp_path / "flow")
    assert sorted(p.relative_to(tmp_path / "flow").as_posix() for p in written) == sorted(expect)
    assert main(["export", str(runs_dir / "tr"), "-o", str(tmp_path / "tr")]) == 0
    expect["profile.csv"] = (solution.profile.values, header)
    for rel, (values, head) in expect.items():
        write_field_csv(tmp_path / "expect.csv", scenario.grid, values, head)
        exported = tmp_path / ("tr" if rel == "profile.csv" else "flow") / rel
        assert exported.read_bytes() == (tmp_path / "expect.csv").read_bytes(), rel


def test_export_loads_each_field_once(small_run, tmp_path, monkeypatch):
    """``slmcf export`` validates the run directory by its digests and reads
    every field file once, not once to load the run and once to write it."""
    load_field, loaded = runio._load_field, []

    def counted(path, grid):
        loaded.append(pathlib.Path(path).relative_to(small_run).as_posix())
        return load_field(path, grid)

    monkeypatch.setattr(runio, "_load_field", counted)
    written = export_field_csvs(small_run, tmp_path / "out")
    files = json.loads((small_run / "manifest.json").read_text())["files"]
    fields = sorted(entry["file"] for entry in files["snapshots"])
    assert len(fields) > 3 and sorted(loaded) == fields
    assert sorted(p.relative_to(tmp_path / "out").as_posix() for p in written) == \
        [rel.replace(".npy", ".csv") for rel in fields]


def test_export_of_a_bad_run_directory_exits_2(small_run, tmp_path):
    _replace_field(small_run, SNAP, _npy(np.zeros((12, 24), dtype=np.float32)))
    assert main(["export", str(small_run), "-o", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()
