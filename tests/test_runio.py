"""Run directories: FlowRun and TranslatorSolution saved and loaded by runio."""

import dataclasses
import gc
import json
import weakref

import numpy as np
import pytest

from slmcf.cli import cmd_flow, main
from slmcf.domain import build_domain
from slmcf.errors import ScenarioError
from slmcf.flow import FlowRun, PairRun, run_to_convergence
from slmcf.grid import build_grid
from slmcf.runio import (_node_columns, _node_table, load_run, load_scenario,
                         read_field_csv, save_flow_run, save_translator_solution,
                         write_field_csv)
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
def saved(tmp_path_factory):
    """(in-memory, loaded) pairs of two flow runs and one translator solution."""
    tmp_path = tmp_path_factory.mktemp("runs")
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


def test_flow_run_round_trip(saved, tmp_path):
    """The loaded run equals the saved one field for field, and so does every
    derived diagnostic."""
    for name, config in ROUND_TRIP.items():
        run, loaded = saved[0] if name == "zero_flux" else _flow(tmp_path, config, name)
        assert isinstance(loaded, FlowRun)
        assert len(run.snapshots) >= 2
        assert bool(run.dense) == (name == "zero_flux")
        for field in dataclasses.fields(FlowRun):
            assert _same(getattr(loaded, field.name), getattr(run, field.name)), (name, field)
        for prop in ("u_t", "H_field", "sup_du2", "sup_ut", "monitor_c0", "lu_factorizations"):
            assert _same(getattr(loaded, prop), getattr(run, prop)), (name, prop)


def test_dense_triplets_round_trip_under_exact_keys(tmp_path):
    """Triplets of times that agree to six digits keep their own files and keys."""
    taus = [0.1234567, 0.3000001, 0.3000004]
    config = dict(CONFIG, stepper=dict(CONFIG["stepper"], max_time=0.5,
                                       dense_sample_times=taus))
    run, loaded = _flow(tmp_path, config, "flow")
    assert list(run.dense) == list(loaded.dense) == taus
    manifest = json.loads((tmp_path / "flow" / "manifest.json").read_text())
    assert len(set(manifest["files"]["dense"])) == 9
    for tau in taus:
        assert [t for t, _ in loaded.dense[tau]] == [t for t, _ in run.dense[tau]]
        assert all(np.array_equal(a, b) for (_, a), (_, b) in zip(loaded.dense[tau],
                                                                  run.dense[tau]))
    assert run.dense[0.3000001][1][0] < run.dense[0.3000004][1][0]


def test_translator_solution_round_trip(saved):
    _, _, (solution, loaded) = saved
    assert isinstance(loaded, TranslatorSolution)
    assert np.array_equal(loaded.profile.values, solution.profile.values)
    assert loaded.to_record() == solution.to_record()
    assert loaded.limit == solution.limit
    assert {"chord_steps", "trace_residuals", "floor_stops"} <= set(loaded.limit)
    assert (loaded.eps_trace, loaded.grid_shape) == (solution.eps_trace, solution.grid_shape)


def _all_checks(flow, bump, solution):
    scenario = load_scenario(CONFIG)
    mc = monitor_constants(scenario.u0, flow.phi, flow.grid, c0=flow.monitor_c0)
    h = flow.grid.h
    return [check_ut_max_principle(flow.series),
            check_spacelike_bound(flow.series, mc, h, flow.cfg.delta_space),
            check_maximal_limit(flow, flow.phi, h),
            check_evo_du_residual(flow, flow.grid, flow.phi),
            check_translator_agreement(flow, solution, h),
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


def _rewrite_rows(path, change):
    lines = path.read_text().splitlines()
    path.write_text("\n".join(line if line.startswith("#") else change(line)
                              for line in lines) + "\n")


SMALL = dict(CONFIG, grid={"n_radial": 12, "n_angular": 24},
             stepper={"tol_speed": 1e-7, "max_time": 1.0, "dense_sample_times": [0.25]})


def test_field_node_outside_the_grid_is_a_scenario_error(tmp_path):
    run_dir = _flow_dir(tmp_path, SMALL)
    snap = run_dir / "snapshots" / "snap_000000.csv"
    lines = snap.read_text().splitlines()
    row = next(k for k, line in enumerate(lines) if line[0].isdigit())
    lines[row] = "99" + lines[row][lines[row].index(","):]
    snap.write_text("\n".join(lines) + "\n")
    with pytest.raises(ScenarioError, match="outside"):
        load_run(run_dir)
    assert main(["verify", str(run_dir)]) == 2


def test_field_file_without_seven_columns_is_a_scenario_error(tmp_path):
    run_dir = _flow_dir(tmp_path, SMALL)
    _rewrite_rows(run_dir / "snapshots" / "snap_000000.csv",
                  lambda line: line.rsplit(",", 1)[0])
    with pytest.raises(ScenarioError, match="6 columns"):
        load_run(run_dir)
    assert main(["verify", str(run_dir)]) == 2


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


def test_dense_file_without_tau_is_a_scenario_error(tmp_path):
    run_dir = _flow_dir(tmp_path, SMALL)
    dense = run_dir / "snapshots" / "dense_000000_1.csv"
    dense.write_text("".join(line for line in dense.read_text().splitlines(keepends=True)
                             if not line.startswith("# tau:")))
    with pytest.raises(ScenarioError, match="no tau header"):
        load_run(run_dir)
    assert main(["verify", str(run_dir)]) == 2


def test_dense_files_not_in_triplets_are_a_scenario_error(tmp_path):
    run_dir = _flow_dir(tmp_path, SMALL)
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert len(manifest["files"]["dense"]) == 3
    manifest["files"]["dense"].pop()
    (run_dir / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ScenarioError, match="triplets"):
        load_run(run_dir)
    assert main(["verify", str(run_dir)]) == 2


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
    """The field file as the earlier writer built it, one _fmt cell at a time."""
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
