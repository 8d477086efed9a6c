import csv
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import slmcf
from conftest import floor_stop_residuals, limit_factorizations
from slmcf.cli import cmd_flow, cmd_sweep, cmd_translator, cmd_verify, main
from slmcf.errors import ScenarioError
from slmcf.runio import (load_run, load_scenario, load_scenario_file, read_csv,
                         read_field_csv, scenario_core_hash, scenario_hash,
                         validate_manifest, write_field_csv)

BASE = {
    "name": "disk_small",
    "metric": {"id": "flat"},
    "domain": {"kind": "disk", "radius": 1.0},
    "phi": {"kind": "constant", "value": 0.2},
    "u0": {"kind": "constant", "value": 0.0},
    "grid": {"n_radial": 16, "n_angular": 32},
    "stepper": {"tol_speed": 1e-7, "max_time": 6.0, "snapshot_interval": 10},
    "continuation": {"eps_min": 1e-5},
    "seed_label": "test",
}


def _write(tmp_path, config, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(config, indent=2))
    return p


def test_scenario_validation_errors(hyperbolic_metric):
    bad = dict(BASE, domain={"kind": "smooth_convex", "r0": 1.0, "amp": 0.3, "k": 4})
    with pytest.raises(ScenarioError):
        load_scenario(bad)
    bad = dict(BASE, metric={"id": "hyperbolic"},
               domain={"kind": "chart_circle", "r0": 0.5})
    with pytest.raises(ScenarioError):
        load_scenario(bad)   # negative ambient curvature rejected
    bad = dict(BASE, u0={"kind": "polynomial", "terms": [[2.0, 1, 0]]})
    with pytest.raises(ScenarioError, match=r"not space-like: sup \|Du0\|\^2 = 4\.000000$"):
        load_scenario(bad)   # |Du0| >= 1
    bad = dict(BASE, phi={"kind": "table", "values": [0.1] * 7})
    with pytest.raises(ScenarioError):
        load_scenario(bad)
    with pytest.raises(ScenarioError):
        load_scenario({"metric": {"id": "flat"}})


def test_scenario_hashing_stable():
    h1 = scenario_hash(BASE)
    h2 = scenario_hash(json.loads(json.dumps(BASE)))
    assert h1 == h2
    other = dict(BASE, u0={"kind": "constant", "value": 1.0})
    assert scenario_hash(other) != h1
    assert scenario_core_hash(other) == scenario_core_hash(BASE)


def test_flow_run_artifacts(tmp_path):
    cfg = _write(tmp_path, BASE)
    manifest = cmd_flow(cfg, tmp_path / "run")
    assert manifest["final"]["converged"]
    checked = validate_manifest(tmp_path / "run")
    assert checked["scenario_hash"] == scenario_hash(BASE)
    header, cols, data = read_csv(tmp_path / "run" / "series.csv")
    assert cols == ["t", "sup_ut", "sup_du2", "mean_ut", "osc_u"]
    assert header["scenario"] == scenario_hash(BASE)
    assert data.shape[1] == 5


def test_flow_deterministic_bytes(tmp_path):
    cfg = _write(tmp_path, dict(BASE, stepper=dict(BASE["stepper"],
                                                   dense_sample_times=[0.5])))
    cmd_flow(cfg, tmp_path / "a")
    cmd_flow(cfg, tmp_path / "b")
    files = [json.loads((tmp_path / run / "manifest.json").read_text())["files"]
             for run in ("a", "b")]
    assert files[0] == files[1]     # names, times, taus and sha256 digests
    fields = [entry["file"] for entry in files[0]["snapshots"] + files[0]["dense"]]
    assert len(fields) > 4 and all(rel.endswith(".npy") for rel in fields)
    for rel in ("series.csv", "energy.csv", *fields):
        assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()


def test_translator_artifacts(tmp_path):
    cfg = _write(tmp_path, BASE)
    manifest = cmd_translator(cfg, tmp_path / "tr")
    assert manifest["final"]["c3"] == pytest.approx(-0.396, abs=5e-3)
    result = json.loads((tmp_path / "tr" / "result.json").read_text())
    assert result["eps_trace"]
    assert len(result["newton_iterations"]) == len(result["eps_trace"])
    limit = result["limit"]
    assert limit_factorizations(limit) >= 1
    assert limit["residuals"][-1] <= 1e-10
    assert 0 <= limit["newton_steps"] <= len(limit["residuals"]) - 1
    assert [e for e, _ in limit["trace_residuals"]] == [e for e, _ in result["eps_trace"]]
    assert all(r <= f for _, r, f in floor_stop_residuals(limit))
    validate_manifest(tmp_path / "tr")


def test_verify_pipeline(tmp_path):
    cfg = _write(tmp_path, BASE)
    cmd_flow(cfg, tmp_path / "flow")
    cmd_translator(cfg, tmp_path / "tr")
    reports, summary = cmd_verify([tmp_path / "flow", tmp_path / "tr"])
    assert summary["all_passed"]
    names = [r.name for r in reports]
    assert any("ut_max_principle" in n for n in names)
    assert any("spacelike_bound" in n for n in names)
    assert any("translator_agreement" in n for n in names)


def test_verify_pairs_and_osc(tmp_path):
    cfg_a = _write(tmp_path, BASE, "a.json")
    config_b = dict(BASE, name="disk_small_b",
                    u0={"kind": "polynomial", "terms": [[0.1, 2, 0], [0.1, 0, 2]]})
    cfg_b = _write(tmp_path, config_b, "b.json")
    cmd_flow(cfg_a, tmp_path / "fa")
    cmd_flow(cfg_b, tmp_path / "fb")
    reports, summary = cmd_verify([tmp_path / "fa", tmp_path / "fb"])
    assert any("osc_decay" in r.name for r in reports)
    assert summary["all_passed"]


def test_verify_detects_tampering(tmp_path):
    cfg = _write(tmp_path, BASE)
    cmd_flow(cfg, tmp_path / "flow")
    series = tmp_path / "flow" / "series.csv"
    lines = series.read_text().splitlines()
    # inflate a late sup_ut entry: breaks the maximum principle
    parts = lines[-1].split(",")
    parts[1] = repr(float(parts[1]) + 50.0)
    lines[-1] = ",".join(parts)
    series.write_text("\n".join(lines) + "\n")
    reports, summary = cmd_verify([tmp_path / "flow"])
    assert not summary["all_passed"]


def test_cli_exit_codes(tmp_path, capsys):
    cfg = _write(tmp_path, BASE)
    assert main(["flow", str(cfg), "-o", str(tmp_path / "r1")]) == 0
    assert main(["verify", str(tmp_path / "r1")]) == 0
    # missing file: usage/runtime error
    assert main(["flow", str(tmp_path / "missing.json"), "-o", str(tmp_path / "x")]) == 2
    # invalid scenario: exit 2
    bad = _write(tmp_path, dict(BASE, grid={"n_radial": 4, "n_angular": 8}), "bad.json")
    assert main(["flow", str(bad), "-o", str(tmp_path / "y")]) == 2
    # a scenario file holding a JSON array, not an object: exit 2
    listed = _write(tmp_path, [BASE], "list.json")
    assert main(["flow", str(listed), "-o", str(tmp_path / "z")]) == 2
    assert "scenario must be a JSON object" in capsys.readouterr().err
    # tampered run: exit 1
    series = tmp_path / "r1" / "series.csv"
    lines = series.read_text().splitlines()
    parts = lines[-1].split(",")
    parts[1] = repr(float(parts[1]) + 50.0)
    lines[-1] = ",".join(parts)
    series.write_text("\n".join(lines) + "\n")
    assert main(["verify", str(tmp_path / "r1")]) == 1


def test_verify_missing_file_errors(tmp_path):
    cfg = _write(tmp_path, BASE)
    cmd_flow(cfg, tmp_path / "flow")
    (tmp_path / "flow" / "energy.csv").unlink()
    with pytest.raises(ScenarioError):
        validate_manifest(tmp_path / "flow")
    assert main(["verify", str(tmp_path / "flow")]) == 2


def test_roundtrip_rerun_same_hash(tmp_path):
    cfg = _write(tmp_path, BASE)
    manifest = cmd_flow(cfg, tmp_path / "run")
    echoed = json.loads((tmp_path / "run" / "scenario.json").read_text())
    scenario = load_scenario(echoed)
    assert scenario.hash == manifest["scenario_hash"]


def test_sweep_refinement(tmp_path):
    template = dict(BASE)
    template["stepper"] = {"tol_speed": 1e-7, "max_time": 6.0}
    tpl = _write(tmp_path, template, "template.json")
    grid_spec = json.dumps([
        {"grid.n_radial": 12, "grid.n_angular": 24},
        {"grid.n_radial": 16, "grid.n_angular": 32},
        {"grid.n_radial": 24, "grid.n_angular": 48},
    ])
    summary = cmd_sweep(tpl, grid_spec, tmp_path / "sweep")
    assert summary.exists()
    text = summary.read_text().splitlines()
    assert len(text) == 2 + 3  # comment, header, three rows
    # refinement drives flow speed and elliptic speed together
    rows = [line.split(",") for line in text[2:]]
    header = text[1].split(",")
    i_speed = header.index("speed_estimate")
    i_c3 = header.index("c3")
    gaps = [abs(float(r[i_speed]) - float(r[i_c3])) for r in rows]
    assert gaps[-1] < 5e-6


def test_sweep_product_spec(tmp_path):
    tpl = _write(tmp_path, BASE, "template.json")
    summary = cmd_sweep(tpl, json.dumps({"phi.value": [0.1, 0.2]}), tmp_path / "sw2")
    lines = summary.read_text().splitlines()
    assert len(lines) == 4
    header = lines[1].split(",")
    i_c3 = header.index("c3")
    c3s = [float(line.split(",")[i_c3]) for line in lines[2:]]
    assert c3s[0] > c3s[1]  # stronger contact angle pulls faster (more negative)


def test_sweep_empty_grid_errors(tmp_path):
    tpl = _write(tmp_path, BASE, "template.json")
    assert main(["sweep", str(tpl), "--grid", "[]", "-o", str(tmp_path / "sw3")]) == 2


def test_verify_maximal_limit_and_dense(tmp_path):
    config = dict(BASE, name="disk_cos",
                  phi={"kind": "fourier", "cos": [0.3]},
                  grid={"n_radial": 24, "n_angular": 48},
                  stepper={"tol_speed": 1e-7, "max_time": 6.0, "dt": 0.01,
                           "snapshot_interval": 20,
                           "dense_sample_times": [0.1, 0.25]})
    cfg = _write(tmp_path, config, "cos.json")
    cmd_flow(cfg, tmp_path / "flow")
    reports, summary = cmd_verify([tmp_path / "flow"])
    names = [r.name for r in reports]
    assert any("maximal_limit" in n for n in names)
    assert any("evo_du_residual" in n for n in names)
    evo = next(r for r in reports if "evo_du" in r.name)
    assert evo.details["validated"] == "derived"
    assert summary["all_passed"]


def test_sphere_scenario_via_cli(tmp_path):
    config = {
        "name": "cap_phi01",
        "metric": {"id": "sphere"},
        "domain": {"kind": "chart_circle", "r0": 0.8},
        "phi": {"kind": "constant", "value": 0.1},
        "u0": {"kind": "constant", "value": 0.0},
        "grid": {"n_radial": 16, "n_angular": 32},
        "stepper": {"tol_speed": 1e-7, "max_time": 8.0, "snapshot_interval": 10},
        "continuation": {"eps_min": 1e-5},
        "seed_label": "cap",
    }
    cfg = _write(tmp_path, config, "cap.json")
    fm = cmd_flow(cfg, tmp_path / "flow")
    tm = cmd_translator(cfg, tmp_path / "tr")
    assert fm["final"]["converged"]
    assert abs(fm["final"]["speed_estimate"] - tm["final"]["c3"]) < 1e-6
    reports, summary = cmd_verify([tmp_path / "flow", tmp_path / "tr"])
    assert summary["all_passed"]


# speed, c3, flow steps and factorizations, summed translator iterations of
# the radial curved scenarios, as the polar chart they ran on before gave them
RADIAL_CURVED = {
    ("sphere", 16): (-0.2359497723800555, -0.23594977236090306, 12, 3, 17),
    ("sphere", 48): (-0.23596465700162106, -0.2359646569719378, 15, 3, 17),
    ("dome", 16): (-0.27852201138949145, -0.2785220112466207, 12, 3, 23),
    ("dome", 48): (-0.27854822820488095, -0.2785482281600008, 16, 4, 23),
}


def _curved_config(metric, domain, phi, n):
    return {"name": f"{metric}_{domain['kind']}", "metric": {"id": metric}, "domain": domain,
            "phi": {"kind": "constant", "value": phi},
            "grid": {"n_radial": n, "n_angular": 2 * n},
            "stepper": {"tol_speed": 1e-7, "max_time": 10.0, "snapshot_interval": 25}}


@pytest.mark.parametrize("metric,n", sorted(RADIAL_CURVED))
def test_chart_circle_keeps_its_polar_chart_numbers(tmp_path, metric, n):
    """A chart_circle, now the disk of radius r0 about the pole of the normal
    chart, reproduces the polar-chart runs: speed and c3 within 1e-13, the
    same step, factorization and Newton counts, and ring solves only."""
    speed, c3, steps, factors, newton = RADIAL_CURVED[metric, n]
    r0, phi = {"sphere": (0.8, 0.1), "dome": (1.0, 0.15)}[metric]
    cfg = _write(tmp_path, _curved_config(metric, {"kind": "chart_circle", "r0": r0}, phi, n))
    final = cmd_flow(cfg, tmp_path / "flow")["final"]
    translator_final = cmd_translator(cfg, tmp_path / "tr")["final"]
    result = json.loads((tmp_path / "tr" / "result.json").read_text())
    assert final["speed_estimate"] == pytest.approx(speed, abs=1e-13)
    assert translator_final["c3"] == pytest.approx(c3, abs=1e-13)
    assert (final["steps"], final["lu_factorizations"]) == (steps, factors)
    assert sum(result["newton_iterations"]) == newton
    assert {r[4] for r in final["lu_refreshes"]} == {"ring"}
    assert {kind for _, kind in result["limit"]["solvers"]} == {"ring"}


@pytest.mark.parametrize("metric,domain,phi", [
    ("sphere", {"kind": "disk", "radius": 0.4, "center": [0.3, 0.0]}, 0.1),
    ("dome", {"kind": "ellipse", "a": 0.9, "b": 0.6}, 0.15)])
def test_curved_scenarios_off_symmetry_pass_verify(tmp_path, metric, domain, phi):
    """Every domain kind runs on every metric: an off-center sphere cap and a
    dome ellipse converge, and their flow and translator pass every check."""
    cfg = _write(tmp_path, _curved_config(metric, domain, phi, 16))
    assert cmd_flow(cfg, tmp_path / "flow")["final"]["converged"]
    cmd_translator(cfg, tmp_path / "tr")
    reports, summary = cmd_verify([tmp_path / "flow", tmp_path / "tr"])
    assert any(r.name.endswith("translator_agreement") for r in reports)
    assert summary["all_passed"], [(r.name, r.details) for r in reports if not r.passed]


def test_a_domain_that_leaves_the_chart_exits_2(tmp_path, capsys):
    cfg = _write(tmp_path, _curved_config("dome", {"kind": "disk", "radius": 0.7,
                                                   "center": [1.0, 0.0]}, 0.1, 16))
    assert main(["flow", str(cfg), "-o", str(tmp_path / "flow")]) == 2
    assert "leaves the chart of metric 'dome'" in capsys.readouterr().err


def test_a_grid_node_past_the_chart_exits_2(tmp_path, capsys):
    """The domain's check samples the boundary curve 1024 times; a 2048-node
    ring can put a node between the samples past r_max.  The grid refuses it
    on its own nodes, and the same domain on a coarse ring still loads."""
    a = np.pi / 1024       # the farthest point, |x| = 1.600001, between two samples
    domain = {"kind": "disk", "radius": 0.5, "center": [1.100001 * np.cos(a),
                                                        1.100001 * np.sin(a)]}
    config = _curved_config("dome", domain, 0.1, 16)
    config["grid"]["n_angular"] = 2048
    assert main(["flow", str(_write(tmp_path, config)), "-o", str(tmp_path / "flow")]) == 2
    assert "r_max = 1.6" in capsys.readouterr().err
    config["grid"]["n_angular"] = 32
    X = load_scenario(config).grid.X
    assert 1.5999 < np.max(np.hypot(X[..., 0], X[..., 1])) < 1.6


def test_flow_manifest_step_counters(tmp_path):
    manifest = cmd_flow(_write(tmp_path, BASE), tmp_path / "run")
    final = manifest["final"]
    assert final["rejected"] == 0
    assert 1 <= final["lu_factorizations"] <= final["steps"] + 1
    assert len(final["lu_refreshes"]) == final["lu_factorizations"]
    assert final["lu_refreshes"][0] == [0, 0.0, final["dt_min"], "start", "ring"]
    assert {r[3] for r in final["lu_refreshes"]} <= {"start", "dt", "interval", "defect"}
    assert {r[4] for r in final["lu_refreshes"]} == {"ring"}     # a radial state
    # default stepping starts at diameter / (2 n_radial) and grows from there
    assert final["dt_min"] == pytest.approx(1.0 / 16)
    assert final["dt_min"] < final["dt_max"] <= 0.5
    assert json.loads((tmp_path / "run" / "manifest.json").read_text())["final"] == final


def test_verify_detects_tampered_hash(tmp_path):
    """A field file whose bytes no longer have the manifest's sha256, and a CSV
    whose header carries another scenario hash, are both refused."""
    cmd_flow(_write(tmp_path, BASE), tmp_path / "flow")
    snap = tmp_path / "flow" / "snapshots" / "snap_000001.npy"
    data = bytearray(snap.read_bytes())
    data[-1] ^= 1                   # the last bit of the last value
    snap.write_bytes(bytes(data))
    with pytest.raises(ScenarioError, match="sha256"):
        validate_manifest(tmp_path / "flow")
    assert main(["verify", str(tmp_path / "flow")]) == 2

    cmd_flow(_write(tmp_path, BASE), tmp_path / "flow2")
    series = tmp_path / "flow2" / "series.csv"
    text = series.read_text()
    tampered = text.replace(f"# scenario: {scenario_hash(BASE)}",
                            "# scenario: 0123456789abcdef")
    assert tampered != text
    series.write_text(tampered)
    with pytest.raises(ScenarioError, match="scenario hash"):
        validate_manifest(tmp_path / "flow2")
    assert main(["verify", str(tmp_path / "flow2")]) == 2


def test_verify_osc_decay_without_shared_times_fails(tmp_path):
    """Two runs of one scenario core whose snapshot times never meet after
    t = 0: the oscillation check is reported as failed, not dropped."""
    stepper = {"tol_speed": 1e-7, "max_time": 1.0, "snapshot_interval": 10}
    cfg_a = _write(tmp_path, dict(BASE, stepper=dict(stepper, dt=0.01)), "a.json")
    config_b = dict(BASE, name="disk_small_b", stepper=dict(stepper, dt=0.0123),
                    u0={"kind": "polynomial", "terms": [[0.1, 2, 0], [0.1, 0, 2]]})
    cfg_b = _write(tmp_path, config_b, "b.json")
    cmd_flow(cfg_a, tmp_path / "fa")
    cmd_flow(cfg_b, tmp_path / "fb")
    reports, summary = cmd_verify([tmp_path / "fa", tmp_path / "fb"])
    osc = [r for r in reports if r.name == "[disk_small|disk_small_b] osc_decay"]
    assert len(osc) == 1
    assert not osc[0].passed
    assert osc[0].measured == 1    # only t = 0 is shared
    assert "fewer than two samples" in osc[0].details["precondition"]
    assert not summary["all_passed"]


@pytest.mark.parametrize("section, key", [("stepper", "dtt"),
                                          ("stepper", "refresh_interval"),
                                          ("stepper", "scheme"),
                                          ("stepper", "delta_space"),
                                          ("stepper", "max_steps"),
                                          ("continuation", "cauchy_tol"),
                                          ("continuation", "newton"),
                                          ("continuation", "eps0"),
                                          ("continuation", "ratio")])
def test_unknown_solver_key_is_a_scenario_error(tmp_path, capsys, section, key):
    config = json.loads(json.dumps(BASE))
    config.setdefault(section, {})[key] = 1.0
    with pytest.raises(ScenarioError, match=key):
        load_scenario(config)
    cfg = _write(tmp_path, config)
    for command in ("flow", "translator"):
        assert main([command, str(cfg), "-o", str(tmp_path / command)]) == 2
        assert key in capsys.readouterr().err


@pytest.mark.parametrize("section, key, value", [
    ("stepper", "dt", "x"), ("stepper", "tol_speed", "x"), ("stepper", "max_time", "x"),
    ("stepper", "delta_space", "x"), ("stepper", "snapshot_interval", "x"),
    ("stepper", "max_steps", "x"), ("stepper", "dense_sample_times", 5),
    ("stepper", "dense_sample_times", ["x"]), ("continuation", "eps_min", 2),
    ("stepper", "max_steps", 0), ("stepper", "dt", float("inf")), ("stepper", "dt", 1e-300),
    ("stepper", "max_time", float("nan")), ("stepper", "tol_speed", float("nan")),
    ("stepper", "tol_speed", -1e-7), ("stepper", "snapshot_interval", 0),
    ("phi", "value", "0.2"), ("phi", "value", True), ("u0", "value", True),
    ("domain", "radius", True)])
def test_solver_value_of_the_wrong_type_or_range_exits_2(tmp_path, capsys, section, key, value):
    config = dict(BASE, **{section: {**BASE[section], key: value}})
    with pytest.raises(ScenarioError, match=key):
        load_scenario(config)
    assert main(["flow", str(_write(tmp_path, config)), "-o", str(tmp_path / "run")]) == 2
    assert key in capsys.readouterr().err


NOT_AN_OBJECT = {"stepper": [1.0], "continuation": [1.0], "metric": "flat",
                 "domain": "disk", "phi": 0.2, "grid": [12, 24]}


@pytest.mark.parametrize("section", list(NOT_AN_OBJECT))
def test_solver_section_must_be_an_object(tmp_path, section):
    config = dict(BASE, **{section: NOT_AN_OBJECT[section]})
    with pytest.raises(ScenarioError, match=f"'{section}' must be a JSON object"):
        load_scenario(config)
    assert main(["flow", str(_write(tmp_path, config)), "-o", str(tmp_path / "run")]) == 2


@pytest.mark.parametrize("grid, message", [
    ({"n_angular": 32}, "'n_radial' must be an integer, not None"),
    ({"n_radial": "16", "n_angular": 32}, "'n_radial' must be an integer, not '16'"),
    ({"n_radial": 16, "n_angular": 32.5}, "'n_angular' must be an integer"),
    ({"n_radial": True, "n_angular": 32}, "'n_radial' must be an integer"),
])
def test_missing_or_ill_typed_grid_key_exits_2(tmp_path, capsys, grid, message):
    """The CLI maps typed errors only, so a bad grid key must raise one."""
    config = dict(BASE, grid=grid)
    with pytest.raises(ScenarioError, match=message):
        load_scenario(config)
    assert main(["flow", str(_write(tmp_path, config)), "-o", str(tmp_path / "run")]) == 2
    assert "must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize("section, spec", [
    ("domain", {"kind": "ellipse", "a": 2.0}),
    ("domain", {"kind": "disk", "radius": "x"}),
    ("phi", {"kind": "constant"}),
    ("u0", {"kind": "sampled"}),
    ("u0", {"kind": "polynomial", "terms": [[0.1, 2.5, 0]]}),
])
def test_missing_or_ill_typed_section_key_exits_2(tmp_path, section, spec):
    config = dict(BASE, **{section: spec})
    # the message names the section, then the key at fault
    with pytest.raises(ScenarioError, match=rf"section '{section}': .*'\w+'"):
        load_scenario(config)
    assert main(["flow", str(_write(tmp_path, config)), "-o", str(tmp_path / "run")]) == 2


def test_malformed_run_directory_exits_2(tmp_path):
    cmd_flow(_write(tmp_path, BASE), tmp_path / "flow")
    manifest = json.loads((tmp_path / "flow" / "manifest.json").read_text())
    del manifest["final"]
    (tmp_path / "flow" / "manifest.json").write_text(json.dumps(manifest))
    assert main(["verify", str(tmp_path / "flow")]) == 2


@pytest.mark.parametrize("key", ["lu_refreshes", "dt_min", "dt_max", "max_H_final"])
def test_flow_manifest_without_a_recorded_key_exits_2(tmp_path, key):
    cmd_flow(_write(tmp_path, BASE), tmp_path / "flow")
    manifest = json.loads((tmp_path / "flow" / "manifest.json").read_text())
    del manifest["final"][key]
    (tmp_path / "flow" / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ScenarioError, match=key):
        load_run(tmp_path / "flow")
    assert main(["verify", str(tmp_path / "flow")]) == 2


def test_translator_result_without_limit_exits_2(tmp_path):
    cmd_translator(_write(tmp_path, BASE), tmp_path / "tr")
    result = json.loads((tmp_path / "tr" / "result.json").read_text())
    del result["limit"]
    (tmp_path / "tr" / "result.json").write_text(json.dumps(result))
    with pytest.raises(ScenarioError, match="limit"):
        load_run(tmp_path / "tr")
    assert main(["verify", str(tmp_path / "tr")]) == 2


def test_sweep_spec_of_non_objects_exits_2(tmp_path):
    tpl = _write(tmp_path, BASE, "template.json")
    assert main(["sweep", str(tpl), "--grid", "[1, 2]", "-o", str(tmp_path / "s1")]) == 2
    assert main(["sweep", str(tpl), "--grid", '{"phi.value": 0.1}',
                 "-o", str(tmp_path / "s3")]) == 2
    spec = json.dumps({"phi.value.x": [1]})
    assert main(["sweep", str(tpl), "--grid", spec, "-o", str(tmp_path / "s2")]) == 2


def test_sweep_summary_rows_have_the_header_cell_count(tmp_path):
    """A list override's repr holds commas: its cell is quoted (RFC 4180), so
    csv.reader reads as many cells in each row as in the header."""
    template = dict(BASE, phi={"kind": "fourier", "a0": 0.2},
                    grid={"n_radial": 8, "n_angular": 16})
    tpl = _write(tmp_path, template, "template.json")
    spec = json.dumps({"phi.cos": [[0.01, 0.02]], "name": ["x"]})
    summary = cmd_sweep(tpl, spec, tmp_path / "sweep")
    lines = summary.read_text(encoding="utf-8").splitlines()
    rows = list(csv.reader(line for line in lines if not line.startswith("#")))
    assert len(rows) == 2 and len(rows[1]) == len(rows[0])
    assert rows[1][rows[0].index("phi.cos")] == "[0.01, 0.02]"
    assert rows[1][rows[0].index("name")] == "'x'"


def test_sweep_grid_nested_past_the_recursion_limit_exits_2(tmp_path, capsys):
    tpl = _write(tmp_path, BASE, "template.json")
    spec = "[" * 10000 + "]" * 10000
    assert main(["sweep", str(tpl), "--grid", spec, "-o", str(tmp_path / "sweep")]) == 2
    assert "invalid JSON in --grid" in capsys.readouterr().err
    assert not (tmp_path / "sweep").exists()


def test_sweep_checks_every_case_before_it_runs_one(tmp_path, capsys):
    """A misspelled override in the second case exits 2 before the first runs."""
    tpl = _write(tmp_path, BASE, "template.json")
    spec = json.dumps([{"phi.value": 0.1}, {"phi.valeu": 0.3}])
    assert main(["sweep", str(tpl), "--grid", spec, "-o", str(tmp_path / "sweep")]) == 2
    assert "'valeu'" in capsys.readouterr().err
    assert not list(tmp_path.glob("sweep/case_*/flow"))


def test_field_csv_round_trip_is_bit_identical(tmp_path):
    scenario = load_scenario(BASE)
    grid = scenario.grid
    rng = np.random.default_rng(3)
    values = rng.standard_normal(grid.rho.shape + grid.s.shape)
    values *= 10.0 ** rng.integers(-300, 300, values.shape)
    values[0, 0], values[0, 1] = -0.0, 5e-324
    write_field_csv(tmp_path / "f.csv", grid, values, {"scenario": "x"})
    header, read_back = read_field_csv(tmp_path / "f.csv", grid)
    assert header["scenario"] == "x"
    assert np.array_equal(read_back, values)
    assert np.array_equal(np.signbit(read_back), np.signbit(values))
    _, cols, data = read_csv(tmp_path / "f.csv")
    assert cols == ["i", "j", "rho", "s", "x1", "x2", "u"]
    assert data.shape == (values.size, 7)


def test_scenario_file_is_read_as_utf8_in_any_locale(tmp_path):
    """A UTF-8 scenario file runs under the C locale, whose encoding is ASCII."""
    cfg = tmp_path / "cafe.json"
    cfg.write_text(json.dumps(dict(BASE, name="caf\u00e9"), ensure_ascii=False),
                   encoding="utf-8")
    src = pathlib.Path(slmcf.__file__).resolve().parents[1]
    env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0",
               PYTHONPATH=os.pathsep.join([str(src)] + [
                   p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-m", "slmcf.cli", "flow", str(cfg),
                           "-o", str(tmp_path / "run")],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert load_run(tmp_path / "run")[0].name == "caf\u00e9"


def test_scenario_file_not_in_utf8_exits_2(tmp_path, capsys):
    """A latin-1 byte in a scenario file or sweep template is a ScenarioError
    that names the file, and the CLI exits 2."""
    cfg = tmp_path / "latin1.json"
    cfg.write_bytes(json.dumps(dict(BASE, name="caf\u00e9"), ensure_ascii=False)
                    .encode("latin-1"))
    with pytest.raises(ScenarioError, match="invalid JSON in .*latin1.json"):
        load_scenario_file(cfg)
    assert main(["flow", str(cfg), "-o", str(tmp_path / "run")]) == 2
    assert str(cfg) in capsys.readouterr().err
    assert main(["sweep", str(cfg), "--grid", '{"phi.value": [0.1]}',
                 "-o", str(tmp_path / "sweep")]) == 2
    assert str(cfg) in capsys.readouterr().err
    assert not (tmp_path / "run").exists() and not (tmp_path / "sweep").exists()
