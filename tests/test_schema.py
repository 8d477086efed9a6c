"""The scenario tables: every key refuses what its table does not admit, the
CLI names the section and the key, the README documents the tables, and the
tables read the configs of CI and of the benchmark catalog as before."""

import importlib.util
import json
import pathlib
import re
import sys

import numpy as np
import pytest

from slmcf import runio, schema
from slmcf.cli import main
from slmcf.domain import build_domain
from slmcf.errors import ScenarioError
from slmcf.flow import StepperConfig
from slmcf.grid import ContactAngle
from slmcf.runio import load_scenario, scenario_hash
from slmcf.translator import ContinuationSchedule

ROOT = pathlib.Path(__file__).resolve().parents[1]

BASE = {
    "name": "disk_small", "seed_label": "test",
    "metric": {"id": "flat"},
    "domain": {"kind": "disk", "radius": 1.0},
    "phi": {"kind": "constant", "value": 0.2},
    "u0": {"kind": "constant", "value": 0.0},
    "grid": {"n_radial": 16, "n_angular": 32},
    "stepper": {"tol_speed": 1e-7, "max_time": 6.0, "snapshot_interval": 10},
    "continuation": {"eps_min": 1e-5},
}

# A value of each JSON type that its tables admit, whatever the key's range
# (0.5: a number in (0, 1), the range of continuation eps_min)
EXAMPLE = {"number": 0.5, "integer": 16, "string": "flat", "null": None, "object": {},
           "numbers": [0.1], "2-vector": [0.0, 0.0], "terms": [[0.1, 2, 0]],
           "2-D array": [[0.0]]}


def _keys():
    """(section, kind, key, Key) of every key of the scenario tables; section
    None is the scenario itself."""
    for key, spec in schema.SCENARIO[None].items():
        yield None, None, key, spec
    for section, table in runio._SECTIONS.items():
        for kind, keys in table.items():
            for key, spec in keys.items():
                yield section, kind, key, spec


def _config(section, kind):
    """BASE with section ``section`` holding every key of ``kind``, each with
    an admitted value."""
    config = json.loads(json.dumps(BASE))
    if section is not None:
        keys = runio._SECTIONS[section][kind]
        config[section] = {k: EXAMPLE[spec.type.split("|")[0]] for k, spec in keys.items()}
        if kind is not None:
            config[section]["kind"] = kind
    return config


def _probes():
    for section, kind, key, spec in _keys():
        tag = ".".join(str(p) for p in (section, kind, key) if p is not None)
        typo = key[:-2] + key[-1] + key[-2] if len(key) > 1 else key * 2
        yield pytest.param(section, kind, key, "rename", typo, id=f"{tag}-misspelled")
        yield pytest.param(section, kind, key, "set", True, id=f"{tag}-bool")
        if spec.type != "string":
            yield pytest.param(section, kind, key, "set", "x", id=f"{tag}-string")
        yield pytest.param(section, kind, key, "set", [[EXAMPLE[spec.type.split("|")[0]]]],
                           id=f"{tag}-nested")
        if spec.default is schema.REQUIRED:
            yield pytest.param(section, kind, key, "drop", None, id=f"{tag}-missing")
    for section, default in schema.KINDS.items():
        kind = next(iter(runio._SECTIONS[section]))
        for value, probe in ((True, "bool"), ("x", "string"), ([[kind]], "nested")):
            yield pytest.param(section, kind, "kind", "set", value, id=f"{section}.kind-{probe}")
        if default is schema.REQUIRED:
            yield pytest.param(section, kind, "kind", "drop", None, id=f"{section}.kind-missing")


@pytest.mark.parametrize("section, kind, key, probe, value", _probes())
def test_every_key_refuses_what_its_table_does_not_admit(section, kind, key, probe, value):
    config = _config(section, kind)
    runio.check_config(config)      # every key at an admitted value
    node = config if section is None else config[section]
    if probe == "rename":
        node[value] = node.pop(key)
    elif probe == "set":
        node[key] = value
    else:
        del node[key]
    with pytest.raises(ScenarioError) as err:
        load_scenario(config)
    message = str(err.value)
    assert f"'{value if probe == 'rename' else key}'" in message
    assert (f"scenario section '{section}':" if section else "scenario:") in message


@pytest.mark.parametrize("section, spec, key", [
    pytest.param("domain", {"kind": "disk", "raduis": 2.0}, "raduis", id="domain-raduis"),
    pytest.param("domain", {"kind": "smooth_convex", "r0": 1.0, "ampl": 0.1, "k": 4}, "ampl",
                 id="domain-ampl"),
    pytest.param("u0", {"kind": "constant", "valeu": 0.3}, "valeu", id="u0-valeu"),
    pytest.param("domain", {"kind": "smooth_convex", "r0": 1.0, "amp": 0.05, "k": 4.5}, "k",
                 id="domain-k-4.5"),
    pytest.param("domain", {"kind": "smooth_convex", "r0": 1.0, "amp": 0.05, "k": 0}, "k",
                 id="domain-k-0"),
    pytest.param("domain", {"kind": "smooth_convex", "r0": 1.0, "amp": 0.05, "k": -4}, "k",
                 id="domain-k-minus-4"),
    pytest.param("phi", {"kind": "fourier", "cos": [[0.3]]}, "cos", id="phi-cos-nested"),
    pytest.param("domain", {"kind": "disk", "center": [[0, 0]]}, "center",
                 id="domain-center-nested"),
    pytest.param("domain", {"kind": "disk", "center": [0, 0, 0]}, "center",
                 id="domain-center-3-vector"),
    pytest.param("metric", {"id": "flat", "idd": "sphere"}, "idd", id="metric-idd"),
    pytest.param("grid", {"n_radial": 16, "n_angular": 32, "n_theta": 64}, "n_theta",
                 id="grid-extra-key"),
    pytest.param("grid", {"n_radial": 10 ** 30, "n_angular": 32}, "n_radial",
                 id="grid-n_radial-huge"),
    pytest.param("grid", {"n_radial": 4, "n_angular": 32}, "n_radial", id="grid-n_radial-4"),
    pytest.param("grid", {"n_radial": 16, "n_angular": 2050}, "n_angular",
                 id="grid-n_angular-2050"),
    pytest.param("phi", {"kind": "constant", "value": 0.2, "valeu": 0.3}, "valeu",
                 id="phi-extra-key"),
    pytest.param("stepp", {"dt": 0.01}, "stepp", id="top-level-stepp"),
])
def test_misspelled_or_ill_typed_key_exits_2_naming_section_and_key(tmp_path, capsys, section,
                                                                    spec, key):
    """Each of these loaded silently, or failed as a wrapped builder exception,
    before the scenario tables."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(BASE, **{section: spec})))
    assert main(["flow", str(path), "-o", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert f"'{section}'" in err and re.search(rf"\b{key}\b", err), err
    assert not (tmp_path / "run").exists()


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("u0", [
    pytest.param({"kind": "polynomial", "terms": [[1.0, 5000, 0]]}, id="overflowing-polynomial"),
    pytest.param({"kind": "sampled", "values": [[0.0] * 4] * 3}, id="sampled-of-another-shape"),
])
def test_u0_that_is_not_a_finite_field_on_the_grid_exits_2(tmp_path, capsys, u0):
    """Keys the table admits can still give no u0: x^5000 overflows where |x| > 1."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(BASE, domain={"kind": "ellipse", "a": 1.5, "b": 1.0},
                                    u0=u0)))
    assert main(["flow", str(path), "-o", str(tmp_path / "run")]) == 2
    assert "scenario section 'u0'" in capsys.readouterr().err


def test_library_builders_hold_their_section_to_the_table():
    with pytest.raises(ScenarioError, match="section 'domain': unknown key.*'raduis'"):
        build_domain({"kind": "disk", "raduis": 2.0}, "flat")
    disk = build_domain({"kind": "disk"}, "flat")
    with pytest.raises(ScenarioError, match="section 'phi': 'cos'"):
        ContactAngle({"kind": "fourier", "cos": [[0.3]]}, disk)
    with pytest.raises(ScenarioError, match="section 'phi': table values must be non-empty"):
        ContactAngle({"kind": "table", "values": []}, disk)


# the solver sections' ranges, in the table like every other section's
SOLVER_OUT_OF_RANGE = [
    ("stepper", "dt", 1e-300), ("stepper", "tol_speed", -1e-7), ("stepper", "max_time", 0),
    ("stepper", "max_time", float("nan")), ("stepper", "snapshot_interval", 0),
    ("stepper", "snapshot_interval", 2.5), ("continuation", "eps_min", 2.0),
    ("continuation", "eps_min", 0.0), ("continuation", "eps_min", 1.0)]


@pytest.mark.parametrize("section, key, value", SOLVER_OUT_OF_RANGE)
def test_solver_ranges_name_the_section_in_scenarios_and_library(section, key, value):
    """``load_scenario`` and the config classes refuse alike, naming the
    section and the key: a library config is held to the scenario's table."""
    message = f"scenario section '{section}': '{key}' must be"
    with pytest.raises(ScenarioError, match=message):
        load_scenario(dict(BASE, **{section: {key: value}}))
    config_class = StepperConfig if section == "stepper" else ContinuationSchedule
    with pytest.raises(ScenarioError, match=message):
        config_class(**{key: value})


# -- the README documents the tables -------------------------------------------------

def _documented(default):
    if default is schema.REQUIRED:
        return "required"
    return list(default) if isinstance(default, tuple) else default


def test_readme_key_reference_lists_every_key_kind_and_default():
    lines = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    start = lines.index("| section | kind | key | type | default |")
    documented = {}
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        section, kind, key, _, default = (c.strip().strip("`") for c in line.strip("|").split("|"))
        row = (None if section == "(top level)" else section, kind or None, key)
        assert row not in documented, row
        documented[row] = "required" if default == "required" else json.loads(default)
    table = {(section, kind, key): _documented(spec.default)
             for section, kind, key, spec in _keys()}
    table.update({(section, None, "kind"): _documented(default)
                  for section, default in schema.KINDS.items()})
    assert documented == table


# -- the CI and benchmark catalog configs load as before the tables ------------------

GRID16 = {"n_radial": 16, "n_angular": 32}
DISK = {"name": "disk_phi02", "metric": {"id": "flat"},
        "domain": {"kind": "disk", "radius": 1.0}, "phi": {"kind": "constant", "value": 0.2},
        "grid": GRID16, "stepper": {"snapshot_interval": 5}}
CI_CONFIGS = {
    "disk": DISK,
    "bowl": dict(DISK, name="disk_phi02_bowl",
                 u0={"kind": "polynomial", "terms": [[0.1, 2, 0], [0.1, 0, 2]]}),
    "zero_flux": {"name": "zero_flux", "metric": {"id": "flat"},
                  "domain": {"kind": "smooth_convex", "r0": 1.0, "amp": 0.05, "k": 4},
                  "phi": {"kind": "fourier", "cos": [0.3]}, "grid": GRID16},
    "dense": dict(DISK, name="dense", stepper={
        "dt": 0.01, "max_time": 0.5, "dense_sample_times": [0.1, 0.3000001, 0.3000004]}),
    "sweep_000": {"name": "sweep_disk_000", "metric": {"id": "flat"},
                  "domain": {"kind": "disk", "radius": 1.0},
                  "phi": {"kind": "constant", "value": 0.1}, "grid": GRID16},
}

# scenario_hash of each config, as the loader before the tables recorded it
HASHES = {
    "disk": "caa524ef807f33f0", "bowl": "3e0ccbea5230d481", "zero_flux": "bd32de3640b0cc95",
    "dense": "90316928b552aa30", "sweep_000": "71ab63da459fd37f",
    "full/disk_u0_zero": "cac15e45d762e791", "full/disk_u0_bowl": "5be78c04f960ec19",
    "full/ellipse_fourier": "a178ef6223e340b5", "full/sphere_cap": "92d13f25f89fa2c8",
    "full/dome": "18067605c50affd0", "full/zero_flux": "9c9b19fe124e7343",
    "tiny/disk_u0_zero": "6e9d86ea86d25a39", "tiny/disk_u0_bowl": "070f5a683aa847bd",
    "tiny/ellipse_fourier": "6406dfe95b5cc78b", "tiny/sphere_cap": "ba270d58462d91d6",
    "tiny/dome": "22ff1629b0413b3a", "tiny/zero_flux": "a2d3a837544d42c2",
}

# the defaults the builders filled in before the tables, by section and kind
OLD_DEFAULTS = {
    "domain": {"disk": {"radius": 1.0, "center": [0.0, 0.0]}, "ellipse": {"center": [0.0, 0.0]},
               "smooth_convex": {"r0": 1.0, "amp": 0.0, "k": 2, "phase": 0.0},
               "chart_circle": {}},
    "phi": {"constant": {}, "fourier": {"a0": 0.0, "cos": [], "sin": []}, "table": {}},
    "u0": {"constant": {"value": 0.0}, "polynomial": {"terms": []}, "sampled": {}},
}


def _catalog_configs():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module        # dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return {f"{scale}/{c['name']}": c for scale in ("full", "tiny")
            for c in module.catalog_configs(0, 0, scale)}


CONFIGS = {**CI_CONFIGS, **_catalog_configs()}


def _explicit(config):
    """``config`` with every default the builders filled in before the tables
    written out, and the stepper and continuation defaults of their classes."""
    config = json.loads(json.dumps(config))
    config.setdefault("u0", {"kind": "constant"})
    config["metric"].setdefault("id", "flat")
    for section in OLD_DEFAULTS:
        config[section] = {**OLD_DEFAULTS[section][config[section]["kind"]], **config[section]}
    config["stepper"] = {"dt": None, "tol_speed": 1e-7, "max_time": 10.0,
                         "snapshot_interval": 50, "dense_sample_times": [],
                         **config.get("stepper", {})}
    config["continuation"] = {"eps_min": 1e-6, **config.get("continuation", {})}
    return config


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_ci_and_catalog_configs_keep_their_hash_and_load_bit_equal(name):
    config = CONFIGS[name]
    assert set(HASHES) == set(CONFIGS)
    scenario, explicit = load_scenario(config), load_scenario(_explicit(config))
    assert scenario_hash(config) == scenario.hash == HASHES[name]   # kept as written
    for a, b in ((scenario.grid.X, explicit.grid.X),
                 (scenario.phi.values_on(scenario.grid), explicit.phi.values_on(explicit.grid)),
                 (scenario.u0.values, explicit.u0.values)):
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64))
    assert scenario.stepper == explicit.stepper
    assert scenario.continuation == explicit.continuation
