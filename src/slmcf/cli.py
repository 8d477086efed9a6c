"""Command-line entry points.

    slmcf flow <config.json> -o <dir>        run the parabolic solver
    slmcf translator <config.json> -o <dir>  solve for the translator and c3
    slmcf verify <dir> [<dir> ...]           run all applicable checks
    slmcf sweep <template.json> --grid <spec> -o <dir>   parameter sweeps

Exit codes: 0 all good, 1 a verification check failed or a run did not
converge, 2 usage/configuration/runtime errors.  SLMCF_WORKERS bounds the
sweep worker pool (default 1, which keeps output fully deterministic).
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import __version__
from .errors import SlmcfError
from .flow import run_to_convergence
from .runio import (load_scenario, load_scenario_file, read_csv,
                    read_field_csv, standard_header, validate_manifest,
                    write_energy_csv, write_field_csv, write_manifest,
                    write_series_csv)
from .translator import TranslatorSolution, continuation
from .verify import (CheckReport, check_evo_du_residual, check_maximal_limit,
                     check_osc_decay, check_spacelike_bound,
                     check_translator_agreement, check_ut_max_principle,
                     monitor_constants, render_reports)


def cmd_flow(config_path, outdir) -> dict:
    scenario = load_scenario_file(config_path)
    outdir = pathlib.Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    header = standard_header(scenario)

    t0 = time.perf_counter()
    run = run_to_convergence(scenario.u0, scenario.phi, scenario.grid, scenario.stepper)
    elapsed = time.perf_counter() - t0

    (outdir / "scenario.json").write_text(
        json.dumps(scenario.config, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    write_series_csv(outdir / "series.csv", run, header)
    write_energy_csv(outdir / "energy.csv", run, header)

    snap_dir = outdir / "snapshots"
    snap_dir.mkdir(exist_ok=True)
    snap_files = []
    for k, (t, u) in enumerate(run.snapshots):
        rel = f"snapshots/snap_{k:06d}.csv"
        write_field_csv(outdir / rel, scenario.grid, u, {**header, "time": t})
        snap_files.append(rel)
    dense_files = []
    for tau, triplet in sorted(run.dense.items()):
        for m, (t, u) in enumerate(triplet):
            rel = f"snapshots/dense_{tau:.6f}_{m}.csv"
            write_field_csv(outdir / rel, scenario.grid, u, {**header, "time": t})
            dense_files.append(rel)

    mc = monitor_constants(scenario.u0, scenario.phi, scenario.grid,
                           c0=run.monitor_c0)
    manifest = {
        "kind": "flow",
        "scenario_hash": scenario.hash,
        "scenario_core_hash": scenario.core_hash,
        "tool_version": __version__,
        "scenario": scenario.config,
        "files": {"series": "series.csv", "energy": "energy.csv",
                  "snapshots": snap_files, "dense": dense_files},
        "timing": {"seconds": elapsed},
        "final": {
            "converged": run.converged,
            "message": run.message,
            "t_final": run.state.t,
            "steps": run.state.step_count,
            "rejected": run.rejected,
            "lu_factorizations": run.lu_factorizations,
            "dt_min": run.dt_min,
            "dt_max": run.dt_max,
            "speed_estimate": run.speed_estimate,
            "sup_du2": run.state.sup_du2,
            "sup_ut": run.state.sup_ut,
            "max_H_final": float(np.max(np.abs(run.state.H_field))),
            "monitor": mc.as_dict(),
            "h": scenario.grid.h,
            "delta_space": scenario.stepper.delta_space,
        },
    }
    write_manifest(outdir / "manifest.json", manifest)
    return manifest


def cmd_translator(config_path, outdir) -> dict:
    scenario = load_scenario_file(config_path)
    outdir = pathlib.Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    header = standard_header(scenario)

    t0 = time.perf_counter()
    solution = continuation(scenario.continuation, scenario.phi, scenario.grid)
    elapsed = time.perf_counter() - t0

    (outdir / "scenario.json").write_text(
        json.dumps(scenario.config, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    write_field_csv(outdir / "profile.csv", scenario.grid,
                    solution.profile.values, header)
    (outdir / "result.json").write_text(
        json.dumps(solution.to_record(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8")

    manifest = {
        "kind": "translator",
        "scenario_hash": scenario.hash,
        "scenario_core_hash": scenario.core_hash,
        "tool_version": __version__,
        "scenario": scenario.config,
        "files": {"profile": "profile.csv", "result": "result.json"},
        "timing": {"seconds": elapsed},
        "final": {"c3": solution.c3, "residuals": solution.residuals,
                  "h": scenario.grid.h},
    }
    write_manifest(outdir / "manifest.json", manifest)
    return manifest


class _StoredRun:
    """Minimal FlowRun stand-in rebuilt from persisted artifacts."""

    def __init__(self, run_dir, manifest, scenario):
        import dataclasses as _dc

        self.manifest = manifest
        self.scenario = scenario
        run_dir = pathlib.Path(run_dir)
        _, cols, data = read_csv(run_dir / manifest["files"]["series"])
        self.series = {c: data[:, k] for k, c in enumerate(cols)}
        _, ecols, edata = read_csv(run_dir / manifest["files"]["energy"])
        self.energy = {c: edata[:, k] for k, c in enumerate(ecols)}
        self.snapshots = []
        for rel in manifest["files"]["snapshots"]:
            header, values = read_field_csv(run_dir / rel, scenario.grid)
            self.snapshots.append((float(header["time"]), values))
        self.dense = {}
        dense_files = manifest["files"].get("dense", [])
        for k in range(0, len(dense_files), 3):
            triple = []
            for rel in dense_files[k:k + 3]:
                header, values = read_field_csv(run_dir / rel, scenario.grid)
                triple.append((float(header["time"]), values))
            if len(triple) == 3:
                tau = float(dense_files[k].split("_")[1])
                self.dense[tau] = tuple(triple)
        self.speed_estimate = manifest["final"]["speed_estimate"]
        self.converged = manifest["final"]["converged"]

        H = _dc.make_dataclass("FinalState", ["H_field"])
        t_final, u_final = self.snapshots[-1]
        from .geometry import mean_curvature_field
        from .operators import contact_ghost
        ghost, _, _ = contact_ghost(u_final, scenario.grid,
                                    scenario.phi.values_on(scenario.grid))
        self.state = H(H_field=mean_curvature_field(u_final, scenario.grid, ghost))


def _pair_from_snapshots(run_a: _StoredRun, run_b: _StoredRun):
    import dataclasses as _dc

    ta = {round(t, 12): u for t, u in run_a.snapshots}
    tb = {round(t, 12): u for t, u in run_b.snapshots}
    common = sorted(set(ta) & set(tb))
    osc, mab = [], []
    for t in common:
        diff = ta[t] - tb[t]
        osc.append(float(np.max(diff) - np.min(diff)))
        mab.append(float(np.max(np.abs(diff))))
    P = _dc.make_dataclass("StoredPair", ["t", "osc", "max_abs"])
    return P(t=np.asarray(common), osc=np.asarray(osc), max_abs=np.asarray(mab))


def cmd_verify(run_dirs) -> tuple[list, dict]:
    """Run every applicable check over the given run directories."""
    flows, translators = [], []
    for rd in run_dirs:
        manifest = validate_manifest(rd)
        scenario = load_scenario(manifest["scenario"])
        if manifest["kind"] == "flow":
            flows.append((rd, manifest, scenario))
        else:
            translators.append((rd, manifest, scenario))

    reports = []
    stored = {}
    for rd, manifest, scenario in flows:
        run = _StoredRun(rd, manifest, scenario)
        stored[rd] = run
        tag = f"[{scenario.name}] "
        mc_dict = manifest["final"]["monitor"]
        from .verify import MonitorConstants
        mc = MonitorConstants(**mc_dict)
        h = manifest["final"]["h"]
        r = check_ut_max_principle(run.series)
        r.name = tag + r.name
        reports.append(r)
        r = check_spacelike_bound(run.series, mc, h,
                                  manifest["final"].get("delta_space", 1e-3))
        r.name = tag + r.name
        reports.append(r)
        if abs(scenario.phi.boundary_integral) <= 1e-8:
            r = check_maximal_limit(run, scenario.phi, h)
            r.name = tag + r.name
            reports.append(r)
        if run.dense:
            r = check_evo_du_residual(run, scenario.grid, scenario.phi)
            r.name = tag + r.name
            reports.append(r)

    # translator agreement: flow + translator sharing the scenario core
    for rd_t, man_t, scen_t in translators:
        _, profile = read_field_csv(pathlib.Path(rd_t) / man_t["files"]["profile"],
                                    scen_t.grid)
        result = json.loads((pathlib.Path(rd_t) / man_t["files"]["result"]).read_text())
        from .grid import GridFunction
        sol = TranslatorSolution(
            profile=GridFunction(profile, scen_t.grid), c3=result["c3"],
            eps_trace=result["eps_trace"], eps_trace_mean=result["eps_trace_mean"],
            residuals=result["residuals"], grid_shape=tuple(result["grid"]),
            newton_iterations=result["newton_iterations"], limit=result.get("limit", {}))
        for rd_f, man_f, scen_f in flows:
            if man_f["scenario_core_hash"] == man_t["scenario_core_hash"]:
                r = check_translator_agreement(stored[rd_f], sol, man_f["final"]["h"])
                r.name = f"[{scen_f.name}+{scen_t.name}] " + r.name
                reports.append(r)

    # oscillation decay: pairs of flow runs differing only in initial data
    for a in range(len(flows)):
        for b in range(a + 1, len(flows)):
            rd_a, man_a, scen_a = flows[a]
            rd_b, man_b, scen_b = flows[b]
            if (man_a["scenario_core_hash"] == man_b["scenario_core_hash"]
                    and man_a["scenario_hash"] != man_b["scenario_hash"]):
                pair = _pair_from_snapshots(stored[rd_a], stored[rd_b])
                if len(pair.t) >= 2:
                    r = check_osc_decay(pair)
                else:
                    # a pair with nothing to compare is a failed check, not a skipped one
                    r = CheckReport(name="osc_decay", passed=False, measured=len(pair.t),
                                    threshold=2, details={"precondition": (
                                        "the runs share fewer than two snapshot times")})
                r.name = f"[{scen_a.name}|{scen_b.name}] " + r.name
                reports.append(r)

    summary = {"tool_version": __version__,
               "reports": [r.as_dict() for r in reports],
               "all_passed": all(r.passed for r in reports)}
    return reports, summary


def _apply_override(config, dotted_key, value):
    node = config
    parts = dotted_key.split(".")
    for p in parts[:-1]:
        node = node.setdefault(p, {})
    node[parts[-1]] = value


def _sweep_case(args):
    template, overrides, outdir, idx = args
    config = json.loads(json.dumps(template))
    for key, value in overrides.items():
        _apply_override(config, key, value)
    config["name"] = f"{config.get('name', 'case')}_{idx:03d}"
    case_dir = pathlib.Path(outdir) / f"case_{idx:03d}"
    case_dir.mkdir(parents=True, exist_ok=True)
    cfg_path = case_dir / "scenario.json"
    cfg_path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
    flow_manifest = cmd_flow(cfg_path, case_dir / "flow")
    trans_manifest = cmd_translator(cfg_path, case_dir / "translator")
    return {
        "case": idx,
        "overrides": overrides,
        "speed_estimate": flow_manifest["final"]["speed_estimate"],
        "converged": flow_manifest["final"]["converged"],
        "sup_du2": flow_manifest["final"]["sup_du2"],
        "max_H_final": flow_manifest["final"]["max_H_final"],
        "c3": trans_manifest["final"]["c3"],
        "c3_quadrature": trans_manifest["final"]["residuals"]["c3_quadrature"],
    }


def cmd_sweep(template_path, grid_spec, outdir) -> pathlib.Path:
    template = json.loads(pathlib.Path(template_path).read_text(encoding="utf-8"))
    spec = json.loads(grid_spec)
    if isinstance(spec, dict):
        # cartesian product over the listed keys, in sorted key order
        keys = sorted(spec)
        combos = [{}]
        for key in keys:
            combos = [{**c, key: v} for c in combos for v in spec[key]]
    elif isinstance(spec, list):
        combos = [dict(c) for c in spec]
    else:
        raise SlmcfError("sweep grid spec must be a JSON object or array")
    if not combos or combos == [{}]:
        raise SlmcfError("sweep grid spec is empty")

    outdir = pathlib.Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    work = [(template, overrides, str(outdir), idx)
            for idx, overrides in enumerate(combos)]
    workers = int(os.environ.get("SLMCF_WORKERS", "1"))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_case, work))
    else:
        results = [_sweep_case(w) for w in work]

    override_keys = sorted({k for c in combos for k in c})
    columns = (["case"] + override_keys +
               ["speed_estimate", "c3", "c3_quadrature", "sup_du2",
                "max_H_final", "converged"])
    lines = ["# slmcf sweep summary", ",".join(columns)]
    for res in results:
        row = [str(res["case"])]
        row += [repr(res["overrides"].get(k, "")) for k in override_keys]
        row += [repr(res["speed_estimate"]), repr(res["c3"]),
                repr(res["c3_quadrature"]), repr(res["sup_du2"]),
                repr(res["max_H_final"]), str(int(res["converged"]))]
        lines.append(",".join(row))
    summary = outdir / "summary.csv"
    summary.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="slmcf",
        description="space-like graphical mean curvature flow with contact angle")
    parser.add_argument("--version", action="version", version=f"slmcf {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_flow = sub.add_parser("flow", help="run the parabolic solver")
    p_flow.add_argument("config")
    p_flow.add_argument("-o", "--output", required=True)

    p_tr = sub.add_parser("translator", help="solve for the translator and c3")
    p_tr.add_argument("config")
    p_tr.add_argument("-o", "--output", required=True)

    p_ver = sub.add_parser("verify", help="check recorded runs")
    p_ver.add_argument("run_dirs", nargs="+")
    p_ver.add_argument("-o", "--output", default=None,
                       help="write the JSON report here")

    p_sw = sub.add_parser("sweep", help="parameter sweep")
    p_sw.add_argument("template")
    p_sw.add_argument("--grid", required=True,
                      help='JSON: {"dotted.key": [values...]} or [{...}, ...]')
    p_sw.add_argument("-o", "--output", required=True)

    args = parser.parse_args(argv)
    try:
        if args.command == "flow":
            manifest = cmd_flow(args.config, args.output)
            print(f"flow run {manifest['scenario_hash']}: "
                  f"speed = {manifest['final']['speed_estimate']:.8g}, "
                  f"converged = {manifest['final']['converged']}")
            return 0 if manifest["final"]["converged"] else 1
        if args.command == "translator":
            manifest = cmd_translator(args.config, args.output)
            print(f"translator run {manifest['scenario_hash']}: "
                  f"c3 = {manifest['final']['c3']:.8g}")
            return 0
        if args.command == "verify":
            reports, summary = cmd_verify(args.run_dirs)
            print(render_reports(reports))
            if args.output:
                pathlib.Path(args.output).write_text(
                    json.dumps(summary, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
            return 0 if summary["all_passed"] else 1
        if args.command == "sweep":
            summary = cmd_sweep(args.template, args.grid, args.output)
            print(f"sweep summary written to {summary}")
            return 0
    except (SlmcfError, OSError, ValueError, KeyError, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
