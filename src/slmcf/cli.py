"""Command-line entry points.

    slmcf flow <config.json> -o <dir>        run the parabolic solver
    slmcf translator <config.json> -o <dir>  solve for the translator and c3
    slmcf verify <dir> [<dir> ...]           run all applicable checks
    slmcf sweep <template.json> --grid <spec> -o <dir>   parameter sweeps
    slmcf export <dir> -o <out>              write a run's field files as CSVs

Exit codes: 0 all good, 1 a verification check failed, no check applied to
the runs given or a run did not converge, 2 a typed error (``SlmcfError``:
configuration, run directory or solver) or an OS error.  Any other exception
is a fault of the program and propagates with its traceback.
"""

from __future__ import annotations

import argparse
import csv
import json
import pathlib
import sys
import time

from . import __version__
from .errors import SlmcfError
from .flow import FlowRun, PairRun, run_to_convergence
from .runio import (check_config, decode_json, export_field_csvs, load_manifest, load_run,
                    load_scenario_file, save_flow_run, save_translator_solution,
                    write_manifest)
# unused here: perfbench/spans.py wraps these names on this module to time run I/O
from .runio import (load_scenario, read_csv, read_field_csv, validate_manifest,  # noqa: F401
                    write_energy_csv, write_field_csv, write_series_csv)
from .translator import continuation
from .verify import (CheckReport, check_evo_du_residual, check_maximal_limit,
                     check_osc_decay, check_spacelike_bound,
                     check_translator_agreement, check_ut_max_principle,
                     monitor_constants, render_reports)


def cmd_flow(config_path, outdir) -> dict:
    scenario = load_scenario_file(config_path)
    t0 = time.perf_counter()
    run = run_to_convergence(scenario.u0, scenario.phi, scenario.grid, scenario.stepper)
    return save_flow_run(outdir, scenario, run, time.perf_counter() - t0)


def cmd_translator(config_path, outdir) -> dict:
    scenario = load_scenario_file(config_path)
    t0 = time.perf_counter()
    solution = continuation(scenario.continuation, scenario.phi, scenario.grid)
    return save_translator_solution(outdir, scenario, solution, time.perf_counter() - t0)


def cmd_verify(run_dirs) -> tuple[list, dict]:
    """Run every applicable check over the given run directories."""
    flows, translators = [], []
    scenarios = {}          # one build per distinct scenario
    for rd in run_dirs:
        scenario, run = load_run(rd, scenarios)
        (flows if isinstance(run, FlowRun) else translators).append((scenario, run))

    reports = []

    def add(tag, report):
        report.name = tag + report.name
        reports.append(report)

    for scenario, run in flows:
        tag = f"[{scenario.name}] "
        c1 = monitor_constants(run.phi, run.grid, run.monitor_c0)
        add(tag, check_ut_max_principle(run.series))
        add(tag, check_spacelike_bound(run.series, c1, run.grid.h))
        if run.phi.zero_flux:
            add(tag, check_maximal_limit(run))
        if run.cfg.dense_sample_times:
            add(tag, check_evo_du_residual(run))

    # translator agreement: flow + translator sharing the scenario core
    for scen_t, solution in translators:
        for scen_f, run in flows:
            if scen_f.core_hash == scen_t.core_hash:
                add(f"[{scen_f.name}+{scen_t.name}] ", check_translator_agreement(run, solution))

    # oscillation decay: pairs of flow runs differing only in initial data
    for a, (scen_a, run_a) in enumerate(flows):
        for scen_b, run_b in flows[a + 1:]:
            if scen_a.core_hash == scen_b.core_hash and scen_a.hash != scen_b.hash:
                add(f"[{scen_a.name}|{scen_b.name}] ",
                    check_osc_decay(PairRun.from_snapshots(run_a, run_b)))

    if not reports:          # a verify that checks nothing does not pass
        reports.append(CheckReport(
            name="no_check", passed=False, measured=0, threshold=1,
            details={"precondition": "no check applies to the run directories given",
                     "run_dirs": [str(rd) for rd in run_dirs]}))

    summary = {"tool_version": __version__,
               "reports": [r.as_dict() for r in reports],
               "all_passed": all(r.passed for r in reports)}
    return reports, summary


def _apply_override(config, dotted_key, value):
    node = config
    parts = dotted_key.split(".")
    for p in parts[:-1]:
        node = node.setdefault(p, {}) if isinstance(node, dict) else None
    if not isinstance(node, dict):
        raise SlmcfError(f"sweep key '{dotted_key}' does not lead through JSON objects")
    node[parts[-1]] = value


def _sweep_case(config, outdir, idx):
    case_dir = pathlib.Path(outdir) / f"case_{idx:03d}"
    case_dir.mkdir(parents=True, exist_ok=True)
    cfg_path = case_dir / "scenario.json"
    write_manifest(cfg_path, config)
    flow_manifest = cmd_flow(cfg_path, case_dir / "flow")
    trans_manifest = cmd_translator(cfg_path, case_dir / "translator")
    return {
        "case": idx,
        "speed_estimate": flow_manifest["final"]["speed_estimate"],
        "converged": flow_manifest["final"]["converged"],
        "sup_du2": flow_manifest["final"]["sup_du2"],
        "max_H_final": flow_manifest["final"]["max_H_final"],
        "c3": trans_manifest["final"]["c3"],
        "c3_quadrature": trans_manifest["final"]["residuals"]["c3_quadrature"],
    }


def cmd_sweep(template_path, grid_spec, outdir) -> pathlib.Path:
    template = load_manifest(template_path)
    spec = decode_json(grid_spec, "--grid")
    if isinstance(spec, dict) and all(isinstance(v, list) for v in spec.values()):
        # cartesian product over the listed keys, in sorted key order
        keys = sorted(spec)
        combos = [{}]
        for key in keys:
            combos = [{**c, key: v} for c in combos for v in spec[key]]
    elif isinstance(spec, list) and all(isinstance(c, dict) for c in spec):
        combos = [dict(c) for c in spec]
    else:
        raise SlmcfError("sweep grid spec must be a JSON object of arrays or an array "
                         "of objects")
    if not combos or combos == [{}]:
        raise SlmcfError("sweep grid spec is empty")

    configs = [json.loads(json.dumps(template)) for _ in combos]
    for idx, (config, overrides) in enumerate(zip(configs, combos)):
        for key, value in overrides.items():
            _apply_override(config, key, value)
        config["name"] = f"{config.get('name', 'case')}_{idx:03d}"
        check_config(config)    # every case fits the scenario tables before any case runs
    outdir = pathlib.Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    results = [_sweep_case(config, outdir, idx) for idx, config in enumerate(configs)]

    override_keys = sorted({k for c in combos for k in c})
    columns = (["case"] + override_keys +
               ["speed_estimate", "c3", "c3_quadrature", "sup_du2",
                "max_H_final", "converged"])
    summary = outdir / "summary.csv"
    with summary.open("w", encoding="utf-8", newline="") as fh:
        fh.write("# slmcf sweep summary\n")
        # a cell holding a comma, a quote or a newline is quoted (RFC 4180)
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for res in results:
            row = [str(res["case"])]
            row += [repr(combos[res["case"]].get(k, "")) for k in override_keys]
            row += [repr(res["speed_estimate"]), repr(res["c3"]),
                    repr(res["c3_quadrature"]), repr(res["sup_du2"]),
                    repr(res["max_H_final"]), str(int(res["converged"]))]
            writer.writerow(row)
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

    p_ex = sub.add_parser("export", help="write the field files of a run directory as "
                                         "i,j,rho,s,x1,x2,u CSVs")
    p_ex.add_argument("run_dir")
    p_ex.add_argument("-o", "--output", required=True)

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
                write_manifest(args.output, summary)
            return 0 if summary["all_passed"] else 1
        if args.command == "sweep":
            summary = cmd_sweep(args.template, args.grid, args.output)
            print(f"sweep summary written to {summary}")
            return 0
        if args.command == "export":
            written = export_field_csvs(args.run_dir, args.output)
            print(f"{len(written)} field CSVs written to {args.output}")
            return 0
    except (SlmcfError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
