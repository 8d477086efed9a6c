"""slmcf benchmark: time to steady flow, time to c3, and the catalog verify pipeline.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all [--seed 0] [--seconds 10] [--trace 0]

Run from the repository root; the program is imported from ``src/``.  A run
repeats the workload body (closed loop, one caller), each time on the next
input drawn from the seed, until ``--seconds`` have passed and at least
``MIN_BODIES`` bodies ran, and reports medians.  With ``--trace 0`` it reports
the end-to-end metrics of ``BENCHMARK.json``; ``setup_s`` is the median of
several fresh interpreter processes, each timing ``import slmcf`` plus the
workload's scenario, domain, grid, contact-angle and initial-data
construction.  With ``--trace 1`` it alternates untraced and traced body runs
and reports the per-layer metrics (see ``spans.py``) plus
``tracing_overhead_s``.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it give the environment, every metric with its unit, and each
failed operation.  Spans and a result record are written to
``.perfbench_out/``.  ``--workload all`` runs every workload in its own
process and prints one table; it exits 1 if any workload is not correct.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 3
MIN_BODIES = 2
PROBE_TIMEOUT_S = 60
WORKLOAD_TIMEOUT_S = 175


class HarnessError(Exception):
    """The benchmark cannot run here (no program, no spec)."""


def _load_spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise HarnessError(f"no BENCHMARK.json at {ROOT}")
    return json.loads(path.read_text(encoding="utf-8"))


def _import_slmcf():
    """Import slmcf from this checkout's src/ and return its modules by name."""
    if not (SRC / "slmcf" / "__init__.py").is_file():
        raise HarnessError(f"no slmcf package under {SRC}")
    sys.path.insert(0, str(SRC))
    import importlib
    import types

    names = ["cli", "domain", "errors", "flow", "geometry", "grid", "metrics",
             "oracle", "runio", "translator", "verify"]
    mods = {n: importlib.import_module(f"slmcf.{n}") for n in names}
    if pathlib.Path(mods["flow"].__file__).resolve().parent != (SRC / "slmcf").resolve():
        raise HarnessError(f"slmcf imported from {mods['flow'].__file__}, not {SRC}")
    return types.SimpleNamespace(**mods), {f"slmcf.{n}": m for n, m in mods.items()}


def environment():
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version")}
    except (TypeError, KeyError):
        blas = None
    env = {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                           "MKL_NUM_THREADS", "SLMCF_WORKERS")}
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        commit = commit.stdout.strip() if commit.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted(SRC.rglob("*.py")))
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas,
            "thread_env": env, "git_commit": commit, "src_lines": src_lines,
            "machine": platform.machine()}


def _setup_probe(workload, seed, scale, workdir):
    """Run in a fresh interpreter: time import plus the first body's set-up."""
    t0 = time.perf_counter()
    sm, _ = _import_slmcf()
    import spans
    import workloads

    null = spans.NullTracer()
    workloads.WORKLOADS[workload](sm, seed, scale, workdir, null).inputs(0, null)
    return time.perf_counter() - t0


def measure_setup(args):
    samples = []
    env = {k: v for k, v in os.environ.items() if k != "SLMCF_WORKERS"}
    for k in range(SETUP_PROBES):
        workdir = OUT / f"probe_{os.getpid()}_{k}"
        try:
            proc = subprocess.run(
                [sys.executable, str(pathlib.Path(__file__).resolve()), "--setup-probe",
                 "--workload", args.workload, "--seed", str(args.seed),
                 "--scale", args.scale, "--workdir", str(workdir)],
                cwd=ROOT, env=env, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if proc.returncode != 0:
            raise HarnessError(f"set-up probe failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def _digest(result):
    return hashlib.sha256(json.dumps(result, sort_keys=True).encode()).hexdigest()


def run_workload(args, spec):
    """Run bodies until ``--seconds`` have passed (and at least the workload's
    ``MIN_BODIES`` untraced, or one traced pair) and print the report."""
    sm, modules = _import_slmcf()
    import spans
    import workloads

    os.environ.pop("SLMCF_WORKERS", None)
    env = environment()
    setup_s = measure_setup(args) if not args.trace else None

    cls = workloads.WORKLOADS[args.workload]
    min_bodies = 1 if args.trace else MIN_BODIES
    workdir = OUT / f"work_{args.workload}_{os.getpid()}"
    null = spans.NullTracer()
    wl = cls(sm, args.seed, args.scale, workdir, null)
    outcome = workloads.Outcome()
    digests, walls, traced_walls, layer_samples, problems = [], [], [], [], []
    summaries = []
    tracer = spans.Tracer() if args.trace else None

    start = time.perf_counter()
    try:
        while (len(walls) < min_bodies
               or time.perf_counter() - start < args.seconds):
            k = len(walls)
            inputs = wl.inputs(k, null)
            t0 = time.perf_counter()
            result = wl.body(inputs, null)
            walls.append(time.perf_counter() - t0)
            wl.finish(inputs, result)
            outcome.rel_errs.append([])
            wl.check(inputs, result, outcome)
            digests.append(_digest(result))
            summaries.append({key: value for key, value in result.items()
                              if not isinstance(value, dict)})
            if tracer is None:
                continue
            tracer.start_run(modules)
            try:
                with tracer.span("setup"):
                    twl = cls(sm, args.seed, args.scale, workdir, tracer)
                    tinputs = twl.inputs(k, tracer)
                t0 = time.perf_counter()
                with tracer.span("body"):
                    tresult = twl.body(tinputs, tracer)
                traced_walls.append(time.perf_counter() - t0)
            finally:
                tracer.end_run()
            twl.finish(tinputs, tresult)
            outcome.rel_errs.append([])
            twl.check(tinputs, tresult, outcome)
            if _digest(tresult) != digests[-1]:
                problems.append(f"body {k}: traced result differs from untraced")
            layer_samples.append(spans.layer_metrics(tracer.spans, tracer.run_id,
                                                     tracer.counts, tresult))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if tracer is not None:
            tracer.write(OUT / f"spans_{args.workload}_seed{args.seed}.jsonl")

    if not all(outcome.rel_errs):
        outcome.missing.append("oracle comparison")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if args.trace:
        metrics = {name: statistics.median(s[name] for s in layer_samples)
                   for name in layer_samples[0]}
        metrics["tracing_overhead_s"] = (statistics.median(traced_walls)
                                         - statistics.median(walls))
        listed = spec["per_layer"]
    else:
        # the worst oracle gap of each body, over the bodies every run makes
        worst = [max(errs, default=float("nan")) for errs in outcome.rel_errs]
        metrics = {"setup_s": setup_s, "wall_s": statistics.median(walls),
                   "peak_rss_mb": peak_rss_mb,
                   "speed_rel_err": statistics.median(worst[:min_bodies])}
        listed = spec["end_to_end"]
    missing_metrics = [m["name"] for m in listed if m["name"] not in metrics]
    if missing_metrics:
        raise HarnessError(f"metrics not computed: {missing_metrics}")

    correct = outcome.correct and not problems
    fail_frac = outcome.failed / outcome.attempted
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "scale": args.scale, "env": env, "body_runs": len(walls),
        "walls_s": walls, "traced_walls_s": traced_walls,
        "result_digests": digests, "results": summaries,
        "fail_frac": fail_frac, "failures": sorted(set(outcome.failures)),
        "missing": outcome.missing, "problems": problems,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in listed},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result_{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload}  seed {args.seed}  body runs {len(walls)}"
          f"{'  traced runs ' + str(len(traced_walls)) if tracer else ''}")
    for m in listed:
        print(f"  {m['name']:32s} {metrics[m['name']]:16.6g} {m['unit']}")
    print(f"  {'fail_frac':32s} {fail_frac:16.6g} 1   "
          f"({outcome.failed} of {outcome.attempted} operations)")
    for name in sorted(set(outcome.failures)):
        print(f"  failed: {name}")
    for name in outcome.missing + problems:
        print(f"MISSING OR INCONSISTENT: {name}", file=sys.stderr)
    print(json.dumps({
        "correct": bool(correct), "attempted": outcome.attempted, "failed": outcome.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in listed}}))


def run_all(args, spec):
    """Each workload in its own process; one table of every metric."""
    names = [w["name"] for w in spec["workloads"]]
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    rows, ok = {}, True
    for name in names:
        proc = subprocess.run(
            [sys.executable, str(pathlib.Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--scale", args.scale],
            cwd=ROOT, capture_output=True, text=True, timeout=WORKLOAD_TIMEOUT_S)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited {proc.returncode} without a result", file=sys.stderr)
            ok = False
            continue
        rows[name] = json.loads(lines[-1])
        report = json.loads((OUT / f"result_{name}_seed{args.seed}_trace{args.trace}.json")
                            .read_text(encoding="utf-8"))
        rows[name]["fail_frac"] = report["fail_frac"]
        if not rows[name]["correct"]:
            print(f"{name}: NOT CORRECT {report['missing'] + report['problems']}",
                  file=sys.stderr)
            ok = False
    print(f"{'metric':32s} {'unit':6s} " + " ".join(f"{n:>20s}" for n in rows))
    for m in listed:
        print(f"{m['name']:32s} {m['unit']:6s} " + " ".join(
            f"{r['metrics'][m['name']]['value']:20.6g}" for r in rows.values()))
    print(f"{'fail_frac':32s} {'1':6s} " + " ".join(
        f"{r['fail_frac']:20.6g}" for r in rows.values()))
    print(f"{'correct':32s} {'':6s} " + " ".join(f"{str(r['correct']):>20s}"
                                                 for r in rows.values()))
    return 0 if ok and len(rows) == len(names) else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: 16x32 grids, for the harness self-test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(HERE))
    try:
        if args.setup_probe:
            print(repr(_setup_probe(args.workload, args.seed, args.scale, args.workdir)))
            return 0
        spec = _load_spec()
        if args.workload == "all":
            return run_all(args, spec)
        if args.workload not in {w["name"] for w in spec["workloads"]}:
            raise HarnessError(f"unknown workload {args.workload!r}")
        run_workload(args, spec)
        return 0
    except HarnessError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
