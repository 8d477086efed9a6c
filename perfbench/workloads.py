"""The three benchmark workloads: seeded inputs, timed bodies and correctness gates.

Each workload is closed-loop: one caller runs the body and waits for its
result.  A run executes at least two bodies; body ``k`` of seed ``s`` gets the
inputs ``inputs(k)`` drawn from ``(s, k)``.  Body 0 of seed 0 is the canonical
scenario; every other body jitters the contact angles and initial-data
amplitudes by a small relative amount, inside the admissible range, so the
radial oracle still applies.

translator_disk128 is the exception: every body solves the canonical
scenario.  The continuation's Newton iteration count changes with the last
bits of its input: 30 to 37 iterations at 128 x 256 for contact angles within
1% of 0.2, about 0.6 s each on a 2-vCPU x86-64 machine.  Jittered inputs
would add that 20% of input-dependent work to the spread of its time-to-c3
across seeds.  catalog48 still runs five jittered translators per body at
48 x 96.

``workload.inputs(k, tracer)`` is set-up, ``workload.body(inputs, tracer)``
is the timed section, ``workload.finish`` and ``workload.check`` run after
it.  ``check`` compares the results with the radial-shooting oracle and with
the ``slmcf verify`` reports, counting operations: every solver run (fails on
a typed ``SlmcfError`` or when it did not converge), every oracle comparison
(fails past the acceptance tolerance) and every ``verify`` check.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import shutil

import numpy as np

# Relative jitter applied to every body but body 0 of seed 0.
PHI_JITTER = 0.01
AMPLITUDE_JITTER = 0.05

# (n_radial, n_angular) of the disk workloads and of the catalog
SIZES = {"full": {"disk": (128, 256), "catalog": (48, 96)},
         "tiny": {"disk": (16, 32), "catalog": (16, 32)}}


class _Jitter:
    def __init__(self, seed, index):
        self.rng = None if (seed, index) == (0, 0) else np.random.default_rng([seed, index])

    def __call__(self, value, rel):
        if self.rng is None:
            return value
        return float(value * (1.0 + rel * self.rng.uniform(-1.0, 1.0)))


@dataclasses.dataclass
class Outcome:
    """What ``check`` found: operation counts, oracle gaps and named failures."""
    attempted: int = 0
    failed: int = 0
    failures: list = dataclasses.field(default_factory=list)
    missing: list = dataclasses.field(default_factory=list)
    oracle_failed: bool = False
    rel_errs: list = dataclasses.field(default_factory=list)   # one list per body

    def op(self, name, ok):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(name)

    def oracle(self, name, value, oracle_c3, tol):
        """Compare a computed speed with the oracle; ``value`` None = run failed."""
        if value is None:
            self.op(f"oracle {name}: no result", False)
            self.oracle_failed = True
            return
        gap = abs(value - oracle_c3)
        self.rel_errs[-1].append(gap / abs(oracle_c3))
        ok = gap < tol
        self.oracle_failed |= not ok
        self.op(f"oracle {name}: gap {gap:.3e} >= tol {tol:.1e}", ok)

    @property
    def correct(self):
        return not self.missing and not self.oracle_failed


def oracle_tolerance(grid):
    """Acceptance tolerance on |speed - oracle c3|: criterion 1's 5e-4 at
    128 x 256, widened to the verify suite's 5 h^2 on coarser grids."""
    return max(5e-4, 5.0 * grid.h ** 2)


def _radial_oracle(sm, config):
    """The radial oracle for a constant-angle disk or chart-circle config, else None."""
    if config["phi"]["kind"] != "constant":
        return None
    dom = config["domain"]
    phi = config["phi"]["value"]
    if dom["kind"] == "disk":
        return sm.oracle.translator_oracle(phi, dom["radius"])
    if dom["kind"] == "chart_circle":
        metric = sm.metrics.get_metric(config["metric"]["id"])
        return sm.oracle.translator_oracle(phi, dom["r0"], metric)
    return None


# -- flow_disk128 / translator_disk128 ---------------------------------------------

class _DiskWorkload:
    """The flow128 acceptance scenario: unit disk, constant phi = 0.2, u0 = 0."""

    def __init__(self, sm, seed, scale, workdir, tracer):
        self.sm = sm
        self.seed = seed
        n_r, n_a = SIZES[scale]["disk"]
        self.domain = sm.domain.build_domain({"kind": "disk", "radius": 1.0}, "flat")
        with tracer.span("grid.build"):
            self.grid = sm.grid.build_grid(self.domain, n_r, n_a)

    jittered = True

    def inputs(self, index, tracer):
        phi = _Jitter(self.seed, index)(0.2, PHI_JITTER) if self.jittered else 0.2
        return {"phi_value": phi,
                "phi": self.sm.grid.ContactAngle({"kind": "constant", "value": phi},
                                                 self.domain),
                "u0": self.sm.grid.GridFunction.constant(self.grid, 0.0)}

    def finish(self, inputs, result):
        pass

    def _check_speed(self, inputs, result, key, out):
        ok = "error" not in result and result.get("converged", True)
        out.op(f"{self.name} run: {result.get('error', 'not converged')}", ok)
        oracle = self.sm.oracle.translator_oracle(inputs["phi_value"], 1.0)
        out.oracle(key, result[key] if ok else None, oracle.c3, oracle_tolerance(self.grid))


class FlowDisk(_DiskWorkload):
    name = "flow_disk128"

    def body(self, inputs, tracer):
        sm = self.sm
        cfg = sm.flow.StepperConfig(tol_speed=1e-7, max_time=10.0, snapshot_interval=25)
        try:
            with tracer.span("flow.run_to_convergence"):
                run = sm.flow.run_to_convergence(inputs["u0"], inputs["phi"], self.grid, cfg)
        except sm.errors.SlmcfError as err:
            return {"error": f"{type(err).__name__}: {err}"}
        return {"speed_estimate": run.speed_estimate, "converged": run.converged,
                "flow_steps": run.state.step_count}

    def check(self, inputs, result, out: Outcome):
        self._check_speed(inputs, result, "speed_estimate", out)


class TranslatorDisk(_DiskWorkload):
    name = "translator_disk128"
    jittered = False   # see the module docstring

    def body(self, inputs, tracer):
        sm = self.sm
        try:
            with tracer.span("translator.continuation"):
                sol = sm.translator.continuation(sm.translator.ContinuationSchedule(),
                                                 inputs["phi"], self.grid)
        except sm.errors.SlmcfError as err:
            return {"error": f"{type(err).__name__}: {err}"}
        return {"c3": sol.c3, "eps_levels": len(sol.newton_iterations),
                "newton_iters": sum(sol.newton_iterations)}

    def check(self, inputs, result, out: Outcome):
        self._check_speed(inputs, result, "c3", out)


# -- catalog48 --------------------------------------------------------------------

def catalog_configs(seed, index, scale):
    """The six flow configs of the catalog; the first two differ only in u0."""
    jit = _Jitter(seed, index)
    grid = dict(zip(("n_radial", "n_angular"), SIZES[scale]["catalog"]))
    stepper = {"tol_speed": 1e-7, "max_time": 10.0, "snapshot_interval": 25}
    flat = {"id": "flat"}
    disk = {"kind": "disk", "radius": 1.0}
    phi_disk = {"kind": "constant", "value": jit(0.2, PHI_JITTER)}
    amp = jit(0.1, AMPLITUDE_JITTER)
    scenarios = [
        ("disk_u0_zero", flat, disk, phi_disk, {"kind": "constant", "value": 0.0}),
        ("disk_u0_bowl", flat, disk, phi_disk,
         {"kind": "polynomial", "terms": [[amp, 2, 0], [amp, 0, 2]]}),
        ("ellipse_fourier", flat, {"kind": "ellipse", "a": 1.5, "b": 1.0},
         {"kind": "fourier", "a0": jit(0.15, PHI_JITTER),
          "cos": [0.0, jit(0.05, AMPLITUDE_JITTER)], "sin": [jit(0.03, AMPLITUDE_JITTER)]},
         None),
        ("sphere_cap", {"id": "sphere"}, {"kind": "chart_circle", "r0": 0.8},
         {"kind": "constant", "value": jit(0.1, PHI_JITTER)}, None),
        ("dome", {"id": "dome"}, {"kind": "chart_circle", "r0": 1.0},
         {"kind": "constant", "value": jit(0.15, PHI_JITTER)}, None),
        ("zero_flux", flat, {"kind": "smooth_convex", "r0": 1.0, "amp": 0.05, "k": 4},
         {"kind": "fourier", "cos": [jit(0.3, AMPLITUDE_JITTER)]}, None),
    ]
    configs = []
    for name, metric, domain, phi, u0 in scenarios:
        config = {"name": name, "metric": metric, "domain": domain, "phi": phi,
                  "grid": grid, "stepper": stepper}
        if u0 is not None:
            config["u0"] = u0
        configs.append(config)
    return configs


# The second disk run shares the first one's translator.
NO_TRANSLATOR = {"disk_u0_bowl"}


def expected_verify_checks(configs, zero_flux_names):
    """Names of the reports ``slmcf verify`` must produce for the catalog."""
    def core(config):
        return json.dumps({k: config[k] for k in ("metric", "domain", "phi", "grid")},
                          sort_keys=True)

    names = []
    for c in configs:
        names += [f"[{c['name']}] ut_max_principle", f"[{c['name']}] spacelike_bound"]
        if c["name"] in zero_flux_names:
            names.append(f"[{c['name']}] maximal_limit")
    for t in configs:
        if t["name"] not in NO_TRANSLATOR:
            names += [f"[{f['name']}+{t['name']}] translator_agreement"
                      for f in configs if core(f) == core(t)]
    names.append("[disk_u0_zero|disk_u0_bowl] osc_decay")
    return names


class Catalog:
    """The CLI path in-process over five scenarios, then one library run_pair."""

    name = "catalog48"

    def __init__(self, sm, seed, scale, workdir, tracer):
        self.sm = sm
        self.seed = seed
        self.scale = scale
        self.workdir = pathlib.Path(workdir)

    def inputs(self, index, tracer):
        """Write the body's scenario files and load them (for run_pair and the oracle)."""
        configs = catalog_configs(self.seed, index, self.scale)
        folder = self.workdir / f"body_{index}"
        folder.mkdir(parents=True, exist_ok=True)
        paths, scenarios = {}, {}
        for c in configs:
            paths[c["name"]] = folder / f"{c['name']}.json"
            paths[c["name"]].write_text(json.dumps(c, indent=2, sort_keys=True) + "\n",
                                        encoding="utf-8")
            scenarios[c["name"]] = self.sm.runio.load_scenario(c)
        return {"configs": configs, "paths": paths, "scenarios": scenarios,
                "runs": folder / "runs"}

    def body(self, inputs, tracer):
        sm = self.sm
        result = {"flow": {}, "translator": {}, "errors": []}
        run_dirs = []
        for c in inputs["configs"]:
            name = c["name"]
            jobs = [("flow", sm.cli.cmd_flow)]
            if name not in NO_TRANSLATOR:
                jobs.append(("translator", sm.cli.cmd_translator))
            for kind, cmd in jobs:
                out = inputs["runs"] / f"{name}_{kind}"
                try:
                    with tracer.span(f"cli.cmd_{kind}"):
                        manifest = cmd(inputs["paths"][name], out)
                except sm.errors.SlmcfError as err:
                    result["errors"].append(f"{kind} {name}: {type(err).__name__}: {err}")
                    continue
                result[kind][name] = manifest["final"]
                run_dirs.append(str(out))
        try:
            with tracer.span("cli.cmd_verify"):
                reports, _ = sm.cli.cmd_verify(run_dirs)
            result["verify"] = {r.name: bool(r.passed) for r in reports}
        except sm.errors.SlmcfError as err:
            result["errors"].append(f"verify: {type(err).__name__}: {err}")
            result["verify"] = {}
        scen_a = inputs["scenarios"]["disk_u0_zero"]
        scen_b = inputs["scenarios"]["disk_u0_bowl"]
        try:
            with tracer.span("flow.run_pair"):
                pair = sm.flow.run_pair(scen_a.u0, scen_b.u0, scen_b.phi, scen_b.grid,
                                        scen_b.stepper)
            with tracer.span("verify.check"):
                osc_decay = bool(sm.verify.check_osc_decay(pair).passed)
            result["pair"] = {"speeds": [pair.run_a.speed_estimate, pair.run_b.speed_estimate],
                              "steps": len(pair.t) - 1, "osc_decay": osc_decay}
        except sm.errors.SlmcfError as err:
            result["errors"].append(f"run_pair: {type(err).__name__}: {err}")
        result["flow_steps"] = (sum(f["steps"] for f in result["flow"].values())
                                + 2 * result.get("pair", {}).get("steps", 0))
        return result

    def finish(self, inputs, result):
        """Outside the timed section: Newton counts from result.json, then clean up."""
        iters = []
        for name in result["translator"]:
            path = inputs["runs"] / f"{name}_translator" / "result.json"
            iters += json.loads(path.read_text(encoding="utf-8"))["newton_iterations"]
        result["eps_levels"] = len(iters)
        result["newton_iters"] = sum(iters)
        shutil.rmtree(inputs["runs"].parent, ignore_errors=True)

    def check(self, inputs, result, out: Outcome):
        configs, scenarios = inputs["configs"], inputs["scenarios"]
        for err in result["errors"]:
            out.op(err, False)
        for name, final in result["flow"].items():
            out.op(f"flow {name}: not converged", final["converged"])
        for name in result["translator"]:
            out.op(f"translator {name}", True)
        zero_flux = {n for n, s in scenarios.items() if abs(s.phi.boundary_integral) <= 1e-8}
        verify = result["verify"]
        out.missing += [f"verify report {n}" for n in expected_verify_checks(configs, zero_flux)
                        if n not in verify]
        for name, passed in verify.items():
            out.op(f"verify {name}", passed)
        pair = result.get("pair")
        if pair is None:
            out.missing.append("run_pair result")
        else:
            out.op("run_pair osc_decay", pair["osc_decay"])
        oracles = {c["name"]: o for c in configs if (o := _radial_oracle(self.sm, c))}
        if len(oracles) != 4:
            out.missing.append(f"radial oracles: got {sorted(oracles)}")
        for name, orc in oracles.items():
            tol = oracle_tolerance(scenarios[name].grid)
            for kind, key in (("flow", "speed_estimate"), ("translator", "c3")):
                if kind == "translator" and name in NO_TRANSLATOR:
                    continue
                final = result[kind].get(name)
                out.oracle(f"{name} {kind}", final[key] if final else None, orc.c3, tol)
        if pair is not None:
            orc = oracles["disk_u0_zero"]
            tol = oracle_tolerance(scenarios["disk_u0_zero"].grid)
            for k, speed in enumerate(pair["speeds"]):
                out.oracle(f"run_pair member {k}", speed, orc.c3, tol)


WORKLOADS = {w.name: w for w in (FlowDisk, TranslatorDisk, Catalog)}
