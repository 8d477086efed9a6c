"""Spans recorded from outside the program, and the per-layer metrics built on them.

The traced run replaces a layer's public functions where the consuming module
binds them (``slmcf.flow.splu``, ``slmcf.cli.write_field_csv``, ...) with
wrappers that record a span (name, start, end, parent, run id) per call.  The
wrapped function runs unchanged on the same arguments, so results are
bit-identical to the untraced run.  ``NullTracer`` is used when tracing is off:
no wrapper is installed and the harness's own spans cost one call each.
"""

from __future__ import annotations

import contextlib
import json
import os
import pathlib
import time


class NullTracer:
    @contextlib.contextmanager
    def span(self, name):
        yield


class _TracedLU:
    """Stands in for a SuperLU object: times ``solve`` and keeps ``nnz``."""

    def __init__(self, lu, tracer):
        self._lu = lu
        self._tracer = tracer

    def solve(self, *args, **kwargs):
        with self._tracer.span("lu.solve"):
            return self._lu.solve(*args, **kwargs)

    def __getattr__(self, attr):
        return getattr(self._lu, attr)


# (module, attribute, span name).  The runio and verify entries are the names
# slmcf.cli binds; slmcf.geometry.mean_curvature_field is also wrapped because
# the CLI imports it at call time to rebuild the final curvature of stored runs.
WRAP_POINTS = [
    ("slmcf.flow", "splu", "lu.factor"),
    ("slmcf.flow", "linearized_affine", "operators.assemble"),
    ("slmcf.flow", "flow_operator", "operators.eval"),
    ("slmcf.flow", "mean_curvature_field", "geometry.mean_curvature"),
    ("slmcf.translator", "splu", "lu.factor"),
    ("slmcf.translator", "assemble_operator_matrix", "operators.assemble"),
    ("slmcf.translator", "flow_operator", "operators.eval"),
    ("slmcf.geometry", "mean_curvature_field", "geometry.mean_curvature"),
    ("slmcf.runio", "build_grid", "grid.build"),
    ("slmcf.cli", "run_to_convergence", "flow.run_to_convergence"),
    ("slmcf.cli", "continuation", "translator.continuation"),
    ("slmcf.cli", "load_scenario", "runio.read"),
    ("slmcf.cli", "load_scenario_file", "runio.read"),
    ("slmcf.cli", "read_csv", "runio.read"),
    ("slmcf.cli", "read_field_csv", "runio.read"),
    ("slmcf.cli", "validate_manifest", "runio.read"),
    ("slmcf.cli", "write_series_csv", "runio.write"),
    ("slmcf.cli", "write_energy_csv", "runio.write"),
    ("slmcf.cli", "write_field_csv", "runio.write"),
    ("slmcf.cli", "write_manifest", "runio.write"),
    ("slmcf.cli", "monitor_constants", "verify.monitor_constants"),
    ("slmcf.cli", "render_reports", "verify.render_reports"),
    ("slmcf.cli", "check_ut_max_principle", "verify.check"),
    ("slmcf.cli", "check_spacelike_bound", "verify.check"),
    ("slmcf.cli", "check_maximal_limit", "verify.check"),
    ("slmcf.cli", "check_evo_du_residual", "verify.check"),
    ("slmcf.cli", "check_translator_agreement", "verify.check"),
    ("slmcf.cli", "check_osc_decay", "verify.check"),
]


class Tracer:
    """Keeps spans in memory.  ``start_run`` wraps the layer functions and
    ``end_run`` puts the originals back, so untraced runs see no wrapper."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, run id]
        self.run_id = 0
        self.counts = {}
        self._stack = []
        self._saved = []

    @contextlib.contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        rec = [name, time.perf_counter(), 0.0, parent, self.run_id]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name):
        tracer = self

        if name == "lu.factor":
            def wrapper(*args, **kwargs):
                with tracer.span(name):
                    lu = fn(*args, **kwargs)
                # SuperLU.nnz, not .L/.U: those copy the factors and inflate peak RSS
                tracer.counts["max_fill_nnz"] = max(tracer.counts["max_fill_nnz"], lu.nnz)
                return _TracedLU(lu, tracer)
        elif name == "runio.write":
            def wrapper(path, *args, **kwargs):
                with tracer.span(name):
                    out = fn(path, *args, **kwargs)
                tracer.counts["files_written"] += 1
                tracer.counts["bytes_written"] += os.stat(path).st_size
                return out
        else:
            def wrapper(*args, **kwargs):
                with tracer.span(name):
                    return fn(*args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def start_run(self, modules):
        """Begin a new traced run: fresh counters, wrappers installed."""
        self.run_id += 1
        self.counts = {"max_fill_nnz": 0, "files_written": 0, "bytes_written": 0}
        for module_name, attr, name in WRAP_POINTS:
            module = modules[module_name]
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))

    def end_run(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def write(self, path):
        path = pathlib.Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for k, (name, start, end, parent, run) in enumerate(self.spans):
                fh.write(json.dumps({"id": k, "name": name, "start": start, "end": end,
                                     "parent": parent, "run": run}) + "\n")


def _self_times(spans):
    """Per span: duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(end - start) - child[k] for k, (_, start, end, _, _) in enumerate(spans)]


def layer_metrics(spans, run_id, counts, result):
    """Per-layer metrics of the traced run ``run_id``.

    ``counts`` holds the tracer's counters for that run and ``result`` is the
    body's result dict, which supplies the step and Newton counts.
    """
    selfs = _self_times(spans)
    mine = [k for k, s in enumerate(spans) if s[4] == run_id]
    index = {}
    for k in mine:
        index.setdefault(spans[k][0], []).append(k)

    def count(name):
        return len(index.get(name, []))

    def total(name):
        return sum(spans[k][2] - spans[k][1] for k in index.get(name, []))

    def self_total(prefix):
        return sum(selfs[k] for k in mine if spans[k][0].startswith(prefix))

    def under(k, prefix):
        """Whether span k runs inside a span whose name starts with ``prefix``."""
        p = spans[k][3]
        while p >= 0:
            if spans[p][0].startswith(prefix):
                return True
            p = spans[p][3]
        return False

    flow_solves = sum(1 for k in index.get("lu.solve", []) if under(k, "flow."))
    flow_factors = sum(1 for k in index.get("lu.factor", []) if under(k, "flow."))
    steps = int(result.get("flow_steps", 0))
    verify_total = sum(spans[k][2] - spans[k][1] for k in mine
                       if spans[k][0].startswith("verify."))
    return {
        "lu.factor_calls": count("lu.factor"),
        "lu.factor_s": total("lu.factor"),
        "lu.fill_nnz": counts["max_fill_nnz"],
        "lu.solve_calls": count("lu.solve"),
        "lu.solve_s": total("lu.solve"),
        "flow.steps": steps,
        "flow.rejected": flow_solves - steps,
        "flow.accept_ratio": steps / flow_solves if flow_solves else 0.0,
        "flow.steps_per_factor": steps / flow_factors if flow_factors else 0.0,
        "flow.self_s": self_total("flow."),
        "translator.eps_levels": int(result.get("eps_levels", 0)),
        "translator.newton_iters": int(result.get("newton_iters", 0)),
        "translator.residual_evals": sum(
            1 for k in index.get("operators.eval", []) if under(k, "translator.")),
        "translator.self_s": self_total("translator."),
        "operators.eval_calls": count("operators.eval"),
        "operators.eval_s": total("operators.eval"),
        "operators.assemble_calls": count("operators.assemble"),
        "operators.assemble_s": total("operators.assemble"),
        "geometry.mean_curvature_calls": count("geometry.mean_curvature"),
        "geometry.mean_curvature_s": total("geometry.mean_curvature"),
        "runio.write_s": total("runio.write"),
        "runio.read_s": self_total("runio.read"),
        "runio.files": counts["files_written"],
        "runio.bytes_written": counts["bytes_written"],
        "verify.s": verify_total,
        "verify.checks": count("verify.check"),
        "cli.self_s": self_total("cli."),
        "grid.build_s": total("grid.build"),
    }
