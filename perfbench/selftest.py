"""Fast self-test of the benchmark harness on 16x32 grids.

    python3 perfbench/selftest.py

Checks, for every workload: each metric named in BENCHMARK.json is printed
with its unit for --trace 0 and --trace 1; two runs of seed 0 give identical
results; the traced run reproduces the untraced results bit for bit (the
harness compares them itself and reports correct = false otherwise).  Also
checks that the layer map names exactly the per-layer metrics, and that the
harness exits non-zero without a result where there is no program to
measure.  Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
RUN = [sys.executable, str(HERE / "run.py")]


def _run(workload, trace, cwd=ROOT, script=None):
    cmd = [sys.executable, str(script)] if script else list(RUN)
    cmd += ["--workload", workload, "--seed", "0", "--seconds", "0",
            "--trace", str(trace), "--scale", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []

    def expect(ok, what):
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            problems.append(what)

    layer_map = json.loads((HERE / "layer_map.json").read_text(encoding="utf-8"))
    mapped = [m for layer in layer_map["layers"].values() for m in layer["metrics"]]
    expect(sorted(mapped) == sorted(m["name"] for m in spec["per_layer"]),
           "layer_map.json names exactly the per_layer metrics")
    expect(sorted(layer_map["workloads"]) == sorted(w["name"] for w in spec["workloads"]),
           "layer_map.json describes every workload")

    for w in spec["workloads"]:
        name = w["name"]
        digests = []
        for trace, listed in ((0, spec["end_to_end"]), (0, spec["end_to_end"]),
                              (1, spec["per_layer"])):
            proc = _run(name, trace)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                expect(False, f"{name} trace {trace} exits 0 with a result\n{proc.stderr}")
                continue
            last = json.loads(lines[-1])
            expect(sorted(last) == ["attempted", "correct", "failed", "metrics"],
                   f"{name} trace {trace}: last line has exactly the four keys")
            expect(last["correct"], f"{name} trace {trace}: correct")
            expect(sorted(last["metrics"]) == sorted(m["name"] for m in listed),
                   f"{name} trace {trace}: every listed metric reported")
            expect(all(f" {m['name']} " in proc.stdout and
                       last["metrics"][m["name"]]["unit"] == m["unit"] for m in listed),
                   f"{name} trace {trace}: every metric printed with its unit")
            report = json.loads((OUT / f"result_{name}_seed0_trace{trace}.json")
                                .read_text(encoding="utf-8"))
            digests.append((report["result_digests"],
                            last["metrics"].get("speed_rel_err", {}).get("value")))
        if len(digests) == 3:
            expect(digests[0] == digests[1], f"{name}: seed 0 is deterministic")
            expect(digests[0][0][0] == digests[2][0][0],
                   f"{name}: traced and untraced results agree")

    bare = OUT / "selftest_bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(spec["workloads"][0]["name"], 0, cwd=bare,
                    script=bare / HERE.name / "run.py")
        last = (proc.stdout.strip().splitlines() or [""])[-1]
        expect(proc.returncode != 0 and not last.startswith("{"),
               "without a program the harness exits non-zero and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
