"""The benchmark's own checks; run from the repository root:

    python3 perfbench/selftest.py

Exits 0 when every check holds, 1 otherwise.  It takes about two minutes:
two short traced runs per workload plus one run in a directory without the
library.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (sets the thread variables before numpy loads)

SEED = run.DEFAULT_SEED
EXACT_COUNTERS = ("solver.iterations", "spaces.rho_evals", "verify.samples")
# the "no change" column of the interaction table, held as counts
MUST_BE_ZERO = {
    "solve": ("families.phi_inv.calls",),
    "norms-2d": ("solver.minimize.calls",),
    "verify-cli": ("solver.minimize.calls",),
}


def _bench(args, cwd):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=400)
    return proc


def _traced(workload):
    proc = _bench(["--workload", workload, "--seed", str(SEED), "--seconds", "1",
                   "--trace", "1"], ROOT)
    if proc.returncode != 0:
        raise AssertionError(f"{workload}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_declared_metrics(failures):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    if [m["name"] for m in declared["end_to_end"]] != [n for n, _ in run.END_TO_END]:
        failures.append("end_to_end names differ between BENCHMARK.json and run.py")
    if sorted(w["name"] for w in declared["workloads"]) != sorted(run.WORKLOADS):
        failures.append("workload names differ between BENCHMARK.json and run.py")
    return {m["name"]: m["unit"] for m in declared["per_layer"]}


def check_traced_runs(per_layer, failures):
    for workload in run.WORKLOADS:
        first, second = _traced(workload), _traced(workload)
        for result in (first, second):
            if not result["correct"]:
                failures.append(f"{workload}: traced run not correct "
                                f"({result['failed']} failed)")
        metrics = {name: m["value"] for name, m in first["metrics"].items()}
        units = {name: m["unit"] for name, m in first["metrics"].items()}
        if units != per_layer:
            failures.append(f"{workload}: per-layer names or units differ from "
                            "BENCHMARK.json")
        for name, value in metrics.items():
            exact = name.endswith((".calls", ".elems")) or name in EXACT_COUNTERS
            if exact and second["metrics"][name]["value"] != value:
                failures.append(f"{workload}: {name} is {value} then "
                                f"{second['metrics'][name]['value']}")
        for name in MUST_BE_ZERO[workload]:
            if metrics.get(name) != 0:
                failures.append(f"{workload}: {name} = {metrics.get(name)}, expected 0")
        print(f"{workload}: traced runs checked "
              f"(overhead {metrics['trace.overhead_s']:.3f} s)", flush=True)


def check_fails_without_library(failures):
    bare = HERE / "_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    proc = _bench(["--workload", "solve", "--seed", str(SEED), "--seconds", "1",
                   "--trace", "0"], bare)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        failures.append("the benchmark did not fail cleanly without src/")


def main():
    failures = []
    per_layer = check_declared_metrics(failures)
    check_fails_without_library(failures)
    check_traced_runs(per_layer, failures)
    for line in failures:
        print("FAIL", line)
    print("selftest", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
