"""Self-test of the benchmark on tiny grids: python3 perfbench/selftest.py

Checks that every metric is printed by name with its unit, that a
perturbed output is counted as failed, that traced and untraced runs
write byte-identical sweep CSVs, that counts repeat exactly across two
traced runs, and that the benchmark refuses to run without the sources.
Takes about a minute; exits 0 when every check passes.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

import run
import workloads

TINY = [
    {"op": "call", "fn": "bifurcation_data", "args": {"mu": 2.0}},
    {"op": "sweep", "kind": "bifurcation", "workers": 1, "grid": [[2.0, 0.15], [2.0, 0.25]]},
    {"op": "sweep", "kind": "phase-diagram", "workers": 2, "grid": [[1.0], [2.0], [17.75]]},
    {"op": "sweep", "kind": "gap", "workers": 1, "grid": [[2.0], [3.0]]},
    {"op": "call", "fn": "chain_free_energy",
     "args": {"t": [0.9, 1.1, 0.8, 1.2, 1.0, 0.95, 1.05, 1.3], "mu": 2.0, "theta": 0.1}},
    {"op": "call", "fn": "chain_energy_zero",
     "args": {"t": [0.9, 1.1, 0.8, 1.2, 1.0, 0.95, 1.05, 1.3], "mu": 2.0}},
    {"op": "call", "fn": "minimize_chain_full",
     "args": {"mu": 1.0, "theta": 0.05, "L": 4, "n_starts": 1}},
    {"op": "call", "fn": "minimize_dimer_finite", "args": {"mu": 2.0, "theta": 0.05, "L": 8}},
    {"op": "sweep", "kind": "finite-thetac", "workers": 1, "grid": [[2.0, 6], [2.0, 8], [2.0, 30]]},
    {"op": "sweep", "kind": "mu-critical", "workers": 1, "grid": [[6], [10]]},
]

failures = []


def check(ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {what}")
    if not ok:
        failures.append(what)


def _declared():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]})


def _counts(summary):
    return {k: v["value"] for k, v in summary["metrics"].items()
            if v["unit"] == "count"}


def main() -> int:
    end_to_end, per_layer = _declared()
    plain = run.evaluate("selftest", TINY, 0.0, trace=False)
    traced = run.evaluate("selftest", TINY, 0.0, trace=True)
    again = run.evaluate("selftest", TINY, 0.0, trace=True)

    for ev, declared, label in ((plain, end_to_end, "trace 0"), (traced, per_layer, "trace 1")):
        metrics = ev["summary"]["metrics"]
        check({n: m["unit"] for n, m in metrics.items()} == declared,
              f"{label}: metrics and units match BENCHMARK.json")
        check(all(any(ln.strip().startswith(f"{n} = ") and ln.rstrip().endswith(f" {u}")
                      for ln in ev["lines"]) for n, u in declared.items()),
              f"{label}: every metric printed by name with its unit")
        check(all(isinstance(m["value"], (int, float)) for m in metrics.values()),
              f"{label}: every value is a number")

    s = plain["summary"]
    reps = len(plain["result"]["reps"])
    check(s["correct"] and s["failed"] == reps and s["attempted"] == 17 * reps,
          "only the known-defect point (phase-diagram mu = 17.75) fails")

    # a perturbed output must count as failed and mark the run incorrect
    perturbed = copy.deepcopy(plain["result"]["reps"])
    row = perturbed[0]["steps"][1]["points"][0]["outputs"]
    row["value"] += 1e-6
    gate = workloads.Gate()
    _, failed, unexpected, _ = run.judge(TINY, perturbed, gate)
    check(failed == s["failed"] + 1 and len(unexpected) == 1,
          "a perturbed output is counted as failed")

    digests = lambda ev: [[st.get("csv_sha256") for st in rep["steps"]] for rep in ev["result"]["reps"]]
    all_digests = digests(plain) + digests(traced)
    check(all(d == all_digests[0] for d in all_digests),
          "untraced, one-worker and traced runs write byte-identical sweep CSVs")

    check(_counts(traced["summary"]) == _counts(again["summary"]),
          "per-layer counts are identical across two traced runs")

    # without the sources the benchmark must refuse to run
    bare = os.path.join(run.OUT, "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "finite-ring",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0 and '"correct"' not in proc.stdout,
          "without src/ it exits non-zero and prints no result")

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
