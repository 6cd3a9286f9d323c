"""Benchmark of the peierls package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` and nothing is installed. Inputs come from the seed
(``workloads.py``). With ``--trace 0`` a measuring process replays the
workload in a closed loop for S seconds and the end-to-end metrics are
reported; with ``--trace 1`` the per-layer metrics are reported instead.
Either way every point is checked against an independent reference
(``reference.py``). The last line printed is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

END_TO_END = {"setup_s": "s", "points_per_s": "1/s", "point_ms_p50": "ms",
              "point_ms_p90": "ms", "peak_rss_mb": "MB"}

# functions whose calls and self time the traced run reports
TRACED_FUNCTIONS = (
    "numerics.integrate_adaptive", "numerics.minimize_box", "numerics.solve_increasing",
    "numerics.eigenvalues_symmetric", "numerics.minimize_multistart",
    "kernels.h_theta", "kernels.h_eval",
    "thermodynamic.minimize_dimer_thermo", "thermodynamic.theta_critical_thermo",
    "thermodynamic.J_thermo", "thermodynamic.bifurcation_data",
    "finite_chain.chain_free_energy", "finite_chain.chain_energy_zero",
    "finite_chain.minimize_dimer_finite", "finite_chain.minimize_chain_full",
    "finite_chain.theta_critical_finite", "finite_chain.J_finite",
    "zero_temperature.dimer_optimum_zero",
)
PER_LAYER = {
    **{f"{fn}.{kind}": unit for fn in TRACED_FUNCTIONS
       for kind, unit in (("calls", "count"), ("self_s", "s"))},
    "numerics.integrate_adaptive.integrand_evals": "count",
    "numerics.integrate_adaptive.evals_per_call": "count",
    "numerics.minimize_box.objective_evals": "count",
    "numerics.minimize_box.budget_exhausted": "count",
    "numerics.minimize_box.objective_evals_per_point": "count",
    "numerics.minimize_box.converged_ratio": "ratio",
    "numerics.solve_increasing.f_evals": "count",
    "sweep.run_sweep.wall_s": "s",
    "sweep.pool_overhead_s": "s",
    "sweep.emit_csv.self_s": "s",
    "cli.parse_config.self_s": "s",
    "cli.import_s": "s",
    "trace.overhead_ratio": "ratio",
    "calibration.mu2_theta0.1.objective_evals": "count",
    "calibration.mu2_theta0.1.integrand_evals": "count",
}

SETUP_PROBES = 5                # before, and again after, the measurement
CHILD_TIMEOUT_S = 150


def _run(cmd, env, timeout):
    """Run a child in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"{cmd[1]} timed out after {timeout} s")
    if proc.returncode != 0:
        raise SystemExit(f"{cmd[1]} exited with {proc.returncode}:\n{err.strip()}")
    return json.loads(out.strip().splitlines()[-1])


def _setup_probes(argv, env):
    """SETUP_PROBES fresh interpreters, each up to the end of argument parsing."""
    probes = []
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        rec = _run([sys.executable, os.path.join(HERE, "setup_probe.py"), *argv], env, 60)
        if not os.path.abspath(rec["module"]).startswith(SRC + os.sep):
            raise SystemExit(f"peierls imported from {rec['module']}, not from {SRC}")
        rec["setup_s"] = rec["done"] - start
        probes.append(rec)
    return probes


def _machine() -> str:
    import numpy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return (f"python {platform.python_version()}, numpy {numpy.__version__}, "
            f"nproc {len(os.sched_getaffinity(0))}, cpu {cpu}")


def judge(steps, reps, gate):
    """(attempted, failed, failures outside the known defect, CSV digests consistent)."""
    attempted, failed, unexpected = 0, 0, []
    digests = {}
    for rep in reps:
        for i, (step, res) in enumerate(zip(steps, rep["steps"])):
            if "csv_sha256" in res:
                digests.setdefault(i, set()).add(res["csv_sha256"])
            for j, point in enumerate(res["points"]):
                attempted += 1
                reason = gate.check(step, j, point["status"], point["outputs"])
                if reason is None:
                    continue
                failed += 1
                where = step["grid"][j] if step["op"] == "sweep" else step["fn"]
                if not gate.known_defect(step, where):
                    unexpected.append(f"step {i} {step.get('kind', step.get('fn'))} {where}: {reason}")
    return attempted, failed, unexpected, all(len(d) == 1 for d in digests.values())


def _serial_steps(steps):
    return [i for i, s in enumerate(steps) if s.get("workers", 1) == 1]


def _end_to_end(result, probes, steps):
    """Each point and each step repeats identically in every repetition, and
    interference from other processes only adds time, so a point's time is
    the fastest of its repetitions, and the throughput divides the points of
    a repetition by the sum over steps of each step's fastest wall time.
    The percentiles cover the points of the one-worker steps only: a pooled
    point's time also measures its sibling worker."""
    reps = result["reps"]
    timings = zip(*[[p["seconds"] for i in _serial_steps(steps) for p in rep["steps"][i]["points"]]
                    for rep in reps])
    deciles = statistics.quantiles([min(t) for t in timings], n=10, method="inclusive")
    step_walls = zip(*[[s["wall_s"] for s in rep["steps"]] for rep in reps])
    points = sum(len(s["points"]) for s in reps[0]["steps"])
    return {"setup_s": statistics.median(p["setup_s"] for p in probes),
            "points_per_s": points / sum(min(walls) for walls in step_walls),
            "point_ms_p50": 1e3 * deciles[4],
            "point_ms_p90": 1e3 * deciles[8],
            "peak_rss_mb": result["peak_rss_mb"]}


def _per_layer(result, probes, steps):
    layers = result["layers"]
    first = layers[0]

    def count(key):
        return first.get(key, 0)

    def self_time(name):
        return statistics.median(rep.get(f"{name}.self_s", 0.0) for rep in layers)

    m = {}
    for fn in TRACED_FUNCTIONS:
        m[f"{fn}.calls"] = count(f"{fn}.calls")
        m[f"{fn}.self_s"] = self_time(fn)
    ia, mb = "numerics.integrate_adaptive", "numerics.minimize_box"
    m[f"{ia}.integrand_evals"] = count(f"{ia}.integrand_evals")
    m[f"{ia}.evals_per_call"] = m[f"{ia}.integrand_evals"] / m[f"{ia}.calls"] if m[f"{ia}.calls"] else 0.0
    m[f"{mb}.objective_evals"] = count(f"{mb}.objective_evals")
    m[f"{mb}.budget_exhausted"] = count(f"{mb}.budget_exhausted")
    points = sum(len(s["grid"]) if s["op"] == "sweep" else 1 for s in steps)
    m[f"{mb}.objective_evals_per_point"] = m[f"{mb}.objective_evals"] / points
    m[f"{mb}.converged_ratio"] = (1.0 - m[f"{mb}.budget_exhausted"] / m[f"{mb}.calls"]
                                  if m[f"{mb}.calls"] else 0.0)
    m["numerics.solve_increasing.f_evals"] = count("numerics.solve_increasing.f_evals")
    m["sweep.run_sweep.wall_s"] = result["sweep_wall_s"]
    m["sweep.pool_overhead_s"] = result["pool_overhead_s"]
    m["sweep.emit_csv.self_s"] = self_time("sweep.emit_csv")
    m["cli.parse_config.self_s"] = statistics.median(p["parse_s"] for p in probes)
    m["cli.import_s"] = statistics.median(p["import_s"] for p in probes)
    m["trace.overhead_ratio"] = statistics.median(result["traced_wall_s"]) / result["serial_wall_s"]
    m["calibration.mu2_theta0.1.objective_evals"] = result["calibration"]["objective_evals"]
    m["calibration.mu2_theta0.1.integrand_evals"] = result["calibration"]["integrand_evals"]
    return m


def evaluate(label: str, steps: list[dict], seconds: float, trace: bool) -> dict:
    """Measure ``steps`` in a fresh process, gate the outputs, compute the metrics.

    Returns the report lines, the summary object and the measuring
    process's raw result.
    """
    workers = max(s.get("workers", 1) for s in steps)
    out_dir = os.path.join(OUT, f"{label}-trace{int(trace)}")
    os.makedirs(out_dir, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, HERE, env.get("PYTHONPATH")) if p)
    probe_argv = workloads.setup_argv(steps, os.path.join(out_dir, "probe.csv"))

    # set-up is probed before and after the measurement, so its median spans the run
    probes = _setup_probes(probe_argv, env)
    spec_path = os.path.join(out_dir, "spec.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump({"root": ROOT, "out_dir": out_dir, "steps": steps, "workers": workers,
                   "seconds": seconds, "trace": trace}, fh)
    result = _run([sys.executable, os.path.join(HERE, "measure.py"), spec_path], env,
                  CHILD_TIMEOUT_S)
    probes += _setup_probes(probe_argv, env)

    attempted, failed, unexpected, same_csv = judge(steps, result["reps"], workloads.Gate())
    if trace:
        metrics, units = _per_layer(result, probes, steps), PER_LAYER
    else:
        metrics, units = _end_to_end(result, probes, steps), END_TO_END

    timed = sum(len(result["reps"][0]["steps"][i]["points"]) for i in _serial_steps(steps))
    lines = [f"machine: {_machine()}",
             f"{label}, trace {int(trace)}, {len(result['reps'])} repetitions "
             f"(pool of {workers} where a sweep is pooled), {timed} one-worker points timed"]
    lines += [f"  {name} = {value!r} {units[name]}" for name, value in metrics.items()]
    lines.append(f"  failed_frac = {failed / attempted!r} ratio ({failed} of {attempted} points)")
    if not same_csv:
        lines.append("  sweep CSVs differ between repetitions")
    lines += [f"  unexpected failure: {line}" for line in unexpected[:10]]
    summary = {"correct": not unexpected and same_csv, "attempted": attempted, "failed": failed,
               "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()}}
    return {"lines": lines, "summary": summary, "result": result}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "peierls", "__init__.py")):
        print(f"no peierls sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    steps = workloads.build(args.workload, args.seed, len(os.sched_getaffinity(0)))
    ev = evaluate(f"{args.workload}-seed{args.seed}", steps, args.seconds, bool(args.trace))
    print("\n".join(ev["lines"]))
    print(json.dumps(ev["summary"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
