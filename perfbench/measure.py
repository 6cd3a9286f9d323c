"""Measuring process: replays one workload's repetition in a closed loop.

Run by ``run.py`` as ``python3 perfbench/measure.py SPEC.json``. It imports
only ``peierls`` and numpy, so its peak memory is the program's own. The
last line of its output is a JSON object with every point's status,
outputs and time, per repetition; checking them is the parent's job.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time

import numpy as np

import peierls
from peierls import finite_chain, sweep, thermodynamic

import tracer

_perf = time.perf_counter


def _call(fn: str, a: dict) -> dict:
    if fn == "bifurcation_data":
        b = thermodynamic.bifurcation_data(a["mu"])
        return {k: getattr(b, k) for k in ("A", "B", "C_int", "det_J", "delta_prime", "coeff")}
    if fn == "chain_free_energy":
        cfg = finite_chain.HoppingConfig(np.array(a["t"]))
        p = finite_chain.ModelParams(mu=a["mu"], theta=a["theta"])
        return {"value": finite_chain.chain_free_energy(cfg, p)}
    if fn == "chain_energy_zero":
        cfg = finite_chain.HoppingConfig(np.array(a["t"]))
        return {"value": finite_chain.chain_energy_zero(cfg, a["mu"])}
    if fn == "minimize_chain_full":
        p = finite_chain.ModelParams(mu=a["mu"], theta=a["theta"], L=a["L"])
        return {"t": finite_chain.minimize_chain_full(p, n_starts=a["n_starts"]).t.tolist()}
    if fn == "minimize_dimer_finite":
        p = finite_chain.ModelParams(mu=a["mu"], theta=a["theta"], L=a["L"])
        state, value = finite_chain.minimize_dimer_finite(p)
        return {"W": state.W, "delta": state.delta, "value": value}
    raise ValueError(f"unknown call {fn!r}")


def run_step(index: int, step: dict, out_dir: str, workers: int | None) -> dict:
    """One step, timed; ``workers`` overrides the step's worker count."""
    if step["op"] == "call":
        if tracer.ACTIVE is not None:
            tracer.ACTIVE.point_id = f"{step['fn']}#{index}"
        t0 = _perf()
        try:
            point = {"status": "ok", "outputs": _call(step["fn"], step["args"])}
        except (ValueError, RuntimeError) as err:
            point = {"status": f"error: {err}", "outputs": {}}
        wall = _perf() - t0
        point["seconds"] = wall
        return {"wall_s": wall, "points": [point]}

    path = os.path.join(out_dir, f"step{index}-{step['kind']}.csv")
    spec = sweep.SweepSpec(kind=step["kind"], grid=[tuple(p) for p in step["grid"]],
                           output_path=path, workers=workers or step["workers"])
    t0 = _perf()
    rows = sweep.run_sweep(spec)
    sweep.emit_csv(rows, path)
    wall = _perf() - t0
    points = []
    for row in rows:
        seconds = getattr(row, "bench_seconds", None)
        if seconds is None:
            raise RuntimeError("sweep rows came back without per-point times")
        points.append({"status": row.status, "outputs": row.outputs, "seconds": seconds})
    with open(path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    return {"wall_s": wall, "sweep": True, "csv_sha256": digest, "points": points}


def run_rep(steps, out_dir, workers=None) -> dict:
    t0 = _perf()
    results = [run_step(i, s, out_dir, workers) for i, s in enumerate(steps)]
    return {"wall_s": _perf() - t0, "steps": results}


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; pool workers are waited-for children
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def _sweep_wall(rep) -> float:
    return sum(s["wall_s"] for s in rep["steps"] if s.get("sweep"))


# every point gets at least this many timings to take the fastest of
MIN_REPS = 3


def measure(spec: dict) -> dict:
    steps, out_dir, seconds = spec["steps"], spec["out_dir"], spec["seconds"]
    reps = []
    start = _perf()
    while len(reps) < MIN_REPS or _perf() - start < seconds:
        reps.append(run_rep(steps, out_dir))
    return {"reps": reps, "peak_rss_mb": _peak_rss_mb()}


def _calibration(tr: tracer.Tracer) -> dict:
    tr.clear()
    tr.point_id = "calibration"
    thermodynamic.minimize_dimer_thermo(finite_chain.ModelParams(mu=2.0, theta=0.1))
    snap = tr.snapshot()
    tr.clear()
    return {"objective_evals": snap.get("numerics.minimize_box.objective_evals", 0),
            "integrand_evals": snap.get("numerics.integrate_adaptive.integrand_evals", 0)}


def measure_traced(spec: dict) -> dict:
    """Untraced repetitions at the workload's and at one worker, then traced ones at one."""
    steps, out_dir, seconds = spec["steps"], spec["out_dir"], spec["seconds"]
    start = _perf()
    plain = run_rep(steps, out_dir)
    serial = run_rep(steps, out_dir, workers=1) if spec["workers"] > 1 else plain
    tr = tracer.Tracer()
    tr.install()
    tracer.ACTIVE = tr
    try:
        calibration = _calibration(tr)
        traced, per_rep = [], []
        while not traced or _perf() - start < seconds:
            tr.clear()
            traced.append(run_rep(steps, out_dir, workers=1))
            per_rep.append(tr.snapshot())
    finally:
        tracer.ACTIVE = None
        tr.uninstall()
    tr.write_spans(os.path.join(out_dir, "spans.csv"))
    pooled = [i for i, s in enumerate(steps) if s.get("workers", 1) > 1]
    # wall at N workers minus the ideal share of the wall at one worker
    pool_overhead = sum((plain["steps"][i]["wall_s"]
                         - serial["steps"][i]["wall_s"] / steps[i]["workers"] for i in pooled), 0.0)
    return {"reps": [plain, serial, *traced] if serial is not plain else [plain, *traced],
            "serial_wall_s": serial["wall_s"], "sweep_wall_s": _sweep_wall(plain),
            "pool_overhead_s": pool_overhead,
            "traced_wall_s": [r["wall_s"] for r in traced],
            "layers": per_rep, "calibration": calibration}


def main(argv) -> int:
    with open(argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    src = os.path.join(spec["root"], "src")
    if not os.path.abspath(peierls.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"peierls imported from {peierls.__file__}, not from {src}", file=sys.stderr)
        return 2
    tracer.install_point_timer()
    result = measure_traced(spec) if spec["trace"] else measure(spec)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
