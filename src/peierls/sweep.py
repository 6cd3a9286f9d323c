"""Parallel parameter sweeps and CSV emission for the CLI.

Each sweep kind maps to exactly one library operation; no numeric logic
lives here. Points are dispatched to a stateless worker pool and the rows
are re-assembled in input order, so output is byte-identical regardless of
the worker count.
"""

from __future__ import annotations

import csv
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from . import finite_chain, thermodynamic, zero_temperature
from .numerics import ConvergenceError

__all__ = ["SweepSpec", "ResultRow", "run_sweep", "emit_csv", "SWEEP_KINDS"]

# kind -> (input column names, output column names)
SWEEP_KINDS = {
    "phase-diagram": (("mu",), ("theta_c", "W_star", "x")),
    "bifurcation": (("mu", "theta"), ("W", "delta", "value")),
    "gap": (("mu",), ("W1", "f0_per", "f0", "gap", "delta_opt")),
    "finite-thetac": (("mu", "L"), ("theta_c", "W_star", "x")),
    "mu-critical": (("L",), ("mu_c",)),
}


def _validate_point(kind: str, point: tuple) -> None:
    names = SWEEP_KINDS[kind][0]
    if len(point) != len(names):
        raise ValueError(f"{kind} expects parameters {names}, got {point}")
    vals = dict(zip(names, point))
    if "mu" in vals and not vals["mu"] > 0:
        raise ValueError(f"mu must be positive, got {vals['mu']}")
    if "theta" in vals and not vals["theta"] > 0:
        raise ValueError(f"theta must be positive, got {vals['theta']}")
    if "L" in vals:
        L = vals["L"]
        if L != int(L) or int(L) < 4 or int(L) % 2:
            raise ValueError(f"L must be an even integer >= 4, got {L}")
        if kind == "mu-critical" and int(L) % 4 != 2:
            raise ValueError(
                f"mu-critical needs L = 2 mod 4, got {L}")


@dataclass(frozen=True)
class SweepSpec:
    """A validated sweep: kind, grid, destination, worker count."""

    kind: str
    grid: list
    output_path: str
    workers: int = 1

    def __post_init__(self):
        if self.kind not in SWEEP_KINDS:
            raise ValueError(f"unknown sweep kind {self.kind!r}")
        if not self.grid:
            raise ValueError("sweep grid must not be empty")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        for point in self.grid:
            _validate_point(self.kind, tuple(point))


@dataclass(frozen=True)
class ResultRow:
    inputs: dict
    outputs: dict
    status: str = "ok"


def _compute_point(kind: str, point: tuple) -> dict:
    if kind == "phase-diagram":
        cp = thermodynamic.theta_critical_thermo(point[0])
        return {"theta_c": cp.theta_c, "W_star": cp.W_star, "x": cp.x}
    if kind == "bifurcation":
        mu, theta = point
        state, value = thermodynamic.minimize_dimer_thermo(
            finite_chain.ModelParams(mu=mu, theta=theta))
        return {"W": state.W, "delta": state.delta, "value": value}
    if kind == "gap":
        r = zero_temperature.dimer_optimum_zero(point[0])
        return {"W1": r.W1, "f0_per": r.f0_per, "f0": r.f0,
                "gap": r.gap, "delta_opt": r.delta_opt}
    if kind == "finite-thetac":
        mu, L = point
        cp = finite_chain.theta_critical_finite(mu, int(L))
        if cp is None:
            return {"theta_c": 0.0, "W_star": "", "x": ""}
        return {"theta_c": cp.theta_c, "W_star": cp.W_star, "x": cp.x}
    if kind == "mu-critical":
        return {"mu_c": finite_chain.mu_critical(int(point[0]))}
    raise ValueError(f"unknown sweep kind {kind!r}")


def _point_row(task) -> ResultRow:
    kind, point = task
    names, out_names = SWEEP_KINDS[kind]
    inputs = dict(zip(names, point))
    try:
        return ResultRow(inputs=inputs, outputs=_compute_point(kind, point))
    except (ValueError, RuntimeError, ConvergenceError) as err:
        return ResultRow(inputs=inputs,
                         outputs={name: "" for name in out_names},
                         status=f"error: {err}")


def run_sweep(spec: SweepSpec) -> list[ResultRow]:
    """Evaluate every grid point; failures become error rows, not aborts."""
    tasks = [(spec.kind, tuple(point)) for point in spec.grid]
    if spec.workers == 1:
        return [_point_row(t) for t in tasks]
    # a few chunks per worker: one round trip per point costs more than
    # most points
    chunk = math.ceil(len(tasks) / (4 * spec.workers))
    with ProcessPoolExecutor(max_workers=spec.workers) as pool:
        return list(pool.map(_point_row, tasks, chunksize=chunk))


def _format(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    return f"{float(value):.12g}"


def write_rows(rows, stream) -> None:
    """CSV-encode rows (floats at 12 significant digits) onto a text stream,
    under the first row's column names."""
    columns = list(rows[0].inputs) + list(rows[0].outputs) + ["status"]
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        cells = list(row.inputs) + list(row.outputs) + ["status"]
        if cells != columns:
            raise ValueError("rows are not homogeneous in column names")
        writer.writerow([_format(row.inputs[k]) for k in row.inputs]
                        + [_format(row.outputs[k]) for k in row.outputs]
                        + [row.status])


def emit_csv(rows, path: str) -> None:
    """Write rows to a UTF-8, newline-terminated CSV file."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        write_rows(rows, fh)
