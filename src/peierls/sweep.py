"""Parallel parameter sweeps and CSV emission for the CLI.

``SWEEP_KINDS`` is the one place a sweep kind is declared: its input
columns, its output columns and the one library call that maps a grid
point to its outputs. No numeric logic lives here. Points run in-process
until the sweep has run for ``_POOL_AFTER_S``; the points left then go to a
stateless worker pool, no larger than they are or the CPU count. Rows keep
input order, so output is byte-identical regardless of the worker count.
"""

from __future__ import annotations

import csv
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from . import finite_chain, thermodynamic, zero_temperature

__all__ = ["SweepSpec", "ResultRow", "run_sweep", "emit_csv", "SWEEP_KINDS"]

# a sweep forks its pool only past this much in-process run: on a 2-CPU Xeon a 2-worker pool's
# start, map and shutdown take 10-20 ms, the benchmark's 100-point phase-diagram 11-26 ms
_POOL_AFTER_S = 0.1


def _critical(cp) -> tuple:
    # None is a ring whose critical temperature is zero
    return (0.0, "", "") if cp is None else (cp.theta_c, cp.W_star, cp.x)


def _dimer(params) -> tuple:
    minimize = (thermodynamic.minimize_dimer_thermo if params.L is None
                else finite_chain.minimize_dimer_finite)
    state, value = minimize(params)
    return state.W, state.delta, value


def _gap(mu) -> tuple:
    r = zero_temperature.dimer_optimum_zero(mu)
    return r.W1, r.f0_per, r.f0, r.gap, r.delta_opt


# kind -> (input columns, output columns, call). The call takes a grid point
# and returns its outputs in column order; it looks the library function up
# when it runs, so wrappers installed on the library's modules see the call.
SWEEP_KINDS = {
    "phase-diagram": (("mu",), ("theta_c", "W_star", "x"),
                      lambda mu: _critical(thermodynamic.theta_critical_thermo(mu))),
    "bifurcation": (("mu", "theta"), ("W", "delta", "value"),
                    lambda mu, theta: _dimer(finite_chain.ModelParams(mu=mu, theta=theta))),
    "gap": (("mu",), ("W1", "f0_per", "f0", "gap", "delta_opt"), _gap),
    "finite-thetac": (("mu", "L"), ("theta_c", "W_star", "x"),
                      lambda mu, L: _critical(finite_chain.theta_critical_finite(mu, int(L)))),
    "mu-critical": (("L",), ("mu_c",), lambda L: (finite_chain.mu_critical(int(L)),)),
}


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
        # True is an int and 2.5 compares, but the pool takes neither
        if isinstance(w := self.workers, bool) or not isinstance(w, (int, np.integer)) or w < 1:
            raise ValueError(f"workers must be an integer >= 1, got {w!r}")
        names = SWEEP_KINDS[self.kind][0]
        for point in self.grid:
            if len(point) != len(names):
                raise ValueError(f"{self.kind} expects parameters {names}, got {tuple(point)}")
        # each input column in one vectorized pass; its first bad value is reported
        for j, name in enumerate(names):
            col = np.fromiter(map(itemgetter(j), self.grid), dtype=float, count=len(self.grid))
            m = 4 if self.kind == "mu-critical" else 2  # a good L is m - 2 mod m
            with np.errstate(invalid="ignore"):  # inf % m is nan: a bad L
                bad = ~(col > 0) if name != "L" else (col < 4) | (col % m != m - 2)
            if bad.any():
                val = self.grid[int(bad.argmax())][j]
                if name != "L":
                    raise ValueError(f"{name} must be positive, got {val}")
                if val % 2 or val < 4:
                    raise ValueError(f"L must be an even integer >= 4, got {val}")
                raise ValueError(f"mu-critical needs L = 2 mod 4, got {val}")

@dataclass(frozen=True)
class ResultRow:
    inputs: dict
    outputs: dict
    status: str = "ok"


def _row(inputs: dict, out_names: tuple, call, *args) -> ResultRow:
    """``call(*args)`` under ``out_names``; a ValueError, ArithmeticError or
    RuntimeError: an error row."""
    try:
        return ResultRow(inputs=inputs, outputs=dict(zip(out_names, call(*args))))
    except (ValueError, ArithmeticError, RuntimeError) as err:
        return ResultRow(inputs=inputs, outputs=dict.fromkeys(out_names, ""),
                         status=f"error: {err}")


def _point_row(task) -> ResultRow:
    kind, point = task
    names, out_names, call = SWEEP_KINDS[kind]
    return _row(dict(zip(names, point)), out_names, call, *point)


def run_sweep(spec: SweepSpec) -> list[ResultRow]:
    """Evaluate every grid point; failures become error rows, not aborts."""
    tasks, rows = [(spec.kind, tuple(point)) for point in spec.grid], []
    # a fork pool starts all its workers at once: no more than can run
    cap, due = min(spec.workers, os.cpu_count() or 1), time.perf_counter() + _POOL_AFTER_S
    for i, task in enumerate(tasks):
        if cap > 1 and time.perf_counter() >= due and len(tasks) - i > 1:
            workers = min(cap, len(tasks) - i)
            # a few chunks per worker: a round trip per point costs more than most points
            chunk = math.ceil((len(tasks) - i) / (4 * workers))
            with ProcessPoolExecutor(max_workers=workers) as pool:
                return rows + list(pool.map(_point_row, tasks[i:], chunksize=chunk))
        rows.append(_point_row(task))
    return rows


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
