"""Command-line front end.

Subcommands: one sweep writing CSV per ``sweep.SWEEP_KINDS`` kind, plus
solve (one point) and constants. Each takes only the flags it reads (a
sweep: its inputs, --out, --workers) and --config, a key=value file keyed
by those flags; any other flag or key is a usage error.

Exit codes: 0 success, 1 usage error, 2 I/O error, 3 every point failed.
"""

from __future__ import annotations

import argparse
import itertools
import math
import os
import sys

from . import finite_chain, thermodynamic
from .sweep import (SWEEP_KINDS, ResultRow, SweepSpec, _dimer, _row, emit_csv, run_sweep,
                    write_rows)

__all__ = ["parse_config", "main"]

_EPILOG = """\
sweep inputs accept a single value (2), a comma list (3,4,5) or an
inclusive range start:stop:step (0.5:8:0.5).

CSV columns per kind:
""" + "".join(f"  {kind:<15}{','.join((*names, *out_names, 'status'))}\n"
              for kind, (names, out_names, _) in SWEEP_KINDS.items()) + """\
  solve          mu,theta[,L],W,delta,value,status
  constants      c1,c2,C,status
"""

# the most points a sweep grid may hold, in one range and in the product
MAX_GRID_POINTS = 10 ** 6


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        raise UsageError(message)


def _value(tok: str, integer: bool = False):
    """One finite number, an int where ``integer`` is set ('8.0' reads as 8)."""
    try:
        val = float(tok)
    except ValueError:
        raise UsageError(f"malformed number {tok!r}") from None
    if not math.isfinite(val):
        raise UsageError(f"expected a finite number, got {tok!r}")
    if integer:
        if val != int(val):
            raise UsageError(f"expected an integer, got {tok!r}")
        return int(val)
    return val


def _parse_range(text: str, integer: bool = False) -> list:
    """Expand '2', '3,4,5' or 'start:stop:step' (endpoints within half-step).

    Every number, range parts included, is read by :func:`_value`. A range
    longer than MAX_GRID_POINTS is rejected before it is built.
    """
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise UsageError(f"range must be start:stop:step, got {text!r}")
        start, stop, step = (_value(p, integer) for p in parts)
        if step <= 0 or stop < start:
            raise UsageError(f"bad range {text!r}")
        if not (float(stop) - start) / step < MAX_GRID_POINTS:  # ints may overflow
            raise UsageError(f"range {text!r} has more than {MAX_GRID_POINTS} points")
        return list(itertools.takewhile(lambda val: val <= stop + step / 2,
                                        (start + k * step for k in itertools.count())))
    return [_value(tok, integer) for tok in text.split(",") if tok != ""]


def _read_config(path: str, keys) -> dict:
    values = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
                key, _, val = line.partition("=")
                key = key.strip()
                if key not in keys:
                    raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
                values[key] = val.strip()
    except OSError as err:
        raise UsageError(f"cannot read config file {path}: {err}") from None
    return values


def _build_parser() -> _Parser:
    parser = _Parser(prog="peierls",
                     description="Dimerized tight-binding rings: free-energy "
                                 "minima, critical temperatures, bifurcations.",
                     epilog=_EPILOG,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="kind", required=True)
    helps = {"mu": "stiffness", "theta": "temperature", "L": "even ring length",
             "out": "output CSV path (default stdout for solve/constants)",
             "workers": "parallel workers (default: cpu count)"}
    # each command's flags, --config aside
    commands = {kind: (*names, "out", "workers") for kind, (names, _, _) in SWEEP_KINDS.items()}
    commands.update(solve=("mu", "theta", "L", "out"), constants=("out",))
    for kind, flags in commands.items():
        p = sub.add_parser(kind, epilog=_EPILOG,
                           formatter_class=argparse.RawDescriptionHelpFormatter)
        for flag in flags:
            p.add_argument(f"--{flag}", help=helps[flag])
        p.add_argument("--config", help="key=value defaults file; flags override")
    return parser


def _parse(argv) -> tuple[str, dict]:
    """argv to the command and its options, flags over --config values."""
    args = _build_parser().parse_args(argv)
    opts = {k: v for k, v in vars(args).items() if k not in ("kind", "config")}
    if args.config:
        for key, val in _read_config(args.config, opts).items():
            if opts.get(key) is None:
                opts[key] = val
    return args.kind, opts


def _sweep_spec(kind: str, opts: dict) -> SweepSpec:
    """A sweep command's options to a validated SweepSpec.

    The grid is the product of the kind's input ranges, in SWEEP_KINDS
    order (the first input varies slowest).
    """
    ranges = []
    for key in SWEEP_KINDS[kind][0]:
        if opts.get(key) is None:
            raise UsageError(f"{kind} requires --{key}")
        ranges.append(_parse_range(opts[key], integer=key == "L"))
    if math.prod(map(len, ranges)) > MAX_GRID_POINTS:
        raise UsageError(f"{kind} grid has more than {MAX_GRID_POINTS} points")
    grid = list(itertools.product(*ranges))

    if opts.get("out") is None:
        raise UsageError(f"{kind} requires --out")
    workers = opts.get("workers")
    workers = (os.cpu_count() or 1) if workers is None else _value(workers, integer=True)
    try:
        return SweepSpec(kind=kind, grid=grid, output_path=opts["out"], workers=workers)
    except ValueError as err:
        raise UsageError(str(err)) from None


def parse_config(argv) -> SweepSpec:
    """Tokens (plus an optional key=value file) to a validated SweepSpec."""
    kind, opts = _parse(argv)
    if kind not in SWEEP_KINDS:
        raise UsageError(f"{kind} is not a sweep command")
    return _sweep_spec(kind, opts)


def _solve_rows(opts) -> list[ResultRow]:
    if opts.get("mu") is None or opts.get("theta") is None:
        raise UsageError("solve requires --mu and --theta")
    mu, theta = _value(opts["mu"]), _value(opts["theta"])
    L = None if opts.get("L") is None else _value(opts["L"], integer=True)
    if theta <= 0:
        raise UsageError(f"solve needs theta > 0, got {theta}")
    try:
        params = finite_chain.ModelParams(mu=mu, theta=theta, L=L)
    except ValueError as err:
        raise UsageError(str(err)) from None
    inputs = {"mu": mu, "theta": theta, **({} if L is None else {"L": L})}
    return [_row(inputs, ("W", "delta", "value"), _dimer, params)]


def _constants_rows() -> list[ResultRow]:
    c = thermodynamic.asymptotic_constants()
    return [ResultRow(inputs={}, outputs={"c1": c.c1, "c2": c.c2, "C": c.C_prefactor})]


def main(argv=None) -> int:
    try:
        kind, opts = _parse(argv)
        if kind in SWEEP_KINDS:
            rows = run_sweep(_sweep_spec(kind, opts))
        else:
            rows = _solve_rows(opts) if kind == "solve" else _constants_rows()
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1

    out_path = opts.get("out")
    try:
        if out_path is None:
            write_rows(rows, sys.stdout)
        else:
            emit_csv(rows, out_path)
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return 2
    return 3 if all(row.status != "ok" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
