"""The benchmark workloads: seeded inputs and the correctness gate.

A workload is one repetition of steps, replayed in a closed loop. A step
is either a CLI sweep (``run_sweep`` plus ``emit_csv``) or one library
call; every grid point and every call is one "point". Inputs depend only
on the seed. The gate compares each point with ``reference`` and never
runs code from ``peierls``.
"""

from __future__ import annotations

import numpy as np

import reference as ref

DEFAULT_SEED = 1
# kept out of tuning; a claimed gain must also hold on it
HELD_OUT_SEED = 4242

# The bifurcation, phase-diagram and gap sweeps share one workload: CPU speed
# on a shared host shifts in spells of ~30-60 s, so a run must be long to
# time steadily, and a run budget of 4 + 22 runs per workload allows long
# runs for two workloads.
NAMES = ("infinite-ring", "finite-ring")

# mu >= 13.5 puts x = W/theta above ~5e4 at theta_c, where the package's
# split-panel quadrature misses the tanh layer: theta_c leaves its tolerance
# from mu ~ 14.75 on and is 3.4x too large at mu = 20, and some points raise
# on the critical-point residual (17.75, 18.25, ...). These points count as
# failed; a failure elsewhere also marks the run incorrect.
KNOWN_DEFECT_MU = 13.5

# per-column tolerances, with the reason for each
THETA_C_REL = 1e-9       # backward error: the critical point of a stiffness within
                         # this relative distance of mu, i.e. 1e-9 times the condition
                         # number d ln theta_c / d ln mu (large near 2 mu_critical(L))
VALUE_ABS = 1e-10        # minimum energies: quadrature 1e-12, simplex ftol 1e-13
WINDOW_ABS = 1e-10       # (W, delta) may sit anywhere the reference energy is this flat,
                         # which is loose for delta exactly where the landscape is quartic
CLOSED_FORM_REL = 1e-13  # W1 and f0_per are closed forms on both sides
ZERO_T_ABS = 1e-12       # zero-temperature energies and gap: 1e-13 quadrature, the gap
                         # is a difference of two of them
ZERO_T_WINDOW = 1e-12    # delta_opt within this energy of the optimum (gap >= 3e-7 here)
MOMENT_REL = 1e-9        # h'' moments and their algebraic combinations
CHAIN_REL = 1e-11        # ring energies: Jacobi spectra to ~1e-14 of the matrix norm
MU_C_REL = 1e-12         # closed form against the mode mean
PERIODIC_DEV = 1e-5      # full-ring minimizers: criterion 06's 2-periodicity and
FULL_GAP = 1e-8          # energy-agreement thresholds


def _jitter(rng, n):
    # small offsets within each grid cell: every seed gives new inputs but
    # the same mix of cheap and costly points
    return rng.uniform(-0.2, 0.2, n)


def _bifurcation(rng):
    steps = []
    for mu in (2.0, 4.0):
        tc = ref.theta_c_inf(mu)["theta_c"]
        # packed toward theta_c: offsets -0.75 q^2 below and 0.5 q^2 above
        below = -0.75 * ((np.arange(6) + 0.5 + _jitter(rng, 6)) / 6) ** 2
        above = 0.5 * ((np.arange(4) + 0.5 + _jitter(rng, 4)) / 4) ** 2
        thetas = np.sort(tc * (1.0 + np.concatenate([below, above])))
        steps.append({"op": "call", "fn": "bifurcation_data", "args": {"mu": mu}})
        steps.append({"op": "sweep", "kind": "bifurcation", "workers": 1,
                      "grid": [[mu, float(t)] for t in thetas]})
    return steps


def _phase_diagram(rng, workers):
    # the README lattice 0.5:20:0.25 plus one seeded point in each of 21 cells
    lattice = 0.5 + 0.25 * np.arange(79)
    extra = 0.5 + (19.5 / 21) * (np.arange(21) + 0.5 + _jitter(rng, 21))
    mus = np.sort(np.concatenate([lattice, extra]))
    # and one seeded point in each of 50 cells at one worker: these are timed
    # per point, with costs running without gaps from ~2 ms to ~60 ms
    serial = 0.5 + (19.5 / 50) * (np.arange(50) + 0.5 + _jitter(rng, 50))
    return [{"op": "sweep", "kind": "phase-diagram", "workers": workers,
             "grid": [[float(m)] for m in mus]},
            {"op": "sweep", "kind": "phase-diagram", "workers": 1,
             "grid": [[float(m)] for m in serial]}]


def _gap_zero(rng):
    mus = np.clip(1.0 + 0.23 * (np.arange(31) + _jitter(rng, 31)), 1.0, 8.0)
    return [{"op": "sweep", "kind": "gap", "workers": 1,
             "grid": [[float(m)] for m in mus]}]


def _finite_ring(rng):
    steps = []
    # ring spectra on a ladder of lengths, two seeded rings per length, so the
    # per-point costs (Jacobi, ~L^2.3) rise without gaps through the top
    # decile. Lengths stop at 32 (36 ms): on a shared host the fastest time of
    # a call of ~100 ms varied nearly twice as much between 10-second windows as
    # that of a call under ~20 ms, as a long call cannot fit between other
    # tenants' bursts; L = 64, L = 128 and criterion 06's (mu=2, L=8) search
    # are left out for that reason
    for i, L in enumerate(2 * list(range(8, 34, 2))):
        t = rng.uniform(0.6, 1.4, L).tolist()
        mu, theta = float(rng.uniform(1.0, 3.0)), float(rng.uniform(0.02, 0.2))
        if i % 2 == 0:
            steps.append({"op": "call", "fn": "chain_free_energy",
                          "args": {"t": t, "mu": mu, "theta": theta}})
        else:
            steps.append({"op": "call", "fn": "chain_energy_zero", "args": {"t": t, "mu": mu}})
    steps.append({"op": "call", "fn": "minimize_chain_full",
                  "args": {"mu": 1.0, "theta": 0.05, "L": 4, "n_starts": 1}})
    for L in (8, 12, 16):
        steps.append({"op": "call", "fn": "minimize_dimer_finite",
                      "args": {"mu": float(rng.uniform(1.0, 3.0)),
                               "theta": float(rng.uniform(0.02, 0.15)), "L": L}})
    lengths = (6, 8, 14, 16, 30, 32, 64, 126, 128, 256, 510, 512, 1022, 1024)
    # between 2 mu_critical(6) = 0.67 and 2 mu_critical(14) = 1.84, so only
    # L = 6 has theta_c = 0 at every seed
    mus = np.round(np.array([0.75, 1.0, 1.25, 1.5]) + 0.1 * _jitter(rng, 4), 6)
    steps.append({"op": "sweep", "kind": "finite-thetac", "workers": 1,
                  "grid": [[float(m), L] for m in mus for L in lengths]})
    steps.append({"op": "sweep", "kind": "mu-critical", "workers": 1,
                  "grid": [[L] for L in (6, 10, 14, 18, 22, 26, 30, 34, 38, 42, 62, 126, 254,
                                         510, 1022)]})
    return steps


def build(name: str, seed: int, workers: int) -> list[dict]:
    """The steps of one repetition of workload ``name``."""
    rng = np.random.default_rng(seed)
    if name == "infinite-ring":
        return _bifurcation(rng) + _phase_diagram(rng, workers) + _gap_zero(rng)
    if name == "finite-ring":
        return _finite_ring(rng)
    raise ValueError(f"unknown workload {name!r}")


def setup_argv(steps: list[dict], out_path: str) -> list[str]:
    """CLI arguments of the workload's first sweep, for the set-up probe."""
    step = next(s for s in steps if s["op"] == "sweep")
    cols = list(zip(*step["grid"]))
    fmt = lambda vals: ",".join(repr(v) for v in dict.fromkeys(vals))
    kind = step["kind"]
    if kind == "bifurcation":
        args = ["--mu", fmt(cols[0]), "--theta", fmt(cols[1])]
    elif kind == "finite-thetac":
        args = ["--mu", fmt(cols[0]), "--L", fmt(cols[1])]
    elif kind == "mu-critical":
        args = ["--L", fmt(cols[0])]
    else:
        args = ["--mu", fmt(cols[0])]
    return [kind, *args, "--out", out_path, "--workers", str(step["workers"])]


def _rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


class Gate:
    """Judges each point against its reference; results are memoized per output."""

    def __init__(self):
        self._refs = {}
        self._verdicts = {}

    def _ref(self, key, make):
        if key not in self._refs:
            self._refs[key] = make()
        return self._refs[key]

    def known_defect(self, step: dict, point) -> bool:
        return step.get("kind") == "phase-diagram" and point[0] >= KNOWN_DEFECT_MU

    def check(self, step: dict, index: int, status: str, outputs: dict) -> str | None:
        """None if the point is correct, else the reason it failed."""
        key = (id(step), index, status, repr(sorted(outputs.items())))
        if key not in self._verdicts:
            if status != "ok":
                self._verdicts[key] = status
            else:
                self._verdicts[key] = self._judge(step, index, outputs)
        return self._verdicts[key]

    def _judge(self, step, index, out):
        if step["op"] == "sweep":
            point = step["grid"][index]
            return getattr(self, "_" + step["kind"].replace("-", "_"))(point, out)
        return getattr(self, "_call_" + step["fn"])(step["args"], out)

    def _critical(self, key, solve, mu):
        """Reference critical point and the tolerance its conditioning allows."""
        def make():
            r = solve(mu)
            if r["theta_c"] == 0.0:
                return r, 0.0
            kappa = abs(solve(mu * (1 + 1e-6))["theta_c"] / r["theta_c"] - 1.0) / 1e-6
            return r, THETA_C_REL * max(1.0, kappa)
        return self._ref(key, make)

    def _phase_diagram(self, point, out):
        r, tol = self._critical(("inf", point[0]), ref.theta_c_inf, point[0])
        for col in ("theta_c", "W_star", "x"):
            if _rel(out[col], r[col]) > tol:
                return f"{col}={out[col]!r} vs reference {r[col]!r}"
        return None

    def _bifurcation(self, point, out):
        mu, theta = point
        d = ref.Dimer.thermo(mu, theta)
        r = self._ref(("dimer", mu, theta), d.minimum)
        return _minimum_verdict(d, r, out)

    def _gap(self, point, out):
        z = ref.DimerZero(point[0])
        r = self._ref(("zero", point[0]), z.minimum)
        for col in ("W1", "f0_per"):
            if _rel(out[col], r[col]) > CLOSED_FORM_REL:
                return f"{col}={out[col]!r} vs closed form {r[col]!r}"
        for col in ("f0", "gap"):
            if abs(out[col] - r[col]) > ZERO_T_ABS:
                return f"{col}={out[col]!r} vs reference {r[col]!r}"
        d = out["delta_opt"]
        excess = (z.value(z.W_of(d), d) if d > 0 else r["f0_per"]) - r["f0"]
        if excess > ZERO_T_WINDOW:
            return f"delta_opt={d!r} costs {excess:.2e} above the reference optimum"
        return None

    def _finite_thetac(self, point, out):
        mu, L = point
        r, tol = self._critical(("fin", mu, L), lambda m: ref.theta_c_finite(m, int(L)), mu)
        if r["theta_c"] == 0.0:
            ok = out["theta_c"] == 0.0 and out["W_star"] == "" and out["x"] == ""
            return None if ok else f"expected theta_c = 0, got {out!r}"
        for col in ("theta_c", "W_star", "x"):
            if out[col] == "" or _rel(out[col], r[col]) > tol:
                return f"{col}={out[col]!r} vs reference {r[col]!r}"
        return None

    def _mu_critical(self, point, out):
        r = ref.mu_critical(int(point[0]))
        if _rel(out["mu_c"], r) > MU_C_REL:
            return f"mu_c={out['mu_c']!r} vs reference {r!r}"
        return None

    def _call_bifurcation_data(self, args, out):
        r = self._ref(("bif", args["mu"]), lambda: ref.bifurcation_ref(args["mu"]))
        for col in ("A", "B", "C_int", "det_J", "delta_prime", "coeff"):
            if _rel(out[col], r[col]) > MOMENT_REL:
                return f"{col}={out[col]!r} vs reference {r[col]!r}"
        return None

    def _call_chain_free_energy(self, args, out):
        r = ref.chain_free_energy(args["t"], args["mu"], args["theta"])
        return None if _rel(out["value"], r) <= CHAIN_REL else f"{out['value']!r} vs {r!r}"

    def _call_chain_energy_zero(self, args, out):
        r = ref.chain_energy_zero(args["t"], args["mu"])
        return None if _rel(out["value"], r) <= CHAIN_REL else f"{out['value']!r} vs {r!r}"

    def _call_minimize_chain_full(self, args, out):
        t = np.asarray(out["t"])
        L = t.size
        dev = max(abs(t[i] - t[(i + 2) % L]) for i in range(L))
        d = ref.Dimer.finite(args["mu"], args["theta"], L)
        r = self._ref(("fdimer", args["mu"], args["theta"], L), d.minimum)
        gap = abs(ref.chain_free_energy(t, args["mu"], args["theta"]) / L - r["value"])
        if dev > PERIODIC_DEV or gap > FULL_GAP:
            return f"not the 2-periodic minimum: dev={dev:.2e}, energy gap={gap:.2e}"
        return None

    def _call_minimize_dimer_finite(self, args, out):
        d = ref.Dimer.finite(args["mu"], args["theta"], args["L"])
        r = self._ref(("fdimer", args["mu"], args["theta"], args["L"]), d.minimum)
        return _minimum_verdict(d, r, out)


def _minimum_verdict(dimer, r, out):
    if abs(out["value"] - r["value"]) > VALUE_ABS:
        return f"value={out['value']!r} vs reference {r['value']!r}"
    excess = dimer.value(out["W"], out["delta"]) - r["value"]
    if excess > WINDOW_ABS:
        return (f"(W, delta)=({out['W']!r}, {out['delta']!r}) costs {excess:.2e} "
                "above the reference minimum")
    return None

