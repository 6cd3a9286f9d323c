"""Acceptance gate: headline quantitative claims at their stated tolerances.

Each test prints one PASS/FAIL line (run with -s to see them as they go).
Every claim is checked in the exact form that a 30-digit mpmath computation
confirms; the expected values below are those stored references, never the
program's own output:

- theta_c(2) is 0.2104400679 on the infinite ring; the figure 0.2112 is
  the value of a ring of L = 36 atoms (criterion 01).
- The large-mu law is theta_c e^(pi mu/4) = C (1 + 4/(pi mu)) up to
  exponentially small terms; the factor W* = 1 + 4/(pi mu) decays only
  like 1/mu, so the bare product misses C by 6-16 % over mu = 8..20
  (criterion 02).
- No order between the moments A and B is claimed: B < A at mu = 2 and 4.
  At the critical point B = -mu theta_c^3 / (2 W*^3) exactly, which makes
  d(delta^2)/d(theta) negative through A < 0 and det J > 0 (criterion 09).
- The mode sum is the trapezoid rule of a smooth periodic integrand and
  converges like e^(-eta L)/L, not like 1/L (criterion 12).
"""

import math
import time

import numpy as np
import scipy.optimize

from peierls.finite_chain import (DimerState, HoppingConfig, ModelParams,
                                  build_hopping_matrix, chain_free_energy,
                                  g_finite, minimize_chain_full,
                                  minimize_dimer_finite, mu_critical,
                                  theta_critical_finite)
from peierls.kernels import electron_free_energy, entropy, h_theta
from peierls.sweep import SweepSpec, emit_csv, run_sweep
from peierls.thermodynamic import (asymptotic_constants, bifurcation_data,
                                   g_thermo, minimize_dimer_thermo,
                                   theta_critical_thermo)
from peierls.zero_temperature import (dimer_optimum_zero, g_zero,
                                      gap_rate_fit, periodic_optimum_zero)


# 30-digit mpmath references (root of J(x) = 2 and the cos^2 equation; the
# complex-singularity distance of the criterion-12 integrand)
THETA_C_MU2 = 0.210440067907
ETA_RIEMANN = 0.256725575994424856894451377354


def _report(num, name, ok, detail=""):
    line = f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_01_critical_temperature_point_value():
    t0 = time.perf_counter()
    theta = theta_critical_thermo(2.0).theta_c
    theta_36 = theta_critical_finite(2.0, 36).theta_c
    elapsed = time.perf_counter() - t0
    ok = (abs(theta - THETA_C_MU2) <= 1e-9 and abs(theta_36 - 0.2112) <= 0.0005
          and elapsed < 1.0)
    _report(1, "theta_c(2) = 0.2104400679 (L = inf), 0.2112 +/- 0.0005 (L = 36)",
            ok, f"theta_c={theta:.10f}, L=36: {theta_36:.6f}, {elapsed:.2f}s")


def test_criterion_02_asymptotic_prefactor():
    # mpmath: the corrected ratio is 0.6138087 at mu = 8 and within 2e-9 of
    # C = 0.6138083 from mu = 12 on; large mu is where an asymptotic law is tested
    t0 = time.perf_counter()
    lo, hi = 0.61385 * 0.98, 0.61385 * 1.02
    ratios = {mu: theta_critical_thermo(mu).theta_c * math.exp(math.pi * mu / 4)
              / (1.0 + 4.0 / (math.pi * mu))
              for mu in (8.0, 10.0, 12.0, 16.0, 20.0)}
    elapsed = time.perf_counter() - t0
    ok = all(lo <= r <= hi for r in ratios.values()) and elapsed < 5.0
    detail = ", ".join(f"mu={m:g}: {r:.5f}" for m, r in ratios.items())
    _report(2, "theta_c * e^(pi mu/4) / (1 + 4/(pi mu)) within 2% of 0.61385",
            ok, detail + f", {elapsed:.2f}s")


def test_criterion_03_constants():
    t0 = time.perf_counter()
    c = asymptotic_constants()
    elapsed = time.perf_counter() - t0
    ok = (abs(c.c1 - 0.8188) <= 0.0005 and abs(c.c2 - 0.512) <= 0.001
          and elapsed < 1.0)
    _report(3, "c1 = 0.8188 +/- 0.0005 and c2 = 0.512 +/- 0.001",
            ok, f"c1={c.c1:.6f}, c2={c.c2:.6f}, {elapsed:.2f}s")


def test_criterion_04_mu_critical_closed_form_and_growth():
    t0 = time.perf_counter()
    exact_six = abs(mu_critical(6) - 1.0 / 3.0) <= 1e-12
    values = [mu_critical(L) for L in range(6, 403, 4)]
    increasing = all(b > a for a, b in zip(values, values[1:]))
    ratio = lambda L: mu_critical(L) / (2 / math.pi * math.log(L))
    r402, r40002 = ratio(402), ratio(40002)
    in_band = 0.85 <= r40002 <= 1.25
    closer = abs(r40002 - 1) < abs(r402 - 1)
    elapsed = time.perf_counter() - t0
    ok = exact_six and increasing and in_band and closer and elapsed < 30.0
    _report(4, "mu_c(6) = 1/3, increasing, ~ (2/pi) ln L",
            ok, f"r402={r402:.4f}, r40002={r40002:.4f}, {elapsed:.1f}s")


def test_criterion_05_variational_identity_and_minimality():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260810)
    lengths = [4, 6, 8]
    identity_ok = True
    minimum_ok = True
    for i in range(50):
        L = lengths[i % 3]
        cfg = HoppingConfig(rng.uniform(0.3, 2.0, L))
        eps = np.linalg.eigvalsh(build_hopping_matrix(cfg))
        for theta in (0.1, 1.0):
            _, occ = electron_free_energy(eps, theta)
            direct = 2 * sum(e * g + theta * entropy(float(g))
                             for e, g in zip(eps, occ))
            closed = -sum(h_theta(e * e, theta) for e in eps)
            identity_ok &= abs(direct - closed) <= 1e-10
            for j in range(L):
                for sgn in (+1, -1):
                    trial = occ.copy()
                    trial[j] = min(1.0, max(0.0, trial[j] + sgn * 1e-3))
                    perturbed = 2 * sum(e * g + theta * entropy(float(g))
                                        for e, g in zip(eps, trial))
                    minimum_ok &= perturbed >= direct - 1e-12
    elapsed = time.perf_counter() - t0
    ok = identity_ok and minimum_ok and elapsed < 10.0
    _report(5, "Fermi-Dirac evaluation identity and minimality",
            ok, f"identity={identity_ok}, minimum={minimum_ok}, {elapsed:.1f}s")


def test_criterion_06_unconstrained_minimizers_are_2_periodic():
    t0 = time.perf_counter()
    results = []
    for mu, L in ((1.0, 4), (2.0, 8)):
        p = ModelParams(mu=mu, theta=0.05, L=L)
        t = minimize_chain_full(p, n_starts=4).t
        dev = max(abs(t[i] - t[(i + 2) % L]) for i in range(L))
        per_atom = chain_free_energy(HoppingConfig(t), p) / L
        _, dimer_val = minimize_dimer_finite(p)
        results.append((dev, abs(per_atom - dimer_val)))
    elapsed = time.perf_counter() - t0
    ok = all(dev < 1e-5 and gap < 1e-8 for dev, gap in results) and elapsed < 60.0
    detail = ", ".join(f"dev={d:.1e}/gap={g:.1e}" for d, g in results)
    _report(6, "full-ring minimizers are 2-periodic", ok, detail + f", {elapsed:.1f}s")


def test_criterion_07_high_temperature_collapse():
    t0 = time.perf_counter()
    ok = True
    worst = 0.0
    for mu in (0.5, 1.0, 2.0, 4.0, 8.0):
        for factor in (1.0, 1.25, 1.6, 2.2, 3.0):
            theta = factor / mu
            s_fin, _ = minimize_dimer_finite(ModelParams(mu=mu, theta=theta, L=8))
            s_th, _ = minimize_dimer_thermo(ModelParams(mu=mu, theta=theta))
            worst = max(worst, s_fin.delta, s_th.delta)
            ok &= s_fin.delta < 1e-8 and s_th.delta < 1e-8
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    _report(7, "delta = 0 whenever theta >= 1/mu (5x5 grid, both models)",
            ok, f"max delta={worst:.1e}, {elapsed:.1f}s")


def test_criterion_08_bifurcation_law():
    t0 = time.perf_counter()
    cp = theta_critical_thermo(2.0)
    coeff = bifurcation_data(2.0).coeff
    eps = np.geomspace(1e-4, 1e-2, 9)
    deltas = np.array([
        minimize_dimer_thermo(ModelParams(mu=2.0, theta=cp.theta_c - e))[0].delta
        for e in eps])
    slope, _ = np.polyfit(np.log(eps), np.log(deltas), 1)
    amplitude = math.exp(float(np.mean(np.log(deltas) - 0.5 * np.log(eps))))
    elapsed = time.perf_counter() - t0
    ok = (abs(slope - 0.5) <= 0.02 and abs(amplitude / coeff - 1.0) <= 0.02
          and elapsed < 60.0)
    _report(8, "delta ~ coeff * sqrt(theta_c - theta)",
            ok, f"slope={slope:.4f}, amp={amplitude:.5f} vs coeff={coeff:.5f}, "
                f"{elapsed:.1f}s")


def test_criterion_09_bifurcation_sign_structure():
    t0 = time.perf_counter()
    checks = {}
    for mu in (1.0, 2.0, 4.0):
        b = bifurcation_data(mu)
        cp = theta_critical_thermo(mu)
        b_exact = -mu * cp.theta_c ** 3 / (2.0 * cp.W_star ** 3)
        checks[mu] = dict(
            negative=b.A < 0 and b.B < 0 and b.C_int < 0,
            b_identity=abs(b.B / b_exact - 1.0) <= 1e-9,
            cauchy=b.B ** 2 <= b.A * b.C_int,
            det=b.det_J > 0,
            slope=b.delta_prime < 0,
        )
    elapsed = time.perf_counter() - t0
    ok = all(all(c.values()) for c in checks.values()) and elapsed < 5.0
    failed = {mu: [k for k, v in c.items() if not v]
              for mu, c in checks.items() if not all(c.values())}
    _report(9, "A,B,C<0, B = -mu theta_c^3/(2W*^3), B^2<=AC, det J>0, Delta'<0 "
               "at mu in {1,2,4}",
            ok, f"failed={failed or 'none'}, {elapsed:.1f}s")


def test_criterion_10_zero_temperature_closed_forms():
    t0 = time.perf_counter()
    ok = True
    for mu in (0.5, 2.0, 8.0):
        W1, f0_per = periodic_optimum_zero(mu)
        # an independent 1-D minimizer of the uniform ring's energy
        r = scipy.optimize.minimize_scalar(
            lambda W, m=mu: g_zero(DimerState(W=W, delta=0.0), m),
            method="bounded", bounds=(0.5, 5.0), options={"xatol": 1e-12})
        ok &= abs(r.x - W1) <= 1e-8 and abs(r.fun - f0_per) <= 1e-8
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 5.0
    _report(10, "1-periodic optimum matches closed form to 1e-8",
            ok, f"{elapsed:.1f}s")


def test_criterion_11_exponential_gap():
    t0 = time.perf_counter()
    gaps = {mu: dimer_optimum_zero(float(mu)).gap for mu in range(1, 7)}
    positive = all(g > 0 for g in gaps.values())
    slope, _ = gap_rate_fit([3.0, 4.0, 5.0, 6.0])
    elapsed = time.perf_counter() - t0
    ok = positive and abs(slope + math.pi / 2) <= 0.08 and elapsed < 60.0
    _report(11, "gap > 0 and ln(gap) slope = -pi/2 +/- 0.08",
            ok, f"slope={slope:.4f} vs {-math.pi/2:.4f}, {elapsed:.1f}s")


def test_criterion_12_riemann_convergence_halving():
    # h(y) = 2 ln(2 cosh sqrt y) has log singularities at cosh sqrt y = 0;
    # the nearest sits at s = pi/2 +/- i eta with
    # eta = asinh(sqrt((delta^2 + (pi theta/2)^2) / (W^2 - delta^2))),
    # so the L-point trapezoid error is ~ e^(-eta L)/L
    t0 = time.perf_counter()
    s = DimerState(W=1.0, delta=0.2)
    ref = g_thermo(s, ModelParams(mu=2.0, theta=0.1))
    diff = lambda L: abs(g_finite(s, ModelParams(mu=2.0, theta=0.1, L=L)) - ref)
    lengths = np.arange(16, 65, 8)
    fit = [math.log(L * diff(int(L))) for L in lengths]
    slope, _ = np.polyfit(lengths, fit, 1)
    tail = [diff(L) for L in (128, 256, 512, 1024)]
    elapsed = time.perf_counter() - t0
    ok = (abs(slope / -ETA_RIEMANN - 1.0) <= 0.05 and max(tail) <= 1e-14
          and elapsed < 5.0)
    _report(12, "|g_finite - g_thermo| ~ e^(-eta L)/L, at roundoff from L = 128",
            ok, f"slope={slope:.4f} vs {-ETA_RIEMANN:.4f}, "
                f"tail={['%.2e' % d for d in tail]}, {elapsed:.1f}s")


def test_criterion_13_sweep_determinism(tmp_path):
    t0 = time.perf_counter()
    grid = [(mu,) for mu in (0.5, 1.0, 1.5, 2.0)]
    outputs = []
    for workers in (1, 8):
        spec = SweepSpec(kind="phase-diagram", grid=grid, workers=workers,
                         output_path=str(tmp_path / f"pd{workers}.csv"))
        emit_csv(run_sweep(spec), spec.output_path)
        outputs.append(open(spec.output_path, "rb").read())
    elapsed = time.perf_counter() - t0
    ok = outputs[0] == outputs[1] and elapsed < 10.0
    _report(13, "run_sweep byte-identical for workers 1 and 8",
            ok, f"{len(outputs[0])} bytes, {elapsed:.1f}s")
