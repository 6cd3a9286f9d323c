"""Finite even rings: exact free energy, dimer reduction, critical lines.

A ring of L atoms with hopping amplitudes t_1..t_L carries the symmetric
tridiagonal-plus-corners matrix T. The free energy at stiffness mu and
temperature theta is (mu/2) sum (t_i - 1)^2 - Tr h_theta(T^2). Minimizers
are 2-periodic, t_i = W +/- (-1)^i delta, which reduces everything to the
(W, delta) plane; the critical temperature comes from the Euler-Lagrange
system with delta factored out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from . import numerics
from .kernels import _EPS, _sech2, _tanh_eta, _tanh_ratio, h_theta
from .numerics import ConvergenceError, _mode_nodes, _newton_box, _newton_log, lattice_points

__all__ = [
    "ModelParams",
    "HoppingConfig",
    "DimerState",
    "CriticalPoint",
    "build_hopping_matrix",
    "chain_free_energy",
    "chain_energy_zero",
    "g_finite",
    "minimize_chain_full",
    "minimize_dimer_finite",
    "J_finite",
    "mu_critical",
    "theta_critical_finite",
]

# a dimer search below theta_c whose delta falls below this raises: it is unresolved
DELTA_ZERO = 1e-8
# search box for full hopping vectors; physical minimizers have t near 1
T_BOX = (0.05, 3.0)
# Newton steps per start of minimize_chain_full (~55 at theta_c, where F is quartic)
_NEWTON_STEPS = 100
# the validated stiffnesses, checked by _check_mu alone: from _MU_MIN, as J ~ x^3/6
# is summed from terms of size x (x off by ~eps/x^2, 2.3e-11 at 1e-8); with no top
# for a finite ring's theta_c, up to _MU_MAX for the infinite ring's and zero-T
# routines, the tests' largest 30-digit mpmath reference (theta_c = 3.7e-69)
_MU_MIN, _MU_MAX = 1e-8, 200.0
_RING_CACHE = 32  # rings kept by _ring_nodes, ~24 L bytes each: <= 0.8 MB for L <= 1024
# the rounding of mu W - 2 m_c: of mu W and of x solved in ln x
_rounding = lambda mu_W, x: 64.0 * _EPS * abs(mu_W) * max(1.0, math.log(x))


def _check_even_length(L) -> int:
    # the sweeps' rule, L reported as given: 8.0 is 8; None, inf and 8.5 fail
    if L is None or not math.isfinite(L) or L != int(L) or L < 4 or L % 2:
        raise ValueError(f"L must be an even integer >= 4, got {L}")
    return int(L)


@dataclass(frozen=True)
class ModelParams:
    """Stiffness mu, temperature theta, optional even ring length L."""

    mu: float
    theta: float
    L: int | None = None

    def __post_init__(self):
        if not 0 < self.mu < math.inf:
            raise ValueError(f"stiffness must be positive and finite, got {self.mu}")
        if not 0 <= self.theta < math.inf:
            raise ValueError(f"temperature must be finite and >= 0, got {self.theta}")
        if self.L is not None:
            _check_even_length(self.L)


@dataclass(frozen=True)
class HoppingConfig:
    """Positive finite hopping amplitudes around the ring (indices cyclic mod L)."""

    t: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "t", np.asarray(self.t, dtype=float))
        if self.t.ndim != 1 or self.t.size < 4:
            raise ValueError(f"need a vector of >= 4 hoppings, got shape {self.t.shape}")
        if not np.all((self.t > 0) & np.isfinite(self.t)):
            raise ValueError("all hoppings must be positive and finite")


@dataclass(frozen=True)
class DimerState:
    """2-periodic configuration t_i = W + sign * (-1)^i * delta."""

    W: float
    delta: float
    sign: int = 1

    def __post_init__(self):
        if not (self.W >= self.delta >= 0):
            raise ValueError(
                f"need W >= delta >= 0 for positive hoppings, got W={self.W}, delta={self.delta}")
        if self.sign not in (-1, 1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign}")

    def hoppings(self, L: int) -> HoppingConfig:
        L = _check_even_length(L)
        if self.delta >= self.W:
            raise ValueError("W must exceed delta to produce positive hoppings")
        return HoppingConfig(self.W + self.sign * (-1.0) ** np.arange(L) * self.delta)


@dataclass(frozen=True)
class CriticalPoint:
    """Solution (x = W/theta, W*, theta_c) of the critical system."""

    x: float
    W_star: float
    theta_c: float

    def __post_init__(self):
        if min(self.x, self.W_star, self.theta_c) <= 0:
            raise ValueError("critical point components must be positive")
        if abs(self.W_star - self.x * self.theta_c) > 1e-10 * max(1.0, self.W_star):
            raise ValueError("inconsistent critical point: W_star != x * theta_c")


def _periodic_rows(x: float, sin_t, cos_t):
    # x h'(x^2 sin^2 t) = tanh(x sin t)/sin t and its x-derivative
    # sech^2(x sin t), times sin^2 t, and the first times cos^2 t: m_s, dm_s/dx, m_c
    ratio, sin2 = _tanh_ratio(x, sin_t), sin_t ** 2
    return np.stack((ratio * sin2, _sech2(x * sin_t) * sin2, ratio * cos_t ** 2))


def _check_mu(mu: float, top: float) -> None:
    if not (_MU_MIN <= mu <= top and math.isfinite(mu)):  # NaN and inf bracket no root
        raise ValueError(f"validated for finite mu in [{_MU_MIN:g}, {top:g}], got {mu}")


def _start_log_x(mu: float, L: float) -> float:
    """ln x where a ring's theta_c solve starts (L = inf: the infinite ring):
    ln (6 mu)^(1/3) below x = 1 (J ~ x^3/6), else the least of the weak-coupling
    x0 e^(-pi^2/(16 x0^2)), x0 = e^(pi mu/4)/C, and 1 + L mu/4. From mu ~ 891 the
    latter is the least for every L < 1e300, so x0's exponent is capped there."""
    if 6.0 * mu < 1.0:
        return math.log(6.0 * mu) / 3.0
    x0 = math.exp(min(0.25 * math.pi * mu, 700.0) + 2.0 - np.euler_gamma) * (0.125 * math.pi)
    return min(math.log(x0) - math.pi ** 2 / (16.0 * x0 * x0), math.log1p(0.25 * L * mu))


def _critical_point(mu: float, x: float, m_s: float, m_c: float) -> CriticalPoint:
    """A ring's critical point from its root x of J and the means m_s, m_c of
    x h'(x^2 sin^2 t) times sin^2 t and cos^2 t there: mu (W - 1) = 2 m_s and
    mu W = 2 m_c to 1e-8 absolute or, if larger, _rounding(mu W, x).
    From mu ~ 1e152 mu x overflows: W = 0 raises."""
    theta = (mu + 2.0 * m_s) / (mu * x)
    W = x * theta
    residual = mu * W - 2.0 * m_c
    if abs(residual) > max(1e-8, _rounding(mu * W, x)):
        raise RuntimeError(
            f"critical-point equations inconsistent (residual {residual:.3e}); "
            "root solve or kernel evaluation drifted")
    return CriticalPoint(x=x, W_star=W, theta_c=theta)


def build_hopping_matrix(cfg: HoppingConfig) -> np.ndarray:
    """The symmetric ring matrix: T[i, i+1] = t_i with the corner t_L."""
    T = np.diag(cfg.t[:-1], 1)
    T[0, -1] = cfg.t[-1]
    return T + T.T


def _ring_levels(t: np.ndarray) -> np.ndarray:
    """Singular values sigma of an even ring's block B[k, k] = t[2k], B[k+1, k] = t[2k+1] and
    B[0, -1] = t[-1]: with its even sites first, T = [[0, B], [B^T, 0]] has the levels +-sigma."""
    n = _check_even_length(t.size) // 2
    B = np.zeros((n, n))
    B.flat[::n + 1], B.flat[n::n + 1], B[0, -1] = t[::2], t[1:-1:2], t[-1]
    return np.linalg.svd(B, compute_uv=False)


def chain_free_energy(cfg: HoppingConfig, p: ModelParams) -> float:
    """(mu/2) sum (t_i - 1)^2 - 2 sum h_theta(sigma^2) over the levels +-sigma of T."""
    if p.theta <= 0:
        raise ValueError("use chain_energy_zero for theta = 0")
    if p.L not in (None, cfg.t.size):
        raise ValueError(f"L = {p.L} but the ring has {cfg.t.size} hoppings")
    sigma = _ring_levels(cfg.t)
    distortion = 0.5 * p.mu * float(np.sum((cfg.t - 1.0) ** 2))
    return distortion - 2.0 * float(np.sum(h_theta(sigma * sigma, p.theta)))


def chain_energy_zero(cfg: HoppingConfig, mu: float) -> float:
    """Zero-temperature energy: (mu/2) sum (t_i - 1)^2 - 2 sum sigma."""
    if not 0 < mu < math.inf:
        raise ValueError(f"stiffness must be positive and finite, got {mu}")
    return 0.5 * mu * float(np.sum((cfg.t - 1.0) ** 2)) - 2.0 * float(np.sum(_ring_levels(cfg.t)))


def _dimer_band(W: float, delta: float, theta: float):
    """h_theta of the squared levels 4 W^2 cos^2 s + 4 delta^2 sin^2 s, vectorized.

    A function of (sin t, cos t) for t = s - pi/2, so that |cos s| = |sin t|
    keeps full precision at the band center t = 0. Its mean over a period is
    the band part of the energy per atom: the L ring modes give it on the
    L/2 mode nodes (cos^2 has period pi, so the modes pair up), and the
    infinite ring in the limit.
    """
    w2, d2 = 4.0 * W * W, 4.0 * delta * delta
    return lambda sin_t, cos_t: h_theta(w2 * sin_t ** 2 + d2 * cos_t ** 2, theta)


@lru_cache(maxsize=_RING_CACHE)
def _ring_nodes(L: int):
    """Read-only (sin t, cos t, a, b, a b, cos^2 t / a, sum b) on a ring's L/2 mode nodes t,
    built once per L: J's a = |sin t|, b = cos 2t / a, its slope's a b and m_c's weights
    skip the band centre t = 0 (L = 0 mod 4), where tanh(x a) b -> x."""
    t = _mode_nodes(L // 2)
    sin_t, cos_t, off = np.sin(t), np.cos(t), t != 0.0
    a = np.abs(sin_t[off])
    b = np.cos(2.0 * t[off]) / a
    nodes = (sin_t, cos_t, a, b, a * b, cos_t[off] ** 2 / a)
    for v in nodes:
        v.flags.writeable = False
    return (*nodes, float(b.sum()))


def _ring_mean(nodes):
    """The band mean mean(f, eta) on a ring's :func:`_ring_nodes`: np.mean's
    sum / N of f(sin t, cos t) per row of a stack, without the strip eta its
    L -> infinity limit, thermodynamic._band_mean, needs."""
    sin_t, cos_t = nodes[:2]
    return lambda f, eta: (f(sin_t, cos_t).sum(axis=-1) / sin_t.size).tolist()


def _band_energy(W: float, delta: float, mu: float, theta: float, mean) -> float:
    """Energy per atom of the 2-periodic state (W, delta), given the ring's band mean."""
    # h_theta's singularities sit where the squared level reaches
    # -(pi theta)^2; with M = max(W, delta) and m = min(W, delta) that is
    # eta = asinh(sqrt((m^2 + (pi theta/2)^2) / (M^2 - m^2))), and at M = m
    # the integrand is constant
    big, small = max(W, delta), min(W, delta)
    spread = big * big - small * small
    eta = (math.asinh(math.sqrt((small * small + (0.5 * math.pi * theta) ** 2) / spread))
           if spread > 0.0 else math.inf)
    band = mean(_dimer_band(W, delta, theta), eta)
    return 0.5 * mu * ((W - 1.0) ** 2 + delta * delta) - band


def g_finite(s: DimerState, p: ModelParams) -> float:
    """Energy per atom of a 2-periodic ring via the explicit mode sum."""
    if p.theta <= 0:
        raise ValueError("g_finite needs theta > 0")
    return _band_energy(s.W, s.delta, p.mu, p.theta,
                        _ring_mean(_ring_nodes(_check_even_length(p.L))))


def _start_log_W(mu: float, theta: float) -> float:
    """ln W where the 1-periodic root starts: x theta where the positive root x
    of x^3/4 + (mu theta - 1) x = mu (tanh z >= z - z^3/3) is below 1, else the least
    of W1 (m_s < 2/pi) and, for mu theta > 1, mu theta/(mu theta - 1) (tanh z <= z)."""
    p, q = 4.0 * (mu * theta - 1.0), 4.0 * mu  # x^3 + p x = q: a sinh, cosh or cos of a third
    a = 1.5 * q / abs(p) * math.sqrt(3.0 / abs(p)) if p else math.inf
    x = 2.0 * math.sqrt(abs(p) / 3.0) * (
        math.sinh(math.asinh(a) / 3.0) if p > 0 else math.cosh(math.acosh(a) / 3.0) if a >= 1.0
        else math.cos(math.acos(a) / 3.0)) if p else q ** (1.0 / 3.0)
    bound = 1.0 / (1.0 - 1.0 / (mu * theta)) if mu * theta > 1.0 else math.inf
    return math.log(x * theta if 0.0 < x < 1.0 else min(1.0 + 4.0 / (math.pi * mu), bound))


def _minimize_dimer(p: ModelParams, mean):
    """Minimum (DimerState, value) of the band energy over W, delta >= 0, given the
    ring's band mean: W solves mu (W - 1) = 2 m_s by numerics._newton_log in ln W from
    :func:`_start_log_W`, a band mean of :func:`_periodic_rows` a step. As F is convex in
    (W^2, delta^2), delta = 0 is the minimum iff dF/d(delta^2) = (mu W - 2 m_c)/(2W) >= 0
    there, to the _rounding that keeps theta_c 1-periodic; else :func:`_dimer_fan`."""
    def step(u):  # mu (W - 1) - 2 m_s at W = e^u, its slope in u, and (W, x, m_c)
        W = math.exp(u)
        x = W / p.theta
        m_s, dm_s, m_c = mean(partial(_periodic_rows, x), _tanh_eta(x))
        return p.mu * (W - 1.0) - 2.0 * m_s, p.mu * W - 2.0 * x * dm_s, (W, x, m_c)
    W, x, m_c = _newton_log(step, _start_log_W(p.mu, p.theta))[1]
    if p.mu * W - 2.0 * m_c >= -_rounding(p.mu * W, x):
        return DimerState(W=W, delta=0.0), _band_energy(W, 0.0, p.mu, p.theta, mean)
    return _dimer_fan(p, mean)


def _dimer_fan(p: ModelParams, mean):
    """The dimerized minimum: the first lowest numerics.minimize_box minimum of a fan
    of 4 starts, restarted at relative size 1e-6 while it gains 1e-15 (at most 3 times:
    F is quartically flat in delta near theta_c); a delta below DELTA_ZERO raises."""
    w_guess = 1.0 + 4.0 / (math.pi * p.mu)
    f = lambda z: _band_energy(z[0], z[1], p.mu, p.theta, mean)
    starts = [(w_guess, 0.5), (w_guess, 0.05), (w_guess, 0.005), (1.0, 0.3)]  # delta falls
    steps = [(0.2, 0.2), (0.1, 0.03), (0.05, 0.003), (0.2, 0.2)]
    x, fx = min(map(partial(numerics.minimize_box, f), starts, steps), key=lambda r: r[1])
    for _ in range(3):  # a lower restart is kept; one that gains at most 1e-15 is the last
        xp, fp = numerics.minimize_box(f, x, 1e-6 * (1.0 + np.abs(x)))
        x, fx, gained = (xp, fp, fp < fx - 1e-15) if fp < fx else (x, fx, False)
        if not gained:
            break
    if x[1] < DELTA_ZERO:
        raise ConvergenceError(f"delta = {x[1]:.3e} below theta_c is under the simplex's "
                               f"resolution {DELTA_ZERO:g}", best=(x, fx))
    return DimerState(W=float(x[0]), delta=float(x[1])), float(fx)


def minimize_dimer_finite(p: ModelParams):
    """Minimize the ring's per-atom energy over W, delta >= 0: (DimerState, value).

    mu >= 1e-8, with no top, but below theta_c it raises ConvergenceError for
    mu < 1e-7; a 2-mod-4 ring past 2 mu_critical(L) is 1-periodic at every theta.
    """
    if p.theta <= 0:
        raise ValueError("minimize_dimer_finite needs theta > 0")
    L = _check_even_length(p.L)
    _check_mu(p.mu, math.inf)
    return _minimize_dimer(p, _ring_mean(_ring_nodes(L)))


def _ring_derivatives(t: np.ndarray, mu: float, theta: float):
    """F(t) = (mu/2) sum (t_i - 1)^2 - Tr f(T), its gradient and Hessian, by one eigh.

    f(e) = h_theta(e^2) = 2 theta ln 2cosh(e/2theta), f' = tanh(e/2theta) and
    f'' = sech^2(e/2theta)/(2 theta); at theta = 0, f = |e|, f' = sign e, f'' = 0.
    With T = V diag(lam) V^T and B_i = V^T (dT/dt_i) V, g_i = mu (t_i - 1) -
    2 f'(T)_{i,i+1}, and by Daleckii-Krein H_ij = mu delta_ij - sum_kl
    f'[lam_k, lam_l] (B_i)_kl (B_j)_kl, where the divided difference f'[a, b]
    is f''((a + b)/2) for |a - b| <= eps^(1/3) theta, as at the degenerate
    levels of a uniform ring.
    """
    lam, V = np.linalg.eigh(build_hopping_matrix(HoppingConfig(t)))
    diff = lam[:, None] - lam
    if theta > 0:
        fp = np.tanh(lam / (2.0 * theta))
        fpp = (1.0 - np.tanh((lam[:, None] + lam) / (4.0 * theta)) ** 2) / (2.0 * theta)
        band = float(np.sum(h_theta(lam * lam, theta)))
    else:
        fp, fpp, band = np.sign(lam), 0.0, float(np.sum(np.abs(lam)))
    near = np.abs(diff) <= np.finfo(float).eps ** (1.0 / 3.0) * theta
    dd = np.where(near, fpp, (fp[:, None] - fp) / np.where(near, 1.0, diff))
    Vn = np.roll(V, -1, axis=0)  # row i + 1 of V, cyclically
    B = (V[:, :, None] * Vn[:, None] + Vn[:, :, None] * V[:, None]).reshape(t.size, -1)
    F = 0.5 * mu * float(np.sum((t - 1.0) ** 2)) - band
    g = mu * (t - 1.0) - 2.0 * (V * Vn) @ fp
    return F, g, mu * np.eye(t.size) - (B * dd.ravel()) @ B.T


def minimize_chain_full(p: ModelParams, n_starts: int = 6) -> HoppingConfig:
    """Minimize the ring's energy over hopping vectors t in T_BOX^L, L <= 16,
    to confirm that unconstrained minimizers are 2-periodic.

    Each of ``n_starts`` lattice points mapped onto the box starts a damped
    Newton descent (numerics._newton_box) on the exact derivatives of
    :func:`_ring_derivatives`; the lowest value wins, the first among
    equals, and a start that runs out of steps raises ConvergenceError. At
    theta = 0, |e| has a kink where a level crosses zero; there sign(0) = 0
    is a subgradient and the line search on F rejects steps the kink
    spoils, and minimizers are gapped, so F is smooth near them.
    """
    L = _check_even_length(p.L)
    if L > 16:
        raise ValueError(f"full-chain search is limited to L <= 16, got {L}")
    if not (n_starts >= 1 and n_starts % 1 == 0):
        raise ValueError(f"n_starts must be a whole number >= 1, got {n_starts}")
    lo, hi = T_BOX
    runs = (_newton_box(lambda t: _ring_derivatives(t, p.mu, p.theta), x0, lo, hi, _NEWTON_STEPS)
            for x0 in lo + (hi - lo) * lattice_points(n_starts, L))
    return HoppingConfig(min(runs, key=lambda r: r[1])[0])


def J_finite(x: float, L: int) -> float:
    """Strictly increasing function whose root locates theta_c.

    With a and b of :func:`_ring_nodes`, it is (x + sum tanh(x a) b)/(L/4)
    for L = 0 mod 4 and sum tanh(x a) b/(L/2) for L = 2 mod 4: means of
    tanh(x a)/a cos 2t, a form whose rounding keeps J monotone, summed by
    numpy's pairwise add.reduce (theta_critical_finite sums it so too).
    The root is taken at mu for L = 0 mod 4 and at mu/2 for L = 2 mod 4
    (see theta_critical_finite for the normalization). For L = 4n the mode
    grid hits the band center and contributes the linear x/n term; for
    L = 4n + 2 the function saturates at mu_critical(L). x must be finite.
    """
    L = _check_even_length(L)
    if not 0 <= x < math.inf:
        raise ValueError(f"x must be finite and >= 0, got {x}")
    a, b = _ring_nodes(L)[2:4]
    total = float(np.add.reduce(np.tanh(x * a) * b))  # np.sum's pairwise add.reduce
    return (x + total) / (L // 4) if L % 4 == 0 else total / (L // 2)


def mu_critical(L: int) -> float:
    """Closed-form saturation value of J_finite for rings with L = 2 mod 4.

    J_finite's limit sum b / (L/2) (:func:`_ring_nodes`), or
    -(1/(2n+1)) sum_k cos(2k pi/(2n+1)) / |cos(k pi/(2n+1))|, positive and
    growing like (2/pi) ln L. The dimerized phase of such rings survives up
    to stiffness 2 * mu_critical(L) (the factor comes from the pairing of
    modes k and k + L/2 in the Euler-Lagrange difference; see
    theta_critical_finite), so this constant is the conventional scale of
    the threshold, not the threshold itself.
    """
    L = _check_even_length(L)
    if L % 4 != 2:
        raise ValueError(
            f"mu_critical needs L = 2 mod 4 (got {L}); rings with L = 0 mod 4 "
            "dimerize at every stiffness")
    return _ring_nodes(L)[6] / (L // 2)


def theta_critical_finite(mu: float, L: int) -> CriticalPoint | None:
    """Critical temperature of the even ring, mu >= 1e-8, or None when zero.

    The Euler-Lagrange difference of the ring is J_finite for L = 0 mod 4
    but 2 * J_finite for L = 2 mod 4 (the closed-form normalization of
    J_finite halves that parity), so the dimerized branch of a 2-mod-4
    ring dies at mu = 2 * mu_critical(L) and the root solve targets mu/2
    there; brute-force minimization confirms both statements. Newton's
    method in u = ln x (numerics._newton_log) starts from
    :func:`_start_log_x`; an iterate is one tanh(x a) pass over the
    :func:`_ring_nodes`, which gives J as J_finite sums it, its slope and,
    at the last, the two means of _critical_point. mu has no top, but from
    mu ~ 2.7e154/sqrt(L) (1e152 at L = 1024) mu x overflows, and that raises.
    """
    _check_mu(mu, math.inf)  # before the 2-mod-4 threshold, which inf passes
    L = _check_even_length(L)
    _, _, a, b, ab, c2a, b_sum = _ring_nodes(L)
    center = L % 4 == 0  # the band centre node t = 0, where tanh(x a)/a tends to x
    n = L // 4 if center else L // 2
    if not center and mu >= 2.0 * (b_sum / n):  # 2 * mu_critical(L)
        return None
    target = mu if center else 0.5 * mu

    def step(u):  # J - target at x = e^u, its slope in u, and x with the tanh pass
        x = math.exp(u)
        th = np.tanh(x * a)
        r = (center * x + float(np.add.reduce(th * b))) / n - target  # as J_finite sums it
        return r, x * (center + float(ab @ (1.0 - th * th))) / n, (x, th)
    x, th = _newton_log(step, _start_log_x(mu, L))[1]
    m_c = float(th @ c2a) + center * x
    return _critical_point(mu, x, float(th @ a) / (L // 2), m_c / (L // 2))
