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

import numpy as np

from .kernels import _h_prime_arr, _h_theta_arr
from .numerics import (Bracket, Tolerance, _mode_nodes, _polished_descent,
                       eigenvalues_symmetric, minimize_multistart,
                       solve_increasing)

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

# minimizer delta values below this are reported as exactly 0
DELTA_ZERO = 1e-8
# search box for full hopping vectors; physical minimizers have t near 1
T_BOX = (0.05, 3.0)


def _check_even_length(L) -> int:
    L = int(L)
    if L < 4 or L % 2:
        raise ValueError(f"chain length must be even and >= 4, got {L}")
    return L


@dataclass(frozen=True)
class ModelParams:
    """Stiffness mu, temperature theta, optional even ring length L."""

    mu: float
    theta: float
    L: int | None = None

    def __post_init__(self):
        if self.mu <= 0:
            raise ValueError(f"stiffness must be positive, got {self.mu}")
        if self.theta < 0:
            raise ValueError(f"temperature must be >= 0, got {self.theta}")
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

    def __len__(self):
        return self.t.size


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
        i = np.arange(L)
        return HoppingConfig(self.W + self.sign * (-1.0) ** i * self.delta)


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


def build_hopping_matrix(cfg: HoppingConfig) -> np.ndarray:
    """The symmetric ring matrix: T[i, i+1] = t_i with the corner t_L."""
    t = cfg.t
    L = t.size
    T = np.zeros((L, L))
    idx = np.arange(L - 1)
    T[idx, idx + 1] = t[:-1]
    T[idx + 1, idx] = t[:-1]
    T[0, L - 1] = T[L - 1, 0] = t[-1]
    return T


def chain_free_energy(cfg: HoppingConfig, p: ModelParams) -> float:
    """(mu/2) sum (t_i - 1)^2 - sum_i h_theta(eps_i^2) over the T spectrum."""
    if p.theta <= 0:
        raise ValueError("use chain_energy_zero for theta = 0")
    eps = eigenvalues_symmetric(build_hopping_matrix(cfg))
    distortion = 0.5 * p.mu * float(np.sum((cfg.t - 1.0) ** 2))
    return distortion - float(np.sum(_h_theta_arr(eps * eps, p.theta)))


def chain_energy_zero(cfg: HoppingConfig, mu: float) -> float:
    """Zero-temperature energy: (mu/2) sum (t_i - 1)^2 - sum |eps_i|."""
    if mu <= 0:
        raise ValueError(f"stiffness must be positive, got {mu}")
    eps = eigenvalues_symmetric(build_hopping_matrix(cfg))
    return 0.5 * mu * float(np.sum((cfg.t - 1.0) ** 2)) - float(np.sum(np.abs(eps)))


def _dimer_band(W: float, delta: float, theta: float):
    """h_theta of the squared levels 4 W^2 cos^2 s + 4 delta^2 sin^2 s, vectorized.

    A function of t = s - pi/2, so that |cos s| = |sin t| keeps full
    precision at the band center t = 0. Its mean over a period is the band
    part of the energy per atom: the L ring modes give it on the L/2 mode
    nodes (cos^2 has period pi, so the modes pair up), and the infinite ring
    in the limit.
    """
    w2, d2 = 4.0 * W * W, 4.0 * delta * delta
    return lambda t: _h_theta_arr(w2 * np.sin(t) ** 2 + d2 * np.cos(t) ** 2, theta)


def _g_finite_raw(W: float, delta: float, mu: float, theta: float, L: int) -> float:
    band = _dimer_band(W, delta, theta)(_mode_nodes(L // 2))
    return 0.5 * mu * ((W - 1.0) ** 2 + delta * delta) - float(np.mean(band))


def g_finite(s: DimerState, p: ModelParams) -> float:
    """Energy per atom of a 2-periodic ring via the explicit mode sum."""
    if p.theta <= 0:
        raise ValueError("g_finite needs theta > 0")
    L = _check_even_length(p.L)
    return _g_finite_raw(s.W, s.delta, p.mu, p.theta, L)


def _dimer_starts(w_guess: float):
    # descending-delta fan of starts plus the 1-periodic candidate
    starts = [(w_guess, 0.5), (w_guess, 0.05), (w_guess, 0.005), (1.0, 0.3)]
    steps = [(0.2, 0.2), (0.1, 0.03), (0.05, 0.003), (0.2, 0.2)]
    return starts, steps


def _minimize_dimer(g2, w_guess: float, init=None, tol: Tolerance | None = None):
    """Shared (W, delta) quadrant search with delta snapping. g2: (W, d) -> value.

    The 2D search always races the best 1-periodic state: near and above
    the transition the landscape is quartically flat in delta and a simplex
    can stall at a tiny spurious delta, so the winner is decided by value.
    """
    if tol is None:
        tol = Tolerance(abs_tol=1e-13, rel_tol=1e-13, max_iter=2000)
    f = lambda z: g2(z[0], z[1])
    starts, steps = _dimer_starts(w_guess)
    if init is not None:
        starts = [tuple(init)] + starts[-1:]
        steps = [(0.05, max(0.3 * init[1], 1e-4))] + steps[-1:]
    x, fx = _polished_descent(f, [np.array(s, float) for s in starts],
                              np.zeros(2), None, tol, [np.array(s) for s in steps])
    W, delta = float(x[0]), float(abs(x[1]))
    x1, f1 = _polished_descent(lambda z: g2(z[0], 0.0),
                               [np.array([w_guess]), np.array([W])],
                               np.zeros(1), None, tol,
                               [np.array([0.1]), np.array([1e-4])])
    tie = 4e-15 * (1.0 + abs(f1))
    if f1 <= fx + tie:
        return float(x1[0]), 0.0, float(f1)
    if delta < DELTA_ZERO:
        return W, 0.0, float(fx)
    return W, delta, float(fx)


def minimize_dimer_finite(p: ModelParams, init=None,
                          tol: Tolerance | None = None):
    """Minimize the per-atom energy over W, delta >= 0.

    Returns (DimerState, value); delta below 1e-8 is reported as exact 0.
    """
    if p.theta <= 0:
        raise ValueError("minimize_dimer_finite needs theta > 0")
    L = _check_even_length(p.L)
    g2 = lambda W, d: _g_finite_raw(W, d, p.mu, p.theta, L)
    W, delta, val = _minimize_dimer(g2, 1.0 + 4.0 / (math.pi * p.mu), init, tol)
    return DimerState(W=W, delta=delta), val


def minimize_chain_full(p: ModelParams, n_starts: int = 6,
                        tol: Tolerance | None = None) -> HoppingConfig:
    """Multistart search over full hopping vectors t in [0.05, 3]^L.

    Intended for small rings (L <= 16) to confirm that unconstrained
    minimizers are 2-periodic. theta = 0 falls back to the ground-state
    energy.
    """
    L = _check_even_length(p.L)
    if L > 16:
        raise ValueError(f"full-chain search is limited to L <= 16, got {L}")
    if p.theta > 0:
        obj = lambda t: chain_free_energy(HoppingConfig(t), p)
    else:
        obj = lambda t: chain_energy_zero(HoppingConfig(t), p.mu)
    if tol is None:
        tol = Tolerance(abs_tol=1e-13, rel_tol=1e-13, max_iter=400 * L)
    x, _ = minimize_multistart(obj, [T_BOX] * L, n_starts, tol)
    return HoppingConfig(x)


def J_finite(x: float, L: int) -> float:
    """Strictly increasing function whose root locates theta_c.

    The root is taken at mu for L = 0 mod 4 and at mu/2 for L = 2 mod 4
    (see theta_critical_finite for the normalization). For L = 4n the mode
    grid hits the band center and contributes the linear x/n term; for
    L = 4n + 2 the function saturates at mu_critical(L).
    """
    if x < 0:
        raise ValueError(f"x must be >= 0, got {x}")
    L = _check_even_length(L)
    if L % 4 == 0:
        n = L // 4
        k = np.arange(1, 2 * n + 1)
        k = k[k != n]
        c = np.cos(k * np.pi / (2 * n))
        return float((x - np.sum(np.tanh(x * c) * np.cos(k * np.pi / n) / c)) / n)
    n = (L - 2) // 4
    k = np.arange(1, 2 * n + 2)
    c = np.cos(k * np.pi / (2 * n + 1))
    return float(-np.sum(np.tanh(x * c) * np.cos(2 * k * np.pi / (2 * n + 1)) / c)
                 / (2 * n + 1))


def mu_critical(L: int) -> float:
    """Closed-form saturation value of J_finite for rings with L = 2 mod 4.

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
    n = (L - 2) // 4
    k = np.arange(1, 2 * n + 2)
    c = np.cos(k * np.pi / (2 * n + 1))
    return float(-np.sum(np.cos(2 * k * np.pi / (2 * n + 1)) / np.abs(c)) / (2 * n + 1))


def theta_critical_finite(mu: float, L: int,
                          tol: Tolerance | None = None) -> CriticalPoint | None:
    """Critical temperature of the even ring, or None when it is zero.

    The Euler-Lagrange difference of the ring is J_finite for L = 0 mod 4
    but 2 * J_finite for L = 2 mod 4 (the closed-form normalization of
    J_finite halves that parity), so the dimerized branch of a 2-mod-4
    ring dies at mu = 2 * mu_critical(L) and the root solve targets mu/2
    there; brute-force minimization confirms both statements. theta then
    follows from the sin^2 Euler-Lagrange equation and the cos^2 equation
    is asserted to 1e-8 as a consistency check.
    """
    if mu <= 0:
        raise ValueError(f"stiffness must be positive, got {mu}")
    L = _check_even_length(L)
    target = mu
    if L % 4 == 2:
        if mu >= 2.0 * mu_critical(L):
            return None
        target = 0.5 * mu
    if tol is None:
        tol = Tolerance(abs_tol=1e-12, rel_tol=0.0, max_iter=300)
    hi = max(1.0, mu)
    while J_finite(hi, L) < target:
        hi *= 2.0
    x = solve_increasing(lambda z: J_finite(z, L), target, Bracket(0.0, hi), tol)

    ang = 2.0 * np.pi * np.arange(1, L + 1) / L
    hp = _h_prime_arr(x * x * np.cos(ang) ** 2)
    theta = (2.0 / mu) * float(np.mean(hp * np.sin(ang) ** 2))
    W = x * theta
    residual = mu * (W - 1.0) - (2.0 * W / theta) * float(np.mean(hp * np.cos(ang) ** 2))
    if abs(residual) > 1e-8:
        raise RuntimeError(
            f"critical-point equations inconsistent (residual {residual:.3e}); "
            "root solve or kernel evaluation drifted")
    return CriticalPoint(x=x, W_star=W, theta_c=theta)
