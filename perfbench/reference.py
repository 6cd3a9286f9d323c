"""Independent references for the benchmark's correctness gate.

Nothing here imports ``peierls``. Every reference takes a different route
from the code under test:

- infinite-ring integrals use composite Gauss-Legendre panels graded
  geometrically toward the tanh layer at s = pi/2 (the package uses
  adaptive Gauss-Kronrod), root solves use ``scipy.optimize.brentq``;
- (W, delta) minima use analytic gradients with L-BFGS-B and a Brent
  solve for the uniform branch (the package uses Nelder-Mead);
- the zero-temperature energy uses ``scipy.special.ellipe``;
- ring spectra use ``np.linalg.eigvalsh`` on a matrix built here;
- finite-ring critical temperatures solve the delta-curvature condition
  d2g/d delta2 = 0 along the uniform branch (the package inverts J_finite).
"""

from __future__ import annotations

import math

import numpy as np
from scipy import optimize, special

_HALF_PI = 0.5 * math.pi
_GL_X, _GL_W = np.polynomial.legendre.leggauss(24)


def _graded_rule(x: float):
    """Nodes and weights on [0, pi/2], panels halving toward pi/2 down to ~0.02/x.

    Integrands of the infinite ring bend within ~1/x of s = pi/2 and have
    complex singularities at distance ~1/x there; geometric panels keep
    every panel's width comparable to its distance from them.
    """
    floor = min(0.02 / max(x, 1e-300), _HALF_PI / 4)
    edges = [_HALF_PI]
    r = _HALF_PI / 2
    while r > floor:
        edges.append(r)
        r *= 0.5
    edges.append(r)
    edges.append(0.0)
    dist = np.array(edges)                      # distances from pi/2, descending
    lo, hi = _HALF_PI - dist[:-1], _HALF_PI - dist[1:]
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    nodes = (mid[:, None] + half[:, None] * _GL_X[None, :]).ravel()
    weights = (half[:, None] * _GL_W[None, :]).ravel()
    return nodes, weights


def _tanh_over(x: float, c: np.ndarray) -> np.ndarray:
    """tanh(x c) / c, with the c -> 0 limit x."""
    out = np.full_like(c, x)
    nz = c * x > 1e-8
    out[nz] = np.tanh(x * c[nz]) / c[nz]
    return out


def J_inf(x: float) -> float:
    s, w = _graded_rule(x)
    c = np.cos(s)
    return -4.0 / math.pi * float(w @ (_tanh_over(x, c) * np.cos(2.0 * s)))


def _first(x: float) -> float:
    s, w = _graded_rule(x)
    c = np.cos(s)
    return 4.0 / math.pi * float(w @ (np.tanh(x * c) * c))


def theta_c_inf(mu: float) -> dict:
    """Infinite-ring critical point {x, W_star, theta_c} for stiffness mu."""
    hi = max(1.0, mu)
    while J_inf(hi) < mu:
        hi *= 2.0
    x = optimize.brentq(lambda z: J_inf(z) - mu, 0.0, hi, xtol=1e-300,
                        rtol=4 * np.finfo(float).eps, maxiter=500)
    theta = (mu + _first(x)) / (mu * x)
    return {"x": x, "W_star": x * theta, "theta_c": theta}


def _h_second(y: np.ndarray) -> np.ndarray:
    """h''(y) of h(y) = 2 ln(2 cosh sqrt y); four series terms below 1e-3."""
    out = np.empty_like(y)
    small = y < 1e-3
    ys = y[small]
    out[small] = -1.0 / 3.0 + ys * (4.0 / 15.0 + ys * (-17.0 / 105.0 + ys * 248.0 / 2835.0))
    r = np.sqrt(y[~small])
    out[~small] = (r / np.cosh(r) ** 2 - np.tanh(r)) / (2.0 * r ** 3)
    return out


def bifurcation_ref(mu: float) -> dict:
    """Moments A, B, C_int of h'' at theta_c and the amplitude coefficient.

    The moments come from the graded rule; the combination into det_J and
    d(delta^2)/d(theta) is the transition's implicit-function algebra.
    """
    cp = theta_c_inf(mu)
    W, th = cp["W_star"], cp["theta_c"]
    ratio = W / th
    s, w = _graded_rule(ratio)
    hpp = _h_second((ratio * np.cos(s)) ** 2)
    c2, s2 = np.cos(s) ** 2, np.sin(s) ** 2
    A, B, C = (4.0 / math.pi * float(w @ (hpp * f)) for f in (c2 * c2, s2 * c2, s2 * s2))
    det_J = -mu / (W * W * th) * C + 2.0 * W / th ** 4 * (A * C - B * B)
    delta_prime = (-1.0 / det_J) * (2.0 * W * mu / th ** 2) * (
        (B - A) + mu * th ** 3 / (2.0 * W ** 3))
    return {"theta_c": th, "A": A, "B": B, "C_int": C, "det_J": det_J,
            "delta_prime": delta_prime, "coeff": math.sqrt(-delta_prime)}


class Dimer:
    """Energy per atom g(W, delta) of 2-periodic hoppings at fixed (mu, theta), with gradient.

    g = (mu/2)[(W-1)^2 + delta^2] - sum_k w_k h_theta(4 W^2 cos^2 s_k + 4 delta^2 sin^2 s_k)
    for a mean rule (s_k, w_k), sum w_k = 1: the graded quadrature rule for the
    infinite ring, the L ring modes s_k = 2 pi k / L for a finite one.
    """

    def __init__(self, mu: float, theta: float, nodes, weights):
        self.mu, self.theta = mu, theta
        self.w = np.asarray(weights, dtype=float)
        self.c2, self.s2 = np.cos(nodes) ** 2, np.sin(nodes) ** 2

    @classmethod
    def thermo(cls, mu: float, theta: float) -> "Dimer":
        s, w = _graded_rule(3.0 / theta)
        return cls(mu, theta, s, w / _HALF_PI)

    @classmethod
    def finite(cls, mu: float, theta: float, L: int) -> "Dimer":
        return cls(mu, theta, 2.0 * np.pi * np.arange(1, L + 1) / L, np.full(L, 1.0 / L))

    def value_grad(self, z):
        W, d = float(z[0]), float(z[1])
        mu, th = self.mu, self.theta
        a = 4.0 * W * W * self.c2 + 4.0 * d * d * self.s2
        r = np.sqrt(a)
        h = r + 2.0 * th * np.log1p(np.exp(-r / th))
        # h_theta'(a) = tanh(sqrt(a) / 2 theta) / (2 sqrt(a)), limit 1/(4 theta)
        hp = np.full_like(a, 0.25 / th)
        nz = r > 1e-12 * th
        hp[nz] = np.tanh(r[nz] / (2.0 * th)) / (2.0 * r[nz])
        val = 0.5 * mu * ((W - 1.0) ** 2 + d * d) - float(self.w @ h)
        gW = mu * (W - 1.0) - float(self.w @ (hp * 8.0 * W * self.c2))
        gd = mu * d - float(self.w @ (hp * 8.0 * d * self.s2))
        return val, np.array([gW, gd])

    def value(self, W: float, d: float) -> float:
        return self.value_grad((W, d))[0]

    def minimum(self) -> dict:
        """Global minimum: the better of the uniform branch and two 2D descents."""
        w_hi = 2.0 + 4.0 / (math.pi * self.mu)
        W0 = optimize.brentq(lambda W: self.value_grad((W, 0.0))[1][0], 1e-6, w_hi,
                             xtol=1e-15, rtol=4 * np.finfo(float).eps)
        best = {"W": W0, "delta": 0.0, "value": self.value(W0, 0.0)}
        for d0 in (0.5, 0.05):
            res = optimize.minimize(self.value_grad, (W0, min(d0, 0.9 * W0)), jac=True,
                                    method="L-BFGS-B", bounds=[(1e-3, w_hi), (0.0, w_hi)],
                                    options={"ftol": 1e-16, "gtol": 1e-13, "maxiter": 2000})
            if res.fun < best["value"]:
                best = {"W": float(res.x[0]), "delta": float(res.x[1]),
                        "value": float(res.fun)}
        return best


class DimerZero:
    """Zero-temperature g0(W, delta) = (mu/2)[(W-1)^2 + delta^2] - (4/pi) W E(1 - delta^2/W^2)."""

    def __init__(self, mu: float):
        self.mu = mu

    def value(self, W: float, d: float) -> float:
        m = 1.0 - (d / W) ** 2
        return 0.5 * self.mu * ((W - 1.0) ** 2 + d * d) - 4.0 / math.pi * W * special.ellipe(m)

    def _dW(self, W: float, d: float) -> float:
        m = 1.0 - (d / W) ** 2
        E, K = special.ellipe(m), special.ellipk(m)
        dE = (E - K) / (2.0 * m)
        return self.mu * (W - 1.0) - 4.0 / math.pi * (E + 2.0 * d * d / (W * W) * dE)

    def W_of(self, d: float) -> float:
        """The optimal W at fixed delta: the root of dg0/dW."""
        W1 = 1.0 + 4.0 / (math.pi * self.mu)
        return optimize.brentq(lambda W: self._dW(W, d), 0.5 * W1, 2.0 * W1,
                               xtol=1e-15, rtol=4 * np.finfo(float).eps)

    def minimum(self) -> dict:
        """Minimum over ln(delta), with W solved exactly for each delta."""
        mu = self.mu
        W1 = 1.0 + 4.0 / (math.pi * mu)
        f0_per = -4.0 / math.pi - 8.0 / (math.pi ** 2 * mu)

        def phi(u):
            d = math.exp(u)
            return self.value(self.W_of(d), d)

        u0 = -(math.pi * mu / 4.0 + 0.5)
        res = optimize.minimize_scalar(phi, bracket=(u0 - 2.0, u0, u0 + 2.0), tol=1e-10)
        d = math.exp(res.x)
        W = self.W_of(d)
        f0 = self.value(W, d)
        if f0 >= f0_per:
            return {"W1": W1, "f0_per": f0_per, "W": W1, "delta": 0.0, "f0": f0_per, "gap": 0.0}
        return {"W1": W1, "f0_per": f0_per, "W": W, "delta": d, "f0": f0,
                "gap": f0_per - f0}


def ring_matrix(t) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    L = t.size
    T = np.zeros((L, L))
    for i in range(L):
        j = (i + 1) % L
        T[i, j] = T[j, i] = t[i]
    return T


def _h_theta(e2: np.ndarray, theta: float) -> np.ndarray:
    r = np.sqrt(e2)
    return r + 2.0 * theta * np.log1p(np.exp(-r / theta))


def chain_free_energy(t, mu: float, theta: float) -> float:
    t = np.asarray(t, dtype=float)
    eps = np.linalg.eigvalsh(ring_matrix(t))
    return 0.5 * mu * float(np.sum((t - 1.0) ** 2)) - float(np.sum(_h_theta(eps * eps, theta)))


def chain_energy_zero(t, mu: float) -> float:
    t = np.asarray(t, dtype=float)
    eps = np.linalg.eigvalsh(ring_matrix(t))
    return 0.5 * mu * float(np.sum((t - 1.0) ** 2)) - float(np.sum(np.abs(eps)))


def theta_c_finite(mu: float, L: int) -> dict:
    """Finite-ring critical point from the delta-curvature of the uniform branch.

    Along the uniform branch W*(theta) (dg/dW = 0 at delta = 0) the
    curvature d2g/d delta2 = mu - (2/W) mean_k sin^2 phi_k tanh(W|cos phi_k|/theta)/|cos phi_k|
    changes sign at theta_c; theta_c = 0 when it stays positive as theta -> 0.
    """
    phi = 2.0 * np.pi * np.arange(1, L + 1) / L
    c = np.abs(np.cos(phi))
    s2 = np.sin(phi) ** 2

    def W_star(theta):
        f = lambda W: mu * (W - 1.0) - float(np.mean(2.0 * c * np.tanh(W * c / theta)))
        return optimize.brentq(f, 0.0, 2.0 + 2.0 / mu, xtol=1e-15,
                               rtol=4 * np.finfo(float).eps)

    def curvature(theta):
        W = W_star(theta)
        return mu - (2.0 / W) * float(np.mean(s2 * _tanh_over(W / theta, c)))

    lo, hi = 1e-12, 2.0 / mu
    if curvature(lo) >= 0.0:
        return {"theta_c": 0.0, "W_star": None, "x": None}
    theta = optimize.brentq(curvature, lo, hi, xtol=1e-300, rtol=4 * np.finfo(float).eps)
    W = W_star(theta)
    return {"theta_c": theta, "W_star": W, "x": W / theta}


def mu_critical(L: int) -> float:
    """Half the theta -> 0 limit of the curvature threshold: -mean_k cos 2phi_k / |cos phi_k|."""
    phi = 2.0 * np.pi * np.arange(1, L + 1) / L
    return float(-np.mean(np.cos(2.0 * phi) / np.abs(np.cos(phi))))
