"""Closed forms and brute-force oracles the tests check gssm against.

They live beside the tests because no part of the pipeline runs them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Tuple

import numpy as np
from scipy.integrate import quad

from gssm.errors import ValidationError
from gssm.series import MultiSeries
from gssm.ssm import PolySystem


def euler_series(order: int) -> MultiSeries:
    """The alternating factorial series c_n = (-1)^(n+1) (n-1)!, c_0 = 0."""
    coeffs = {(n,): np.array([complex((-1) ** (n + 1) * math.factorial(n - 1))])
              for n in range(1, order + 1)}
    return MultiSeries(1, 1, order, coeffs)


def euler_exact(x: float) -> float:
    """Stieltjes integral representation of the resummed series.

    h(x) = integral_0^inf exp(-t)/(1 + x t) dt; defined off the negative
    real axis, here restricted to x > 0.
    """
    if x <= 0:
        raise ValidationError("euler_exact requires x > 0")
    val, err = quad(lambda t: math.exp(-t) / (1.0 + x * t), 0.0, np.inf,
                    epsabs=1e-12, epsrel=1e-12, limit=400)
    if err > 1e-8:
        raise ValidationError(f"quadrature did not converge: err={err:.2e}")
    return float(x * val)


def odd_geometric_series(order: int) -> MultiSeries:
    """Series of x/(1+x^2): alternating odd powers."""
    coeffs = {(2 * n + 1,): np.array([complex((-1) ** n)])
              for n in range(0, (order - 1) // 2 + 1)}
    return MultiSeries(1, 1, order, coeffs)


def autonomous_rhs(sys: PolySystem, x) -> np.ndarray:
    """A x + f(x); its real part for a real x."""
    x = np.asarray(x)
    out = sys.linear_part @ x + sys.nonlinearity.evaluate(x)
    return out.real if np.isrealobj(x) else out


def jacobian_of(sys: PolySystem) -> Callable[[np.ndarray], np.ndarray]:
    """x -> A + Df(x) at a real x, with f's derivative series built once."""
    rows = sys.nonlinearity.jacobian_rows()

    def jacobian(x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        jac = sys.linear_part.astype(complex)
        for i, ds in enumerate(rows):
            jac[:, i] += ds.evaluate(x)
        return jac.real

    return jacobian


@dataclass
class FixedPoint:
    location: np.ndarray
    eigenvalues: np.ndarray
    label: str


def _stability_label(eigs: np.ndarray) -> str:
    re = eigs.real
    if np.all(re < -1e-10):
        return "stable"
    if np.all(re > 1e-10):
        return "unstable"
    if np.any(np.abs(re) <= 1e-10):
        return "marginal"
    return "saddle"


def fixed_points_oracle(sys: PolySystem, box: List[Tuple[float, float]],
                        seeds_per_axis: int = 7) -> List[FixedPoint]:
    """Damped-Newton roots of the autonomous right-hand side from a seed grid."""
    n = sys.dim
    if len(box) != n:
        raise ValidationError("box must give one (lo, hi) interval per state")
    axes = [np.linspace(lo, hi, seeds_per_axis) for lo, hi in box]
    mesh = np.meshgrid(*axes, indexing="ij")
    seeds = np.stack([m.ravel() for m in mesh], axis=1)

    jacobian = jacobian_of(sys)
    roots: List[np.ndarray] = []
    for seed in seeds:
        x = seed.astype(float).copy()
        converged = False
        for _ in range(120):
            fval = autonomous_rhs(sys, x)
            fnorm = np.linalg.norm(fval)
            if fnorm < 1e-12 * (1.0 + np.linalg.norm(x)):
                converged = True
                break
            jac = jacobian(x)
            step, *_ = np.linalg.lstsq(jac, -fval, rcond=None)
            # backtracking: accept the first step with residual decrease
            lam = 1.0
            for _ in range(40):
                trial = x + lam * step
                if np.linalg.norm(autonomous_rhs(sys, trial)) < fnorm:
                    break
                lam *= 0.5
            else:
                break
            x = x + lam * step
        if not converged:
            continue
        # polish: plain Newton past the residual exit, so clusters around a
        # degenerate root (linear convergence) collapse to one point
        for _ in range(60):
            fval = autonomous_rhs(sys, x)
            step, *_ = np.linalg.lstsq(jacobian(x), -fval, rcond=None)
            if not np.all(np.isfinite(step)):
                break
            x = x + step
            if np.linalg.norm(step) < 1e-15 * (1.0 + np.linalg.norm(x)):
                break
        if any(lo - 1e-9 > xi or xi > hi + 1e-9
               for xi, (lo, hi) in zip(x, box)):
            continue
        if any(np.linalg.norm(x - r) < 1e-8 * (1 + np.linalg.norm(r))
               for r in roots):
            continue
        roots.append(x)

    out = []
    for r in sorted(roots, key=lambda v: tuple(v)):
        eigs = np.linalg.eigvals(jacobian(r))
        out.append(FixedPoint(r, eigs, _stability_label(eigs)))
    return out


# closed forms for the triangular-system manifold graph y = h(x):
# h(x) = -x^2/(2 s1 - s2) - 2 x^3/((2 s1 - s2)^2 (3 s1 - s2)) + ...


def dauchot_w2(s1: float, s2: float) -> float:
    return -1.0 / (2.0 * s1 - s2)


def dauchot_w3(s1: float, s2: float) -> float:
    return -2.0 / ((2.0 * s1 - s2) ** 2 * (3.0 * s1 - s2))


def synthetic_pattern_series(r: float, theta: float, nu: float,
                             order: int) -> np.ndarray:
    """Even-series coefficients of (1 - 2 z^2 cos(2 theta)/r^2 + z^4/r^4)^nu.

    Expanded as G(z) = sum over n of 2 binom(nu, 2n) r^(-2n) cos(2n theta)
    z^(2n); used to exercise the classifier with a known singularity pair
    at r e^(+- i theta).
    """
    coeffs = np.zeros(order + 1)
    for n in range(0, order // 2 + 1):
        binom = 1.0
        for j in range(2 * n):
            binom *= (nu - j) / (j + 1.0)
        coeffs[2 * n] = 2.0 * binom * r ** (-2 * n) * math.cos(2 * n * theta)
    return coeffs
