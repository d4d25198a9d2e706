"""Locating convergence-limiting singularities from Taylor coefficients.

Radius estimates use the ratio extrapolation of Domb and Sykes; angular
location uses the sign pattern of the coefficients, which for an algebraic
singularity at r e^(i theta) (plus its conjugate) follows the sign of
cos(2 n theta) along the series.  The denominator scan is the practical
safeguard for rational re-representations: it flags grid points where a
denominator vanishes or changes sign inside the intended domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

from .errors import ValidationError
from .pade import RationalMap
from .series import MultiSeries

ZERO_COEFF_RTOL = 1e-12
DEFAULT_SCAN_FLOOR = 1e-6
THETA_GRID_SIZE = 1801


def _coeff_array(series_or_coeffs) -> np.ndarray:
    if isinstance(series_or_coeffs, MultiSeries):
        return np.asarray(series_or_coeffs.univariate_coeffs())
    c = np.asarray(series_or_coeffs)
    if c.ndim != 1:
        raise ValidationError("need a univariate coefficient array")
    return c


def _nonzero_coefficients(c: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Nonzero coefficient positions and values."""
    mags = np.abs(c)
    if mags.max() == 0:
        raise ValidationError("series is identically zero")
    nz = np.nonzero(mags > ZERO_COEFF_RTOL * mags.max())[0]
    if len(nz) < 2:
        raise ValidationError("need at least two nonzero coefficients")
    return nz, c[nz]


@dataclass
class RadiusEstimate:
    radius: float
    fit_residual: float
    flags: List[str] = field(default_factory=list)


def estimate_radius(series_or_coeffs) -> RadiusEstimate:
    """Convergence radius by extrapolating coefficient ratios in 1/n.

    The m-th ratio |c_{n_m}/c_{n_{m+1}}|^(1/gap) estimates the radius at
    scale n_m; a linear fit against 1/n extrapolates to n = infinity.  A
    vanishing or negative intercept flags a divergent (zero-radius) series,
    the Euler-series situation.
    """
    c = _coeff_array(series_or_coeffs)
    nz, vals = _nonzero_coefficients(c)
    if len(nz) < 6:
        raise ValidationError("need at least 6 nonzero coefficients")
    mags = np.abs(vals)
    ratios = np.array([
        (mags[m] / mags[m + 1]) ** (1.0 / (nz[m + 1] - nz[m]))
        for m in range(len(nz) - 1)])
    x = 1.0 / nz[1:].astype(float)
    # fit the tail only: the leading ratios carry O(1/n^2) curvature that
    # biases the intercept
    keep = max(4, (len(ratios) + 1) // 2)
    x, ratios_fit = x[-keep:], ratios[-keep:]
    coeffs = np.polyfit(x, ratios_fit, 1)
    intercept = float(coeffs[1])
    resid = float(np.sqrt(np.mean((np.polyval(coeffs, x) - ratios_fit) ** 2)))
    flags: List[str] = []
    scale = float(np.median(ratios))
    if intercept <= 1e-3 * max(scale, 1e-300):
        flags.append("zero radius of convergence: ratios extrapolate to 0 "
                     "(divergent series)")
        intercept = max(intercept, 0.0)
    return RadiusEstimate(intercept, resid, flags)


@dataclass
class SignPattern:
    angle: float
    pattern: str
    confidence: float
    flags: List[str] = field(default_factory=list)


@dataclass
class SingularityEstimate:
    radius: float
    fit_residual: float
    angle: float
    pattern: str
    confidence: float
    flags: List[str]


def _predicted_signs(theta: float, count: int, start: int = 1) -> np.ndarray:
    out = np.zeros(count, dtype=int)
    for i in range(count):
        v = math.cos(2.0 * (start + i) * theta)
        out[i] = 0 if abs(v) < 1e-9 else (1 if v > 0 else -1)
    return out


def _minimal_period(seq: np.ndarray) -> int:
    n = len(seq)
    for k in range(1, n):
        if all(seq[i] == seq[i % k] for i in range(n)):
            return k
    return n


def classify_sign_pattern(series_or_coeffs) -> SignPattern:
    """Angular location of the nearest singularity from coefficient signs.

    Works on the stride progression of nonzero coefficients (even series
    for kappa/omega, odd series like x/(1+x^2)); the constant term carries
    no asymptotic information and is dropped.  Same-sign tails put the
    singularity on the positive real axis (theta = 0, the Pringsheim case),
    alternating tails on the imaginary axis (theta = pi/2); anything else
    is fitted to the sign of cos(2 n theta) over a theta grid, up to one
    global sign.
    """
    c = np.asarray(_coeff_array(series_or_coeffs))
    work = c.copy()
    if len(work) > 0:
        work[0] = 0.0  # regular background, not part of the singular tail
    mags = np.abs(work)
    if mags.max() == 0:
        raise ValidationError("no sign-bearing coefficients beyond the constant")
    nz = np.nonzero(mags > ZERO_COEFF_RTOL * mags.max())[0]
    # the natural progression is every second power (kappa/omega in rho^2,
    # odd series like x/(1+x^2)); extra zeros inside it are part of the
    # pattern, so the stride comes from index parity, not from the gaps
    stride = 2 if len(set(int(i) % 2 for i in nz)) == 1 else 1
    first = nz[0]
    length = (nz[-1] - first) // stride + 1
    signs = np.zeros(length, dtype=int)
    for i in range(length):
        idx = first + i * stride
        v = work[idx] if idx < len(work) else 0.0
        v = v.real if np.iscomplexobj(v) else v
        signs[i] = 0 if abs(v) < ZERO_COEFF_RTOL * mags.max() else \
            (1 if v > 0 else -1)
    # the constant counts toward how much signal there is, even though the
    # tail alone carries the angular information
    constant_bearing = 1 if np.abs(c[0]) > ZERO_COEFF_RTOL * np.abs(c).max() \
        else 0
    bearing = np.count_nonzero(signs) + constant_bearing
    if bearing < 4:
        return SignPattern(float("nan"), "inconclusive", 0.0,
                           ["fewer than 4 sign-bearing coefficients"])
    nonzero = signs[signs != 0]
    if np.all(nonzero == nonzero[0]) and 0 not in signs:
        return SignPattern(0.0, "all-positive", 1.0)
    if 0 not in signs and np.all(nonzero[1:] == -nonzero[:-1]):
        return SignPattern(math.pi / 2.0, "alternating", 1.0)

    # c_k follows sign(cos(k theta)); with stride 2 the k-th power is 2n
    start_n = first // stride if stride == 2 else first
    thetas = np.linspace(0.0, math.pi / 2.0, THETA_GRID_SIZE)
    best_theta, best_score = 0.0, -1.0
    for theta in thetas:
        pred = _predicted_signs(theta, length, start=start_n)
        score = max(np.mean(pred == signs), np.mean(pred == -signs))
        if score > best_score + 1e-15:
            best_theta, best_score = float(theta), float(score)
    pred = _predicted_signs(best_theta, max(length, 4) * 4, start=start_n)
    flags: List[str] = []
    if best_score < 1.0:
        pattern = "irregular"
        flags.append(f"best sign agreement {best_score:.3f} < 1")
    else:
        k = _minimal_period(pred)
        if k >= len(pred) or k > length:
            # a period longer than the observed tail is unfalsifiable: a
            # fine enough theta grid can match any short sign sequence
            pattern = "irregular"
            best_score *= min(1.0, length / max(k, 1))
            flags.append("matched period exceeds the observed coefficients")
        else:
            pattern = f"period-{2 * k}"
    return SignPattern(best_theta, pattern, best_score, flags)


def locate_singularity(series_or_coeffs) -> SingularityEstimate:
    """Radius and angle in one report, with the flags of both.  A series the
    ratio fit refuses (past the sign pattern, it can only be too short) gets
    radius nan and a flag."""
    ang = classify_sign_pattern(series_or_coeffs)
    try:
        rad = estimate_radius(series_or_coeffs)
    except ValidationError as exc:
        rad = RadiusEstimate(float("nan"), float("nan"),
                             [f"no ratio fit: {exc}"])
    return SingularityEstimate(rad.radius, rad.fit_residual, ang.angle,
                               ang.pattern, ang.confidence,
                               rad.flags + ang.flags)


@dataclass
class ScanFlag:
    point: np.ndarray
    value: float
    reason: str


def denominator_zero_scan(r: RationalMap, axes: Sequence,
                          floor: float = DEFAULT_SCAN_FLOOR) -> List[ScanFlag]:
    """Grid points where the denominator is near zero or changes sign.

    An empty list certifies the grid only, not the continuum between grid
    points; refine the axes to tighten the check.
    """
    axes = [np.asarray(a, dtype=float).reshape(-1) for a in axes]
    if len(axes) != r.dim_in:
        raise ValidationError(f"need {r.dim_in} axes for this map")
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    den = r.denominator.evaluate_many(pts.astype(complex))[:, 0].real
    grid = den.reshape(mesh[0].shape)
    below = np.abs(den) < floor
    # both points of an adjacent pair of opposite signs, along every axis
    change = np.zeros(grid.shape, dtype=bool)
    for axis in range(grid.ndim):
        lo = (slice(None),) * axis + (slice(None, -1),)
        hi = (slice(None),) * axis + (slice(1, None),)
        pair = grid[lo] * grid[hi] < 0
        change[lo] |= pair
        change[hi] |= pair
    return [ScanFlag(pts[i], float(den[i]),
                     "below-floor" if below[i] else "sign-change")
            for i in np.flatnonzero(below | change.ravel())]
