"""Slow spectral-submanifold computation for polynomial vector fields.

The invariance equation A W(p) + f(W(p)) = DW(p) R(p) is solved order by
order in the eigenbasis of A.  At total order m the coefficient of row j
satisfies

    (lambda_j - <m, lambda_E>) W~_{j,m} = X_{j,m} - F_{j,m} + [j master] R_{i,m}

where F collects the nonlinearity composed with lower orders of W~ and X
collects the lower-order DW~*R cross terms.  Graph style keeps master rows
of W~ zero and solves them for R; normal-form style keeps only (near-)
resonant reduced-dynamics monomials and pushes everything else into W~.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

import numpy as np

from .errors import NumericalError, SmallDivisorError, ValidationError
from .series import (Composition, MultiSeries, coeff_lines, complex_row,
                     compose_truncated, grlex_key, grlex_table, invert_map,
                     multiply_truncated, parse_coeff_lines, product_rows,
                     read_complex_row, read_header, read_sections, text_reader)

RESONANCE_TOL_FACTOR = 1e-8
STYLES = ("graph", "normal-form")


# ---- systems ---------------------------------------------------------------


@dataclass
class PolySystem:
    """First-order analytic system x' = A x + f(x).

    f is a MultiSeries with no constant or linear terms.  rhs_callable, when
    given, replaces A x + f(x) entirely (demo systems with rational right-hand
    sides); the polynomial SSM solver and jacobian reject such systems.  A
    forcing enters through the reduced model (reduced.foliation_forcing,
    reduced.Forcing).
    """

    linear_part: np.ndarray
    nonlinearity: MultiSeries
    rhs_callable: Optional[Callable] = None
    _jac_series: Optional[List[MultiSeries]] = field(default=None, init=False,
                                                     repr=False)

    def __post_init__(self):
        self.linear_part = np.asarray(self.linear_part, dtype=float)
        n = self.linear_part.shape[0]
        if self.linear_part.shape != (n, n):
            raise ValidationError("linear part must be square")
        if self.nonlinearity.dim_in != n or self.nonlinearity.dim_out != n:
            raise ValidationError("nonlinearity must map state space to itself")
        if self.nonlinearity.coeffs and self.nonlinearity.min_order_present() < 2:
            raise ValidationError("nonlinearity must start at total order 2")

    @property
    def dim(self) -> int:
        return self.linear_part.shape[0]

    def autonomous_rhs(self, x) -> np.ndarray:
        x = np.asarray(x)
        if self.rhs_callable is not None:
            return np.asarray(self.rhs_callable(x))
        out = self.linear_part @ x + self.nonlinearity.evaluate(x)
        return out.real if np.isrealobj(x) else out

    def jacobian(self, x) -> np.ndarray:
        if self.rhs_callable is not None:
            raise ValidationError("the Jacobian requires a polynomial "
                                  "right-hand side")
        x = np.asarray(x, dtype=float)
        if self._jac_series is None:
            self._jac_series = self.nonlinearity.jacobian_rows()
        jac = self.linear_part.astype(complex).copy()
        for i, ds in enumerate(self._jac_series):
            jac[:, i] += ds.evaluate(x)
        return jac.real


@dataclass
class SpectralData:
    """Eigen-decomposition with a designated master (slow) subset.

    eigenvalues are sorted by descending real part (descending imaginary
    part within ties, so a conjugate pair lists its +Im member first);
    left_vectors rows are dual to right_vectors columns.
    """

    eigenvalues: np.ndarray
    right_vectors: np.ndarray
    left_vectors: np.ndarray
    master: List[int]
    flags: List[str] = field(default_factory=list)

    @property
    def master_eigenvalues(self) -> np.ndarray:
        return self.eigenvalues[self.master]

    @property
    def master_right(self) -> np.ndarray:
        return self.right_vectors[:, self.master]

    @property
    def master_left(self) -> np.ndarray:
        return self.left_vectors[self.master, :]


def _normalize_phase(v: np.ndarray) -> np.ndarray:
    mags = np.abs(v)
    i0 = int(np.argmax(mags > 1e-12 * mags.max()))
    phase = v[i0] / abs(v[i0])
    v = v / phase
    return v / np.linalg.norm(v)


def spectral_analysis(sys: PolySystem, d: int,
                      master_indices: Optional[Sequence[int]] = None) -> SpectralData:
    """Eigen-structure of the linear part with the d slow modes marked.

    The default master set is the d eigenvalues closest to zero in modulus
    (conjugate pairs kept together); pass master_indices (positions in the
    sorted eigenvalue list) to override, e.g. for mixed-mode manifolds.
    """
    if d not in (1, 2):
        raise ValidationError("only 1- and 2-dimensional manifolds are supported")
    a = np.asarray(sys.linear_part, dtype=float)
    n = a.shape[0]
    if d > n:
        raise ValidationError("manifold dimension exceeds state dimension")
    vals, vecs = np.linalg.eig(a)
    if np.linalg.cond(vecs) > 1e12:
        raise NumericalError("linear part is defective or near-defective")

    # LAPACK lists each complex pair of a real matrix in adjacent columns,
    # +Im first, with exactly conjugate values and vectors: mate[i] is i's
    # partner (i itself for a real mode), carried through the sort
    imag_tol = 1e-10 * max(np.max(np.abs(vals)), 1.0)
    plus = np.flatnonzero(vals.imag > imag_tol)
    if not np.array_equal(np.flatnonzero(vals.imag < -imag_tol), plus + 1):
        raise NumericalError("complex eigenvalues are not in adjacent pairs")
    mate = np.arange(n)
    mate[plus], mate[plus + 1] = plus + 1, plus
    order = np.lexsort((-vals.imag, -vals.real))
    rank = np.argsort(order)
    vals, vecs, mate = vals[order], vecs[:, order], rank[mate[order]]

    # the normalization gauge on real modes and +Im members; each -Im
    # member is the conjugate of its mate
    pos = np.arange(n)
    vals[mate == pos] = vals[mate == pos].real
    for i in np.flatnonzero(mate >= pos):
        vecs[:, i] = _normalize_phase(vecs[:, i])
    minus = mate < pos
    vecs[:, minus] = np.conj(vecs[:, mate[minus]])

    left = np.linalg.inv(vecs)
    flags: List[str] = []

    if master_indices is None:
        by_modulus = sorted(range(n), key=lambda i: (abs(vals[i]), i))
        master = sorted(by_modulus[:d])
    else:
        master = sorted(int(i) for i in master_indices)
        if len(master) != d or any(not 0 <= i < n for i in master):
            raise ValidationError("master_indices must be d distinct positions")
        flags.append("explicit master selection")

    if any(mate[i] not in master for i in master):
        raise ValidationError("master set splits a complex-conjugate pair")

    enslaved = [i for i in range(n) if i not in master]
    if enslaved:
        slowest = max(vals[i].real for i in enslaved)
        if slowest - min(vals[i].real for i in master) >= -1e-12:
            if master_indices is not None:
                flags.append("spectral gap check skipped for explicit master set")
            else:
                raise NumericalError(
                    f"no spectral gap: slowest enslaved Re {slowest:.6g} "
                    f"does not lie below the master real parts")

    return SpectralData(vals, vecs, left, master, flags)


# ---- the model -------------------------------------------------------------


@dataclass
class SSMModel:
    """Computed or imported manifold parametrization with reduced dynamics.

    W maps reduced coordinates p (dim d) to ambient states (dim n); R is the
    reduced vector field p' = R(p).  master_left is needed only for forcing
    projections and may be absent on imported models.
    """

    n: int
    d: int
    style: str
    order: int
    master_eigenvalues: np.ndarray
    master_right: np.ndarray
    W: MultiSeries
    R: MultiSeries
    master_left: Optional[np.ndarray] = None
    flags: List[str] = field(default_factory=list)

    def __post_init__(self):
        self.master_eigenvalues = np.asarray(self.master_eigenvalues, dtype=complex)
        self.master_right = np.asarray(self.master_right, dtype=complex)
        if self.style not in STYLES:
            raise ValidationError(f"style must be one of {STYLES}")
        if self.W.dim_in != self.d or self.W.dim_out != self.n:
            raise ValidationError("W must map d reduced coordinates to n states")
        if self.R.dim_in != self.d or self.R.dim_out != self.d:
            raise ValidationError("R must be a d-dimensional vector field")

    def is_oscillatory_pair(self) -> bool:
        return _is_conjugate_pair(self.master_eigenvalues)


def _is_conjugate_pair(lam_e: np.ndarray) -> bool:
    """Two master eigenvalues off the real axis, each the conjugate of the
    other within 1e-8 of max(max |lambda|, 1)."""
    return (len(lam_e) == 2 and
            abs(lam_e[0] - np.conj(lam_e[1])) <
            1e-8 * max(np.max(np.abs(lam_e)), 1.0) and
            abs(lam_e[0].imag) > 0)


def compute_ssm(sys: PolySystem, spec: SpectralData, order: int,
                style: str = "normal-form") -> SSMModel:
    """Order-by-order cohomological solve of the invariance equation."""
    if style not in STYLES:
        raise ValidationError(f"style must be one of {STYLES}")
    if order < 1:
        raise ValidationError("order must be >= 1")
    if sys.rhs_callable is not None:
        raise ValidationError("SSM solver requires a polynomial right-hand side")
    n, d, master = sys.dim, len(spec.master), spec.master
    lam_all, lam_e = spec.eigenvalues, spec.master_eigenvalues
    v, lft = spec.right_vectors, spec.left_vectors
    tol = RESONANCE_TOL_FACTOR * max(np.max(np.abs(lam_all)), 1e-300)

    # conjugate-pair bookkeeping for the structural resonance pattern
    oscillatory = _is_conjugate_pair(lam_e)

    # W~ (eigen coordinates) and R as grlex arrays, solved one degree block
    # at a time
    table = grlex_table(d, order)
    size = table.size
    units = [table.row[tuple(int(i == j) for j in range(d))] for i in range(d)]
    w_tilde = np.zeros((size(order), n), dtype=complex)
    w_tilde[units, master] = 1.0
    r_tail = np.zeros((size(order), d), dtype=complex)      # degrees >= 2
    amb = w_tilde @ v.T
    f_of_w = Composition(sys.nonlinearity, amb, table, order)
    is_master = np.isin(np.arange(n), master)

    for k in range(2, order + 1):
        lo, hi = size(k - 1), size(k)
        rhs = -(f_of_w.rows(lo, hi) @ lft.T)
        for i in range(d):
            rhs += product_rows(r_tail[:, i:i + 1],
                                table.derivative(w_tilde, i, hi), table, lo, hi)
        idx = table.exps[lo:hi]
        delta = lam_all[None, :] - (idx @ lam_e)[:, None]
        small = np.abs(delta) < tol
        bad = np.argwhere(small & ~is_master)
        if len(bad):
            row, j = bad[0]
            raise SmallDivisorError(int(j), table.keys[lo + row], delta[row, j])
        # master rows take the resonant terms into R, the rest into W~
        resonant = np.ones((hi - lo, d), dtype=bool)
        if style != "graph":
            # a pair's structural resonances: z^(n+1) zbar^n in the row of z
            resonant = small[:, master] | (oscillatory & (idx == idx[:, ::-1] + 1))
        into_r = np.zeros((hi - lo, n), dtype=bool)
        into_r[:, master] = resonant
        w_tilde[lo:hi] = np.where(into_r, 0.0, rhs / np.where(into_r, 1.0, delta))
        r_tail[lo:hi] = np.where(resonant, -rhs[:, master], 0.0)
        amb[lo:hi] = w_tilde[lo:hi] @ v.T

    r_tail[units, range(d)] = lam_e      # the linear part completes R
    return SSMModel(n=n, d=d, style=style, order=order,
                    master_eigenvalues=lam_e, master_right=spec.master_right,
                    W=MultiSeries.from_grlex(amb, d, order),
                    R=MultiSeries.from_grlex(r_tail, d, order),
                    master_left=spec.master_left, flags=list(spec.flags))


# ---- invariant foliation along the manifold ---------------------------------


def foliation_projection(sys: PolySystem, spec: SpectralData,
                         model: SSMModel) -> MultiSeries:
    """Gradient L(p) = DK(W(p)) of the invariant-foliation projection K.

    K maps states near the manifold to reduced coordinates along the
    invariant foliation, K(W(p)) = p, and conjugates the flow to R.  A
    forcing eps * F * cos(Omega t) therefore enters the reduced model at
    O(eps) as p' = R(p) + eps * L(p) F cos(Omega t).  L~ = L V (d x n, in
    the eigenbasis) is solved order by order through order - 1:

    * enslaved columns j from the adjoint invariance equation
      DL[R] + L (A + Df(W)) = DR L, whose order-m divisor is
      <m, lambda_E> + lambda_j - lambda_i (SmallDivisorError where it
      vanishes);
    * master columns from the normalization L DW = I, which avoids the
      near-resonant divisors of the weakly damped master pair.

    Requires a normal-form model over a conjugate master pair of a
    polynomial system.  Returns L in ambient coordinates as a series with
    d * n outputs, row-major: L(p) = series.evaluate(p).reshape(d, n).
    See Breunung & Haller, Proc. R. Soc. A 474 (2018) for the O(eps)
    non-autonomous SSM and Szalai, Proc. R. Soc. A 476 (2020) for
    invariant foliations.
    """
    if sys.rhs_callable is not None:
        raise ValidationError("foliation projection requires a polynomial "
                              "right-hand side")
    if model.style != "normal-form" or not model.is_oscillatory_pair():
        raise ValidationError("foliation projection requires a normal-form "
                              "model over a conjugate master pair")
    n, d, order = sys.dim, model.d, model.order - 1
    if model.n != n or len(spec.master) != d or not np.allclose(
            spec.master_eigenvalues, model.master_eigenvalues):
        raise ValidationError("model does not match the system's spectrum")
    lam_all, lam_e = spec.eigenvalues, spec.master_eigenvalues
    v, lft = spec.right_vectors, spec.left_vectors
    master = spec.master
    enslaved = [j for j in range(n) if j not in master]
    tol = RESONANCE_TOL_FACTOR * max(np.max(np.abs(lam_all)), 1e-300)
    table = grlex_table(d, order + 1)
    size = table.size(order)

    # grlex arrays of DW~ (n x d), DR_{>=2} (d x d) and V^-1 Df(W) V
    # (n x n) through `order`, so from W~ and R through order + 1; their
    # constant rows do not enter the sums
    r_tail = model.R.drop_below(2).grlex(order + 1)
    dw, dr = (np.stack([table.derivative(arr, i, size) for i in range(d)], axis=2)
              for arr in (model.W.grlex(order + 1) @ lft.T, r_tail))
    df = lft @ np.stack([compose_truncated(col, model.W, order).grlex(order)
                         for col in sys.nonlinearity.jacobian_rows()], axis=2) @ v
    for arr in (dw, dr, df):
        arr[0] = 0.0

    lt = np.zeros((size, d, n), dtype=complex)
    lt[0][:, master] = np.eye(d)
    for k in range(1, order + 1):
        lo, hi = table.size(k - 1), table.size(k)
        rhs = product_rows(dr, lt, table, lo, hi, np.matmul) \
            - product_rows(lt, df, table, lo, hi, np.matmul)
        # DL~[R_{>=2}] = sum_i R_i d/dp_i L~
        for i in range(d):
            rhs -= product_rows(r_tail[:, i, None, None],
                                table.derivative(lt, i, hi), table, lo, hi)
        delta = (table.exps[lo:hi] @ lam_e)[:, None, None] \
            + lam_all[enslaved][None, None, :] - lam_e[None, :, None]
        bad = np.argwhere(np.abs(delta) < tol)
        if len(bad):
            row, i, j = bad[0]
            raise SmallDivisorError(enslaved[j], table.keys[lo + row],
                                    delta[row, i, j])
        lt[lo:hi][:, :, enslaved] = rhs[:, :, enslaved] / delta
        # master rows of DW~ are the identity at order 0 and enslaved rows
        # vanish there, so the order-m part of L~ DW~ = I reads:
        lt[lo:hi][:, :, master] = -product_rows(lt, dw, table, lo, hi, np.matmul)
    return MultiSeries.from_grlex((lt @ lft).reshape(size, d * n), d, order)


# ---- polar normal form ------------------------------------------------------


@dataclass
class PolarNormalForm:
    """Amplitude-dependent damping and frequency: rho' = kappa(rho) rho,
    theta' = omega(rho), with kappa(rho) = sum kappa_n rho^(2n)."""

    kappa: np.ndarray
    omega: np.ndarray

    def __post_init__(self):
        self.kappa = np.asarray(self.kappa, dtype=float)
        self.omega = np.asarray(self.omega, dtype=float)
        if self.kappa.shape != self.omega.shape:
            raise ValidationError("kappa and omega must have equal length")

    def omega_series(self) -> MultiSeries:
        return _even_series(self.omega)

    def kappa_series(self) -> MultiSeries:
        return _even_series(self.kappa)


def _even_series(coeffs) -> MultiSeries:
    """sum_n coeffs[n] rho^(2n) as a scalar univariate series."""
    return MultiSeries(1, 1, 2 * (len(coeffs) - 1),
                       {(2 * i,): [complex(c)] for i, c in enumerate(coeffs)})


def _conjugate_row(model: SSMModel) -> int:
    """Position of z in a conjugate pair (z, zbar), after checking that the
    zbar row of R mirrors the z row: R_zbar at (b, a) must be conj(R_z) at
    (a, b) within 1e-9 of the largest coefficient of R.  A mismatch signals
    a gauge error and raises NumericalError naming the z-row index."""
    plus = int(np.argmax(model.master_eigenvalues.imag))
    r = model.R
    scale = max(np.max(np.abs(val)) for val in r.coeffs.values())
    for idx in sorted(set(r.coeffs) | {k[::-1] for k in r.coeffs}, key=grlex_key):
        if abs(r.get(idx[::-1])[1 - plus] - np.conj(r.get(idx)[plus])) \
                > 1e-9 * scale:
            raise NumericalError(
                f"reduced dynamics are not conjugate-symmetric at {idx}")
    return plus


def extract_polar(model: SSMModel) -> PolarNormalForm:
    """kappa_n + i omega_n from the resonant coefficients R_{(n+1,n)}.

    Requires a normal-form model over a complex-conjugate master pair.
    """
    if model.style != "normal-form":
        raise ValidationError("polar extraction requires a normal-form model")
    if not model.is_oscillatory_pair():
        raise ValidationError("polar extraction requires a conjugate master pair")
    plus = _conjugate_row(model)
    c = np.array([model.R.get((nn + 1, nn) if plus == 0 else (nn, nn + 1))[plus]
                  for nn in range((model.order - 1) // 2 + 1)])
    return PolarNormalForm(c.real, c.imag)


# ---- realification ----------------------------------------------------------


def _conjugate_substitution(order: int) -> MultiSeries:
    """(a, b) -> (a + ib, a - ib) as a linear series."""
    return MultiSeries(2, 2, order, {
        (1, 0): np.array([1.0 + 0j, 1.0 + 0j]),
        (0, 1): np.array([1j, -1j]),
    })


def _real_coefficients(s: MultiSeries, what: str) -> MultiSeries:
    """s with real coefficients; NumericalError unless every imaginary part
    is below 1e-9 of the largest coefficient magnitude."""
    scale = max((np.max(np.abs(v)) for v in s.coeffs.values()), default=1.0)
    if s.max_abs_imag() > 1e-9 * scale:
        raise NumericalError(f"{what} does not realify: residual imaginary "
                             f"part {s.max_abs_imag():.2e}")
    return MultiSeries(s.dim_in, s.dim_out, s.order,
                       {k: v.real for k, v in s.coeffs.items()})


def realify_parametrization(model: SSMModel) -> MultiSeries:
    """Real series for W in real reduced coordinates.

    Real masters: coefficients must already be real.  Conjugate pair:
    substitute p = a + ib, p_bar = a - ib; the imaginary parts of the result
    must cancel for a real system.
    """
    w = model.W
    if model.is_oscillatory_pair():
        w = compose_truncated(w, _conjugate_substitution(model.order),
                              model.order)
    return _real_coefficients(w, "parametrization")


def realify_reduced(model: SSMModel) -> MultiSeries:
    """Real vector field in the real coordinates of the pair; real masters
    keep R, whose coefficients must already be real."""
    if not model.is_oscillatory_pair():
        return _real_coefficients(model.R, "reduced dynamics")
    plus = _conjugate_row(model)
    c = compose_truncated(model.R.component(plus), _conjugate_substitution(model.order),
                          model.order).grlex(model.order)
    # a' + i b' is the z row of R: the field is its real and imaginary part
    return MultiSeries.from_grlex(np.hstack([c.real, c.imag]).astype(complex),
                                  model.d, model.order)


# ---- invariance residual ----------------------------------------------------


@dataclass
class ResidualStats:
    """flags says why slope is nan: too few radii clear the noise window,
    or they span too little of the radius range."""

    radii: np.ndarray
    max_residual: np.ndarray
    term_scale: np.ndarray
    valid: np.ndarray
    slope: float
    flags: List[str]


def _sample_points(model: SSMModel, radius: float) -> np.ndarray:
    if model.d == 1:
        return np.array([[radius], [-radius]], dtype=complex)
    thetas = np.linspace(0.0, 2 * np.pi, 12, endpoint=False)
    if model.is_oscillatory_pair():
        z = radius * np.exp(1j * thetas)
        return np.stack([z, np.conj(z)], axis=1)
    return radius * np.stack([np.cos(thetas), np.sin(thetas)], axis=1).astype(complex)


def invariance_residual(sys: PolySystem, model: SSMModel) -> ResidualStats:
    """Defect of A W + f(W) - DW R on 34 circles |p| = r, r from 1e-6 to
    10^0.3, at 12 angles each, with a fitted slope.

    The log-log slope is fitted only where the defect stands clear of the
    floating-point noise floor of the participating terms and below the
    regime where the truncation has fully diverged.
    """
    radii = np.logspace(-6.0, 0.3, 34)
    a = np.asarray(sys.linear_part, dtype=complex)
    dw = model.W.jacobian_rows()
    a_norm = np.linalg.norm(a)

    floors = np.zeros(len(radii))
    for ir, r in enumerate(radii):
        # pre-cancellation magnitude bound: series evaluations can cancel
        # down from these scales, so the measurable defect sits above
        # epsilon times this, not above the cancelled term norms
        w_scale = model.W.coeff_scale(r)
        r_scale = model.R.coeff_scale(r)
        j_scale = sum(ds.coeff_scale(r) for ds in dw)
        f_scale = sys.nonlinearity.coeff_scale(w_scale) if sys.nonlinearity.coeffs \
            else w_scale ** 2
        floors[ir] = a_norm * w_scale + f_scale + j_scale * r_scale

    # every radius has the same number of sample points
    pts = np.concatenate([_sample_points(model, r) for r in radii])
    x = model.W.evaluate_many(pts)
    t1 = x @ a.T
    if sys.rhs_callable is not None:
        t2 = np.array([sys.rhs_callable(row) for row in x]) - t1
    else:
        t2 = sys.nonlinearity.evaluate_many(x)
    jac = np.stack([ds.evaluate_many(pts) for ds in dw], axis=2)
    t3 = np.einsum("kij,kj->ki", jac, model.R.evaluate_many(pts))
    norms = [np.linalg.norm(t, axis=1).reshape(len(radii), -1)
             for t in (t1 + t2 - t3, t1, t2, t3)]
    max_res = norms[0].max(axis=1)
    scales = (norms[1] + norms[2] + norms[3]).max(axis=1)

    noise = 1e-13 * np.maximum(floors, 1e-300)
    valid = (max_res > 50.0 * noise) & (max_res < 0.05 * np.maximum(scales, 1e-300))
    count = np.count_nonzero(valid)
    span = float(np.ptp(np.log10(radii[valid]))) if count else 0.0
    slope, flags = float("nan"), []
    if count >= 3 and span >= 0.5:
        slope = float(np.polyfit(np.log10(radii[valid]),
                                 np.log10(max_res[valid]), 1)[0])
    else:
        flags.append(f"slope not fitted: {count} radii clear the noise "
                     f"window and span {span:.2f} decades; the fit needs "
                     "at least 3 radii over 0.5 decades")
    return ResidualStats(radii, max_res, scales, valid, slope, flags)


# ---- graphs over ambient coordinates ----------------------------------------


@dataclass
class CoordinateGraph:
    """The manifold re-expressed as a graph over chosen ambient coordinates.

    parametrization maps u = x[coords] to the full state; reduced is the
    vector field u' = g(u) in those coordinates.
    """

    coords: List[int]
    order: int
    parametrization: MultiSeries
    reduced: MultiSeries


def to_coordinate_graph(model: SSMModel, coords: Sequence[int]) -> CoordinateGraph:
    coords = [int(c) for c in coords]
    if len(coords) != model.d:
        raise ValidationError("need exactly d coordinates to re-parametrize")
    phi = MultiSeries.from_components([model.W.component(c) for c in coords])
    try:
        g = invert_map(phi, model.order)
    except ValueError as exc:
        raise NumericalError(
            f"coordinates {coords} do not chart the manifold: {exc}") from exc
    param = compose_truncated(model.W, g, model.order)
    # chain rule: u' = Dphi(p) R(p), then substitute p = g(u)
    field = MultiSeries.zero(model.d, model.d, model.order)
    for i in range(model.d):
        field = field + multiply_truncated(model.R.component(i),
                                           phi.derivative(i), model.order)
    reduced = compose_truncated(field, g, model.order)
    return CoordinateGraph(coords, model.order, param, reduced)


# ---- model files -------------------------------------------------------------


def model_to_text(model: SSMModel) -> str:
    lines = [f"ssm {model.n} {model.d} {model.style} {model.order}"]
    lines.append("EIGENVALUES")
    lines.extend(complex_row([lam]) for lam in model.master_eigenvalues)
    lines.append("EIGENVECTORS")
    lines.extend(map(complex_row, model.master_right))
    if model.master_left is not None:
        lines.append("LEFT_EIGENVECTORS")
        lines.extend(map(complex_row, model.master_left))
    lines.append("W")
    lines.extend(coeff_lines(model.W))
    lines.append("R")
    lines.extend(coeff_lines(model.R))
    return "\n".join(lines) + "\n"


@text_reader("model")
def model_from_text(lines: List[str]) -> SSMModel:
    n, d, style, order = read_header(lines, "ssm", 4)
    n, d, order = int(n), int(d), int(order)
    sections = read_sections(lines[1:], ("EIGENVALUES", "EIGENVECTORS",
                                         "LEFT_EIGENVECTORS", "W", "R"),
                             optional=("LEFT_EIGENVECTORS",))

    def block(name, count):
        return np.array([read_complex_row(ln, count) for ln in sections[name]],
                        dtype=complex).reshape(-1, count)

    lam = block("EIGENVALUES", 1)[:, 0]
    if len(lam) != d:
        raise ValidationError(f"expected {d} eigenvalues, found {len(lam)}")
    right = block("EIGENVECTORS", d)
    if right.shape != (n, d):
        raise ValidationError(f"eigenvector block must be {n} rows of {d} pairs")
    left = None
    if "LEFT_EIGENVECTORS" in sections:
        left = block("LEFT_EIGENVECTORS", n)
        if left.shape != (d, n):
            raise ValidationError("left eigenvector block must be d rows of n pairs")
    w = parse_coeff_lines(sections["W"], d, n, order)
    r = parse_coeff_lines(sections["R"], d, d, order)

    model = SSMModel(n=n, d=d, style=style, order=order, master_eigenvalues=lam,
                     master_right=right, W=w, R=r, master_left=left)
    # imported coefficients must be consistent: tangency of W to the stated
    # eigenvectors and R to the stated eigenvalues
    for i in range(d):
        e_i = tuple(1 if j == i else 0 for j in range(d))
        wlin = w.get(e_i)
        scale = max(np.max(np.abs(right)), 1e-300)
        if np.max(np.abs(wlin - right[:, i])) > 1e-9 * scale:
            raise ValidationError(f"W linear part does not match eigenvector {i}")
        rlin = r.get(e_i)
        expect = np.zeros(d, dtype=complex)
        expect[i] = lam[i]
        if np.max(np.abs(rlin - expect)) > 1e-9 * max(np.max(np.abs(lam)), 1e-300):
            raise ValidationError(f"R linear part does not match eigenvalue {i}")
    return model
