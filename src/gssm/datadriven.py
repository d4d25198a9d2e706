"""Data-driven reduced models from scalar time series.

The pipeline is delay embedding -> PCA tangent chart -> finite-difference
derivative targets -> one regression of the reduced vector field as
rationals with a shared, positivity-constrained denominator. The positivity
constraint is what keeps fitted denominators from sneaking a zero into the
training region; denominator order 0 gives the polynomial baseline.
"""

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np
from scipy.optimize import linprog, minimize, nnls
from scipy.signal import savgol_filter

from .errors import NumericalError, ValidationError
from .pade import RationalMap
from .reduced import ReducedField, integrate_reduced
from .series import (MultiSeries, format_float, indices_up_to_order,
                     monomial_matrix, read_header, read_sections, text_reader)
from .trajectory import TrajectoryData

ORTHONORMAL_TOL = 1e-10
DEFAULT_MARGIN = 1e-3
CONSTRAINT_SLACK = 1e-9
HUGE_OBJECTIVE = 1e50
# stage 2's working set of margin rows starts as every WORKING_SET_STRIDE-th
# sample plus the WORKING_SET_LOWEST * (q - 1) samples of lowest denominator
# (q - 1 free denominator coefficients); a growth step adds the samples
# below the margin and that many lowest ones again
WORKING_SET_STRIDE = 20
WORKING_SET_LOWEST = 25
# SLSQP iterations per stage-2 start, shared by its working-set runs
STAGE2_MAXITER = 500


@dataclass
class EmbeddingConfig:
    """Sliding-window delay map y(t) -> (y(t), y(t-lag*dt), ...)."""

    delays: int
    lag: int = 1
    observable: int = 0

    def __post_init__(self):
        if int(self.delays) != self.delays or self.delays < 1:
            raise ValidationError("delays must be a positive integer")
        if int(self.lag) != self.lag or self.lag < 1:
            raise ValidationError("lag must be a positive integer")
        self.delays = int(self.delays)
        self.lag = int(self.lag)

    def window_length(self) -> int:
        return (self.delays - 1) * self.lag + 1

    def check_for_dimension(self, d: int) -> None:
        """Embedding-theorem margin: more than twice the manifold dimension."""
        if self.delays <= 2 * d:
            raise ValidationError(
                f"{self.delays} delays cannot chart a {d}-dimensional "
                f"manifold reliably; need more than {2 * d}")


def delay_embed(series: TrajectoryData, cfg: EmbeddingConfig) -> TrajectoryData:
    series.uniform_dt()
    y = series.component(cfg.observable)
    need = cfg.window_length()
    if series.n_samples < need:
        raise ValidationError(
            f"series of length {series.n_samples} is too short to embed "
            f"with {cfg.delays} delays at lag {cfg.lag}; need {need}")
    start = (cfg.delays - 1) * cfg.lag
    cols = [y[start - j * cfg.lag: len(y) - j * cfg.lag]
            for j in range(cfg.delays)]
    return TrajectoryData(series.times[start:], np.column_stack(cols))


@dataclass
class ChartProjection:
    """Orthonormal basis of the tangent space plus the chart origin."""

    basis: np.ndarray
    center: np.ndarray

    def __post_init__(self):
        self.basis = np.asarray(self.basis, dtype=float)
        self.center = np.asarray(self.center, dtype=float)
        if self.basis.ndim != 2:
            raise ValidationError("basis must be a q x d matrix")
        q, d = self.basis.shape
        if self.center.shape != (q,):
            raise ValidationError("center length must match the basis rows")
        gram = self.basis.T @ self.basis
        if np.max(np.abs(gram - np.eye(d))) > ORTHONORMAL_TOL:
            raise ValidationError("basis columns are not orthonormal")

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def reduced_dim(self) -> int:
        return self.basis.shape[1]

    def project(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        return (pts - self.center) @ self.basis

    def reconstruct(self, reduced) -> np.ndarray:
        eta = np.asarray(reduced, dtype=float)
        return eta @ self.basis.T + self.center


def tangent_space_pca(embedded, d: int,
                      center: Optional[np.ndarray] = None) -> ChartProjection:
    """Top-d principal directions of the centered embedded samples.

    The center defaults to the mean of the last 10% of the samples of each
    trajectory, which is where trajectories have settled near the anchor
    fixed point.
    """
    if isinstance(embedded, (TrajectoryData, np.ndarray)):
        embedded = [embedded]
    blocks = [t.values if isinstance(t, TrajectoryData) else
              np.asarray(t, dtype=float) for t in embedded]
    q = blocks[0].shape[1]
    if any(b.shape[1] != q for b in blocks):
        raise ValidationError("embedded trajectories have mixed dimensions")
    if d < 1 or d > q:
        raise ValidationError(f"cannot extract {d} directions from {q} dims")
    if center is None:
        tails = [b[-max(1, int(round(0.1 * len(b)))):]
                 for b in blocks]
        center = np.mean(np.vstack(tails), axis=0)
    center = np.asarray(center, dtype=float)
    X = np.vstack(blocks) - center
    _, svals, vt = np.linalg.svd(X, full_matrices=False)
    tol = max(X.shape) * np.finfo(float).eps * svals[0]
    if len(svals) < d or svals[d - 1] <= tol:
        raise NumericalError(
            f"sample matrix rank is below {d}; the data does not span "
            "the requested tangent space")
    basis = vt[:d].T.copy()
    for j in range(d):
        k = int(np.argmax(np.abs(basis[:, j])))
        if basis[k, j] < 0:
            basis[:, j] = -basis[:, j]
    return ChartProjection(basis, center)


def estimate_derivatives(traj: TrajectoryData,
                         smooth_window: Optional[int] = None) -> TrajectoryData:
    """Fourth-order finite-difference time derivatives of each component,
    after a cubic Savitzky-Golay filter of smooth_window samples if given."""
    dt = traj.uniform_dt()
    if traj.n_samples < 5:
        raise ValidationError("need at least 5 samples for the stencil")
    vals = np.asarray(traj.values, dtype=float)
    if smooth_window is not None:
        if not 3 < smooth_window <= traj.n_samples:
            raise ValidationError(f"smooth_window {smooth_window} is outside "
                                  f"savgol_filter's 4..{traj.n_samples}")
        vals = savgol_filter(vals, smooth_window, 3, axis=0)
    f = vals
    d = np.empty_like(f)
    d[2:-2] = (f[:-4] - 8.0 * f[1:-3] + 8.0 * f[3:-1] - f[4:]) / (12.0 * dt)
    d[0] = (-25.0 * f[0] + 48.0 * f[1] - 36.0 * f[2]
            + 16.0 * f[3] - 3.0 * f[4]) / (12.0 * dt)
    d[1] = (-3.0 * f[0] - 10.0 * f[1] + 18.0 * f[2]
            - 6.0 * f[3] + f[4]) / (12.0 * dt)
    d[-2] = (3.0 * f[-1] + 10.0 * f[-2] - 18.0 * f[-3]
             + 6.0 * f[-4] - f[-5]) / (12.0 * dt)
    d[-1] = (25.0 * f[-1] - 48.0 * f[-2] + 36.0 * f[-3]
             - 16.0 * f[-4] + 3.0 * f[-5]) / (12.0 * dt)
    return TrajectoryData(traj.times, d)


@dataclass
class RegressionProblem:
    """Samples (eta_i, zeta_i) and the rational orders to fit."""

    inputs: np.ndarray
    targets: np.ndarray
    numerator_order: int
    denominator_order: int
    margin: float = DEFAULT_MARGIN

    def __post_init__(self):
        self.inputs = np.atleast_2d(np.asarray(self.inputs, dtype=float))
        self.targets = np.asarray(self.targets, dtype=float)
        if self.targets.ndim == 1:
            self.targets = self.targets[:, None]
        if self.inputs.shape[0] != self.targets.shape[0]:
            raise ValidationError("inputs and targets disagree on the "
                                  "number of samples")
        if self.numerator_order < 0 or self.denominator_order < 0:
            raise ValidationError("orders must be nonnegative")
        if not self.margin > 0:
            raise ValidationError("positivity margin must be positive")
        if self.inputs.shape[0] * self.n_outputs < self.n_parameters:
            raise ValidationError(
                f"{self.inputs.shape[0]} samples of {self.n_outputs} "
                f"outputs cannot determine {self.n_parameters} coefficients")

    @property
    def dim(self) -> int:
        return self.inputs.shape[1]

    @property
    def n_outputs(self) -> int:
        return self.targets.shape[1]

    @property
    def n_parameters(self) -> int:
        p = len(indices_up_to_order(self.dim, self.numerator_order))
        q = len(indices_up_to_order(self.dim, self.denominator_order))
        return self.n_outputs * p + q - 1


@dataclass
class RationalFit:
    """A fitted rational field and how the fit went.

    error is the quotient error sum |zeta - num/den|^2 of the returned
    coefficients.  stage1_error is the same error at the stage-1
    coefficients, where an active margin puts the denominator at the margin
    on some samples; dividing by it there makes the value sensitive to the
    stage-1 denominator (on chaos_fit's problems it moved by up to 6e-6
    relative when b moved by under 1e-6).  Compare it only as an upper bound:
    error <= stage1_error.  restart_den_ranges holds the denominator's
    (min, max) on the samples at each stage-2 end point that stayed finite;
    start_runs holds, for each stage-2 start, its SLSQP iterations summed
    over its working-set runs, the status of its last run, the quotient
    error at its end point (HUGE_OBJECTIVE where that is not finite) and
    the number of margin rows its last run had (0 without the margin).
    """

    rational: RationalMap
    error: float
    stage1_error: float
    n_parameters: int
    active_constraints: int
    min_denominator: float
    flags: List[str] = field(default_factory=list)
    restart_den_ranges: List[tuple] = field(default_factory=list)
    start_runs: List[tuple] = field(default_factory=list)

    def summary(self) -> str:
        n_const = self.rational.numerator.dim_out
        lines = [
            f"fit error: {self.error:.6e}",
            f"linearized-stage error: {self.stage1_error:.6e}",
            f"coefficients: {self.n_parameters} "
            f"({self.n_parameters - n_const} excluding constant terms)",
            f"min denominator on data: {self.min_denominator:.6e}",
            f"active positivity constraints: {self.active_constraints}",
        ]
        lines += [f"stage-2 start {i}: {nit} SLSQP iterations, status "
                  f"{status}, error {err:.6e}, {rows} margin rows"
                  for i, (nit, status, err, rows) in
                  enumerate(self.start_runs)]
        lines += [f"note: {fl}" for fl in self.flags]
        return "\n".join(lines)


def _denominator(psi_tail, b):
    """The denominator 1 + sum_i b_i psi_i at every sample."""
    return 1.0 + psi_tail @ b


def _quotient_terms(theta, phi, psi_tail, targets, n_out):
    """Numerators, denominator and residual targets - num / den at theta."""
    p = phi.shape[1]
    a = theta[:n_out * p].reshape(n_out, p)
    den = _denominator(psi_tail, theta[n_out * p:])
    with np.errstate(all="ignore"):
        num = phi @ a.T
        resid = targets - num / den[:, None]
    return num, den, resid


def _squared_norm(resid):
    with np.errstate(all="ignore"):
        val = float(np.sum(resid * resid))
    return val if np.isfinite(val) else HUGE_OBJECTIVE


def _quotient_error(theta, phi, psi_tail, targets, n_out):
    return _squared_norm(_quotient_terms(theta, phi, psi_tail, targets,
                                         n_out)[2])


def _finite(g):
    """g with what a zero denominator breaks (inf, nan) set to 0."""
    if np.isfinite(g).all():
        return g
    return np.nan_to_num(g, nan=0.0, posinf=0.0, neginf=0.0)


def _denominator_gradient(terms, psi_tail):
    """The b-block of the quotient error's gradient from its
    _quotient_terms."""
    num, den, resid = terms
    with np.errstate(all="ignore"):
        # sum(resid * num, axis=1) column by column: np.sum's order on a few
        # columns, without its reduction per row
        parts = resid * num
        dots = parts[:, 0]
        for column in parts.T[1:]:
            dots = dots + column
        return _finite(2.0 * psi_tail.T @ (dots / den ** 2))


def _quotient_gradient(terms, phi, psi_tail):
    """Gradient of the quotient error from its _quotient_terms."""
    _, den, resid = terms
    with np.errstate(all="ignore"):
        ga = -2.0 * (resid / den[:, None]).T @ phi
    return np.concatenate([_finite(ga.ravel()),
                           _denominator_gradient(terms, psi_tail)])


def _solve_a_given_b(phi, psi_tail, targets, b):
    """The numerator that fits best at a frozen denominator, for each
    output: a = argmin |targets - (phi / den) a|.

    It solves the normal equations phi^T diag(den^-2) phi a = phi^T
    (targets / den) where their Gram matrix is numerically positive
    definite: every Cholesky pivot above the k * eps rounding of forming
    it.  Elsewhere np.linalg.lstsq solves the least-squares problem.  The
    normal equations' residual is the error's gradient in a, so solving
    them, not the least-squares problem, keeps the denominator block an
    accurate gradient of the error at a(b).
    """
    den = _denominator(psi_tail, b)
    with np.errstate(all="ignore"):
        w = phi / den[:, None]
        gram = w.T @ w
    if not np.isfinite(gram).all():  # a zero of the denominator on a sample
        return np.full((targets.shape[1], phi.shape[1]), np.nan)
    try:
        pivots = np.diag(np.linalg.cholesky(gram)) ** 2
    except np.linalg.LinAlgError:
        pivots = np.zeros(len(gram))
    if np.any(pivots <= len(phi) * np.finfo(float).eps * np.diag(gram)):
        return np.linalg.lstsq(w, targets, rcond=None)[0].T
    return np.linalg.solve(gram, w.T @ targets).T


def _feasibility_certificate(psi_tail):
    """Largest achievable min-denominator; proves infeasibility when < margin."""
    k, m = psi_tail.shape
    if m == 0:
        return 1.0
    # maximize s subject to 1 + psi_tail b >= s for every sample
    c = np.zeros(m + 1)
    c[-1] = -1.0
    a_ub = np.hstack([-psi_tail, np.ones((k, 1))])
    res = linprog(c, A_ub=a_ub, b_ub=np.ones(k),
                  bounds=[(None, None)] * (m + 1), method="highs")
    if res.status == 3:
        return float("inf")
    if not res.success:
        return 1.0
    return float(res.x[-1])


def _rank(s, shape):
    """Numerical rank from singular values s, at np.linalg.lstsq's default
    cutoff max(shape) * eps * s_max."""
    return int(np.sum(s > max(shape) * np.finfo(float).eps * s[:1].sum()))


def _constrained_lstsq(e, f, g, h):
    """min |e x - f| subject to g x >= h, with x in the row space of e.

    Lawson & Hanson (Solving Least Squares Problems, 1974, ch. 23): the SVD
    e = U S V^T and x = V S^-1 (z + U^T f) turn the problem into the
    least-distance problem min |z| subject to G z >= h - G U^T f,
    G = g V S^-1, and one NNLS solves that.  None if it is infeasible.
    """
    u, s, vt = np.linalg.svd(e, full_matrices=False)
    r = _rank(s, e.shape)
    u, s, v = u[:, :r], s[:r], vt[:r].T
    proj = u.T @ f
    gs = (g @ v) / s
    hs = h - gs @ proj
    w = nnls(np.vstack([gs.T, hs]), np.r_[np.zeros(r), 1.0])[0]
    fac = 1.0 - hs @ w
    if not 1.0 + fac > 1.0:
        return None
    return v @ ((gs.T @ w / fac + proj) / s)


def _stage1_denominator(phi, psi_tail, targets, delta):
    """The denominator's b of the linearized fit under the margin: minimize
    sum_j |den * zeta_j - phi a_j|^2 subject to den >= delta on every sample.

    The numerators are free, so an orthonormal basis of range(phi) projects
    them out and _constrained_lstsq solves for b alone; b = 0 (the unit
    denominator) when that reports the constraints infeasible.
    """
    u, s, _ = np.linalg.svd(phi, full_matrices=False)
    basis = u[:, :_rank(s, phi.shape)]
    # per output j: den * zeta_j = psi_tail b * zeta_j + zeta_j
    cols = np.concatenate([psi_tail * targets.T[:, :, None],
                           targets.T[:, :, None]], axis=2)
    cols -= basis @ (basis.T @ cols)
    m = psi_tail.shape[1]
    b = _constrained_lstsq(cols[..., :m].reshape(-1, m),
                           -cols[..., m].ravel(), psi_tail,
                           np.full(len(psi_tail), delta - 1.0))
    return np.zeros(m) if b is None else b


def fit_rational_field(prob: RegressionProblem, restarts: int = 1,
                       seed: int = 0, constrained: bool = True) -> RationalFit:
    """Shared-denominator rational fit of a sampled vector field.

    Stage 1 minimizes the linearized residual |den*zeta - num|^2 by least
    squares; if that denominator breaks the margin, the constrained problem
    is solved exactly for the denominator (_stage1_denominator) and the
    numerator again at it.  Stage 2 descends the true quotient error from
    there by SLSQP.  Both stages keep den(eta_i) >= margin on every
    training point unless constrained=False, which reproduces the
    spurious-pole failure mode and exists for comparison experiments only.
    With denominator order 0 the fit is the polynomial least-squares fit:
    stage 1 solves it and stage 2 is skipped.  A rank-deficient stage-1
    system is flagged.

    Stage 2 is variable projection (Golub & Pereyra 1973): SLSQP moves the
    q - 1 denominator coefficients b alone.  At each b the numerator is the
    least-squares one, a(b) = argmin |zeta - (phi / den) a|
    (_solve_a_given_b); the objective is the quotient error at (a(b), b),
    and its gradient is the b-block of the quotient error's gradient there,
    exact because a(b) is optimal at fixed b.  The margin rows are linear
    in b, with psi_tail's rows as their Jacobian.

    Stage 2 hands SLSQP the margin rows of a working set W of samples, not
    of all k (constraint generation, as in cutting-plane and active-set
    methods): every WORKING_SET_STRIDE-th sample plus the
    WORKING_SET_LOWEST * (q - 1) samples of lowest denominator at the
    start.  After each run the denominator is checked on every sample; if
    any falls below the margin by more than CONSTRAINT_SLACK, W gains those
    samples and the lowest ones at the end point, and SLSQP runs again from
    there.  W grows at each step (to all samples if it would not), so the
    loop ends, at worst with the full problem.  The runs from one start
    share STAGE2_MAXITER iterations, the cap one run over all rows had, and
    a start that ends below the margin is dropped.  The relaxed problem's
    feasible set contains the full one, so an accepted end point that is a
    local minimizer over W and feasible on every sample is a local
    minimizer of the full problem too.  When W holds every sample from the
    start (k <= WORKING_SET_LOWEST * (q - 1)) stage 2 is one SLSQP run over
    all rows.

    The first stage-2 start is the stage-1 denominator; each further one
    draws Gaussian noise of 0.3 times the largest stage-1 coefficient onto
    all of theta.  With the margin, the noisy denominator is halved until
    it holds the margin, and that b is the start.  The one exception to the
    b-only descent is an unconstrained perturbed start: it descends over
    all of theta from its noisy numerator.  Its far-off starts are what let
    some restart put a denominator zero inside the data hull for the
    comparison experiments; from a(b), every such restart ends with its
    denominator near 1.
    """
    if restarts < 1:
        raise ValidationError(f"restarts must be at least 1, got {restarts}")
    d, n_out = prob.dim, prob.n_outputs
    delta = prob.margin
    exps_num = indices_up_to_order(d, prob.numerator_order)
    exps_den = indices_up_to_order(d, prob.denominator_order)
    phi = monomial_matrix(prob.inputs, exps_num)
    psi = monomial_matrix(prob.inputs, exps_den)
    psi_tail = psi[:, 1:]
    k, p = phi.shape
    q = psi.shape[1]
    flags: List[str] = []

    if constrained and delta >= 1.0:
        best_floor = _feasibility_certificate(psi_tail)
        if best_floor < delta:
            raise ValidationError(
                f"positivity margin {delta:g} is infeasible: no denominator "
                f"with unit constant exceeds {best_floor:.6g} on all samples")

    def margin_of(b):
        return float(np.min(_denominator(psi_tail, b)))

    def shrink_to_feasible(b):
        # scaling toward b = 0 (denominator 1) restores the constraint
        for _ in range(80):
            if margin_of(b) >= delta:
                return b
            b = 0.5 * b
        return np.zeros_like(b)

    # stage 1: linearized problem
    big = np.zeros((k * n_out, n_out * p + q - 1))
    rhs = np.empty(k * n_out)
    for j in range(n_out):
        rows = slice(j * k, (j + 1) * k)
        big[rows, j * p:(j + 1) * p] = -phi
        big[rows, n_out * p:] = psi_tail * prob.targets[:, j:j + 1]
        rhs[j * k:(j + 1) * k] = -prob.targets[:, j]
    if q > 1:
        theta1, _, rank, _ = np.linalg.lstsq(big, rhs, rcond=None)
    else:  # the outputs decouple: one solve with n_out right-hand sides
        a1, _, rank, _ = np.linalg.lstsq(phi, prob.targets, rcond=None)
        theta1, rank = a1.T.ravel(), n_out * rank
    if rank < big.shape[1]:
        flags.append(f"rank-deficient linearized system ({rank} < "
                     f"{big.shape[1]}); minimum-norm coefficients")
    if constrained and margin_of(theta1[n_out * p:]) < delta:
        b1 = _stage1_denominator(phi, psi_tail, prob.targets, delta)
        # the solve meets the margin up to rounding, which stage 2 and the
        # final check forgive too
        if margin_of(b1) < delta - CONSTRAINT_SLACK:
            b1 = shrink_to_feasible(b1)
        theta1 = np.concatenate(
            [_solve_a_given_b(phi, psi_tail, prob.targets, b1).ravel(), b1])
    stage1_error = _quotient_error(theta1, phi, psi_tail, prob.targets, n_out)

    # stage 2: descend the true quotient objective; without a denominator
    # stage 1 already is the least-squares optimum.  A start of q - 1
    # values is a denominator's b, whose numerator is a(b); a longer one is
    # all of theta
    starts = []
    if q > 1:
        rng = np.random.default_rng(seed)
        scale = np.max(np.abs(theta1)) or 1.0
        starts = [theta1[n_out * p:]]
        for _ in range(restarts - 1):
            cand = theta1 + rng.normal(scale=0.3 * scale, size=theta1.shape)
            starts.append(shrink_to_feasible(cand[n_out * p:]) if constrained
                          else cand)
    best_theta, best_err = theta1, stage1_error
    refined = False
    den_ranges, runs = [], []
    # SLSQP asks for the error and then the gradient at each accepted
    # point: both come from one numerator solve and residual pass
    last = [None, None]

    def terms_at(x):
        """theta at SLSQP's variable x and its _quotient_terms."""
        if not np.array_equal(x, last[0]):
            theta = x if len(x) > q - 1 else np.concatenate(
                [_solve_a_given_b(phi, psi_tail, prob.targets, x).ravel(), x])
            last[:] = x.copy(), (theta, _quotient_terms(
                theta, phi, psi_tail, prob.targets, n_out))
        return last[1]

    def gradient(x):
        theta, terms = terms_at(x)
        if len(x) == len(theta):
            return _quotient_gradient(terms, phi, psi_tail)
        # a(b) is optimal at fixed b, so the error's derivative along the
        # numerator vanishes there and the b-block is the projected gradient
        return _denominator_gradient(terms, psi_tail)

    def margin_constraints(rows):
        # den >= delta on the samples in rows; all rows is psi_tail itself
        sub = psi_tail if len(rows) == k else psi_tail[rows]
        return [{"type": "ineq", "fun": lambda b: _denominator(sub, b) - delta,
                 "jac": lambda b: sub}]

    n_low = WORKING_SET_LOWEST * (q - 1)

    def lowest(dvals):
        if n_low >= k:
            return np.arange(k)
        return np.argpartition(dvals, n_low)[:n_low]

    def descend(start):
        """The end point of stage 2 from start and its denominator on every
        sample, or None if SLSQP leaves the finite numbers; with the start's
        SLSQP iterations, last status, final quotient error and margin rows
        of its last run."""
        rows = np.union1d(np.arange(0, k, WORKING_SET_STRIDE),
                          lowest(_denominator(psi_tail, start[-(q - 1):])))
        x, budget = start, STAGE2_MAXITER
        while True:
            res = minimize(lambda v: _squared_norm(terms_at(v)[1][2]), x,
                           jac=gradient, method="SLSQP",
                           constraints=margin_constraints(rows)
                           if constrained else [],
                           options={"maxiter": budget, "ftol": 1e-14})
            x, budget = res.x, budget - res.nit
            theta, terms = terms_at(x)
            run = (STAGE2_MAXITER - budget, int(res.status),
                   _squared_norm(terms[2]), len(rows) if constrained else 0)
            if not np.all(np.isfinite(theta)):
                return None, run
            dvals = _denominator(psi_tail, theta[n_out * p:])
            bad = np.flatnonzero(dvals < delta - CONSTRAINT_SLACK)
            if (not constrained or bad.size == 0 or len(rows) == k
                    or budget <= 0):
                return (theta, dvals), run
            grown = np.union1d(rows, np.union1d(bad, lowest(dvals)))
            rows = grown if len(grown) > len(rows) else np.arange(k)

    for start in starts:
        end, run = descend(start)
        runs.append(run)
        if end is None:
            continue
        theta, dvals = end
        den_ranges.append((float(np.min(dvals)), float(np.max(dvals))))
        if constrained and np.min(dvals) < delta - CONSTRAINT_SLACK:
            continue
        err = run[2]
        if err < best_err:
            best_theta, best_err, refined = theta, err, True
    if starts and not refined:
        flags.append("refinement did not improve the linearized fit; "
                     "keeping the stage-1 coefficients")
    if constrained:
        final_margin = margin_of(best_theta[n_out * p:])
        if final_margin < delta - CONSTRAINT_SLACK:
            raise NumericalError(
                f"fitted denominator drops to {final_margin:.6g} on the "
                f"training data, below the margin {delta:g}")

    b = best_theta[n_out * p:]
    num = MultiSeries.from_grlex(
        best_theta[:n_out * p].reshape(n_out, p).T.astype(complex, order="C"),
        d, prob.numerator_order)
    den = MultiSeries.from_grlex(
        np.concatenate([[1.0], b])[:, None].astype(complex), d,
        prob.denominator_order)
    rational = RationalMap(num, den,
                           (prob.numerator_order, prob.denominator_order))
    den_vals = _denominator(psi_tail, b)
    active = int(np.sum(den_vals - delta < 1e-8 * max(1.0, delta)))
    return RationalFit(rational, best_err, stage1_error, prob.n_parameters,
                       active if constrained else 0,
                       float(np.min(den_vals)), flags, den_ranges, runs)


def chart_to_text(chart: ChartProjection, cfg: EmbeddingConfig) -> str:
    lines = [f"chart {chart.ambient_dim} {chart.reduced_dim} "
             f"{cfg.delays} {cfg.lag} {cfg.observable}"]
    lines.append("CENTER")
    lines.append(" ".join(format_float(c) for c in chart.center))
    lines.append("BASIS")
    for row in chart.basis:
        lines.append(" ".join(format_float(c) for c in row))
    return "\n".join(lines) + "\n"


@text_reader("chart")
def chart_from_text(lines: List[str]):
    q, d, delays, lag, observable = (int(t) for t in
                                     read_header(lines, "chart", 5))
    sections = read_sections(lines[1:], ("CENTER", "BASIS"))
    if len(sections["CENTER"]) != 1 or len(sections["BASIS"]) != q:
        raise ValidationError(f"chart needs one CENTER row and {q} BASIS rows")
    center = np.array([float(t) for t in sections["CENTER"][0].split()])
    rows = [[float(t) for t in ln.split()] for ln in sections["BASIS"]]
    chart = ChartProjection(np.array(rows), center)
    if chart.reduced_dim != d:
        raise ValidationError("basis width disagrees with the header")
    return chart, EmbeddingConfig(delays, lag, observable)


def predict(chart: ChartProjection, fitted: RationalMap,
            window: TrajectoryData, cfg: EmbeddingConfig, horizon: float,
            n_out: int = 1001) -> TrajectoryData:
    """Embed the tail of a measured window, integrate, and reconstruct.

    Returns the observable (first embedding component) over the horizon;
    integration flags such as blowups ride along on the trajectory.
    """
    embedded = delay_embed(window, cfg)
    if embedded.n_components != chart.ambient_dim:
        raise ValidationError("embedding width does not match the chart")
    y0 = embedded.values[-1]
    t0 = float(embedded.times[-1])
    eta0 = chart.project(y0)
    traj = integrate_reduced(ReducedField.from_rationals(fitted), eta0,
                             (t0, t0 + horizon), n_out=n_out)
    recon = chart.reconstruct(traj.values)
    return TrajectoryData(traj.times, recon[:, 0], list(traj.flags))
