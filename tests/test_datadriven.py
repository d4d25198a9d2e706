import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly
from scipy.integrate import solve_ivp
from scipy.optimize import minimize

from gssm.datadriven import (ChartProjection, EmbeddingConfig,
                             RegressionProblem, chart_from_text,
                             chart_to_text, delay_embed,
                             estimate_derivatives, fit_rational_field,
                             predict, tangent_space_pca)
from gssm import datadriven
from gssm.datadriven import (_constrained_lstsq, _quotient_error,
                             _quotient_gradient, _quotient_terms,
                             _solve_a_given_b, _stage1_denominator)
from gssm.errors import NumericalError, ValidationError
from gssm.pade import RationalMap
from gssm.series import MultiSeries, indices_up_to_order, monomial_matrix
from gssm.trajectory import TrajectoryData


def test_delay_embed_windows():
    t = np.linspace(0.0, 1.0, 11)
    const = delay_embed(TrajectoryData(t, np.full(11, 3.5)), EmbeddingConfig(4))
    assert const.values.shape == (8, 4)
    assert np.allclose(const.values, 3.5)
    ramp = delay_embed(TrajectoryData(t, t.copy()), EmbeddingConfig(3, 1))
    assert np.allclose(ramp.values[0], [0.2, 0.1, 0.0])
    assert np.allclose(ramp.values[:, 0] - ramp.values[:, 1], 0.1)
    assert ramp.times[0] == pytest.approx(0.2)


def test_delay_embed_sinusoid_rank_two():
    t = np.linspace(0.0, 40.0, 2001)
    emb = delay_embed(TrajectoryData(t, np.sin(1.3 * t)), EmbeddingConfig(25, 8))
    s = np.linalg.svd(emb.values - emb.values.mean(axis=0), compute_uv=False)
    assert s[1] / s[0] > 1e-3
    assert s[2] / s[0] < 1e-10


def test_delay_embed_validation():
    t = np.linspace(0.0, 1.0, 11)
    tr = TrajectoryData(t, t.copy())
    with pytest.raises(ValidationError):
        delay_embed(tr, EmbeddingConfig(4, 4))
    with pytest.raises(ValidationError):
        EmbeddingConfig(0)
    with pytest.raises(ValidationError):
        EmbeddingConfig(5, -1)
    EmbeddingConfig(5).check_for_dimension(2)
    with pytest.raises(ValidationError):
        EmbeddingConfig(4).check_for_dimension(2)


def _principal_angles(a, b):
    # sine-based formula stays accurate for tiny angles
    perp = b - a @ (a.T @ b)
    return np.linalg.svd(perp, compute_uv=False)


def test_pca_recovers_planar_subspace():
    rng = np.random.default_rng(0)
    basis = np.linalg.qr(rng.normal(size=(7, 2)))[0]
    eta = rng.normal(size=(300, 2))
    chart = tangent_space_pca(eta @ basis.T, 2, center=np.zeros(7))
    assert np.max(_principal_angles(basis, chart.basis)) < 1e-8
    noisy = eta @ basis.T + 1e-3 * rng.standard_normal((300, 7))
    chart = tangent_space_pca(noisy, 2, center=np.zeros(7))
    assert np.max(_principal_angles(basis, chart.basis)) < 1e-2


def test_pca_full_dimension_and_rank_check():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(50, 3))
    chart = tangent_space_pca(x, 3, center=np.zeros(3))
    assert np.allclose(chart.basis @ chart.basis.T, np.eye(3), atol=1e-12)
    flat = np.outer(rng.normal(size=40), np.ones(3))
    with pytest.raises(NumericalError):
        tangent_space_pca(flat, 2, center=np.zeros(3))


def test_pca_default_center_is_late_time_mean():
    t = np.linspace(0.0, 1.0, 200)
    vals = np.column_stack([1.0 + np.exp(-8 * t), np.exp(-8 * t)])
    chart = tangent_space_pca(TrajectoryData(t, vals), 1)
    assert np.allclose(chart.center, [1.0, 0.0], atol=2e-3)


def test_chart_text_round_trip_is_exact():
    rng = np.random.default_rng(3)
    basis = np.linalg.qr(rng.normal(size=(5, 2)))[0]
    chart = ChartProjection(basis, np.array([0.1, -0.0, 1e-300, -2.5, 3.0]))
    cfg = EmbeddingConfig(5, 2, 0)
    text = chart_to_text(chart, cfg)
    back, back_cfg = chart_from_text(text)
    assert chart_to_text(back, back_cfg) == text
    assert np.array_equal(back.basis, chart.basis)
    assert np.array_equal(back.center, chart.center)
    assert (back_cfg.delays, back_cfg.lag, back_cfg.observable) == (5, 2, 0)
    rows = text.splitlines()
    for bad in (rows[:3] + rows[2:],             # two CENTER rows
                rows[:3] + rows[1:3] + rows[3:],  # a second CENTER section
                rows + rows[4:5]):               # one BASIS row too many
        with pytest.raises(ValidationError):
            chart_from_text("\n".join(bad))


def test_chart_projection_validates_orthonormality():
    with pytest.raises(ValidationError):
        ChartProjection(np.array([[1.0], [1.0]]), np.zeros(2))


def test_derivatives_polynomial_and_sinusoid():
    t = np.linspace(0.0, 2.0, 201)
    d = estimate_derivatives(TrajectoryData(t, t ** 2))
    assert np.max(np.abs(d.values[:, 0] - 2 * t)) < 1e-8
    t = np.arange(0.0, 3.0, 1e-2)
    d = estimate_derivatives(TrajectoryData(t, np.sin(t)))
    assert np.max(np.abs(d.values[:, 0] - np.cos(t))) < 1e-6


def test_derivatives_smoothing_recovers_noisy_slope():
    rng = np.random.default_rng(3)
    t = np.linspace(0.0, 1.0, 401)
    sigma = 1e-3
    y = 2.0 * t + sigma * rng.standard_normal(t.shape)
    d = estimate_derivatives(TrajectoryData(t, y), smooth_window=31)
    lsq_slope = np.polyfit(t, y, 1)[0]
    interior = d.values[40:-40, 0]
    assert abs(np.mean(interior) - lsq_slope) < 5 * sigma
    raw = estimate_derivatives(TrajectoryData(t, y))
    assert np.std(interior) < 0.1 * np.std(raw.values[40:-40, 0])


def test_rational_fit_exact_recovery():
    g1, g2 = np.meshgrid(np.linspace(-1, 1, 13), np.linspace(-1, 1, 13))
    pts = np.column_stack([g1.ravel(), g2.ravel()])
    zeta = pts[:, 0] / (1.0 + pts[:, 0] ** 2 + pts[:, 1] ** 2)
    fit = fit_rational_field(RegressionProblem(pts, zeta, 1, 2))
    assert fit.error < 1e-10
    assert np.allclose(fit.rational.numerator.get((1, 0)), 1.0, atol=1e-6)
    assert np.allclose(fit.rational.denominator.get((2, 0)), 1.0, atol=1e-6)
    assert np.allclose(fit.rational.denominator.get((0, 2)), 1.0, atol=1e-6)
    assert abs(fit.rational.numerator.get((0, 0))[0]) < 1e-6
    assert fit.error <= fit.stage1_error + 1e-12


def test_rational_fit_degenerates_to_polynomial_at_m_zero():
    rng = np.random.default_rng(5)
    pts = rng.uniform(-1, 1, size=(60, 2))
    zeta = 0.3 - pts[:, 0] + 2.0 * pts[:, 0] * pts[:, 1]
    rat = fit_rational_field(RegressionProblem(pts, zeta, 2, 0))
    exps = indices_up_to_order(2, 2)
    ref = np.linalg.lstsq(monomial_matrix(pts, exps), zeta, rcond=None)[0]
    assert rat.error < 1e-20
    for idx, c in zip(exps, ref):
        assert np.allclose(rat.rational.numerator.get(idx), c, atol=1e-8)
    assert rat.rational.denominator.coeffs.keys() == {(0, 0)}


def _noisy_double_well():
    """[3/2] problem of 41 samples of eta - eta^3 with 1% noise."""
    rng = np.random.default_rng(42)
    eta = np.linspace(-1.5, 1.5, 41)
    zeta = eta - eta ** 3
    noisy = zeta + 0.01 * np.max(np.abs(zeta)) * rng.standard_normal(eta.shape)
    return RegressionProblem(eta[:, None], noisy, 3, 2)


def test_double_well_roots_survive_noise():
    fit = fit_rational_field(_noisy_double_well(), restarts=10, seed=1)
    ncoef = [float(fit.rational.numerator.get((m,))[0].real) for m in range(4)]
    roots = sorted(r.real for r in npoly.polyroots(ncoef) if abs(r.imag) < 1e-6)
    assert len(roots) == 3
    assert np.allclose(roots, [-1.0, 0.0, 1.0], atol=0.1)
    assert fit.min_denominator >= 1e-3 - 1e-9


def test_unconstrained_fit_reproduces_the_pole_hazard():
    prob = _noisy_double_well()
    free = fit_rational_field(prob, restarts=10, seed=1, constrained=False)
    assert any(lo < 0.0 < hi for lo, hi in free.restart_den_ranges)
    safe = fit_rational_field(prob, restarts=10, seed=1)
    assert not any(lo < 0.0 < hi for lo, hi in safe.restart_den_ranges)
    assert safe.min_denominator >= 1e-3 - 1e-9


def test_infeasible_margin_is_rejected_with_certificate():
    pts = np.linspace(-1.0, 1.0, 21)[:, None]
    zeta = pts[:, 0] ** 2
    with pytest.raises(ValidationError, match="infeasible"):
        fit_rational_field(RegressionProblem(pts, zeta, 2, 2, margin=2.0))


def test_constrained_lstsq_closed_forms():
    rng = np.random.default_rng(8)
    # min |x - c| subject to x >= 0 is max(c, 0)
    c = rng.normal(size=6)
    x = _constrained_lstsq(np.eye(6), c, np.eye(6), np.zeros(6))
    assert np.allclose(x, np.maximum(c, 0.0), rtol=0.0, atol=1e-14)
    # with every constraint inactive it is the least-squares solution
    e, f = rng.normal(size=(30, 4)), rng.normal(size=30)
    ref = np.linalg.lstsq(e, f, rcond=None)[0]
    x = _constrained_lstsq(e, f, np.vstack([np.eye(4), -np.eye(4)]),
                           np.full(8, -1e3))
    assert np.allclose(x, ref, rtol=1e-12, atol=0.0)
    # x >= 1 and -x >= 1 exclude each other
    assert _constrained_lstsq(np.eye(1), np.ones(1), np.array([[1.0], [-1.0]]),
                              np.ones(2)) is None


def test_infeasible_stage1_falls_back_to_the_unit_denominator():
    # den = 1 + b x >= 2 at x = -1 and x = 1 needs b >= 1 and b <= -1
    x = np.array([[-1.0], [1.0], [0.5]])
    phi = monomial_matrix(x, indices_up_to_order(1, 0))
    b = _stage1_denominator(phi, x, np.ones((3, 1)), 2.0)
    assert np.array_equal(b, np.zeros(1))


def _linearized(pts, zeta, n, m):
    """phi, psi_tail and the linearized system |big (a, b) - rhs|^2."""
    phi = monomial_matrix(pts, indices_up_to_order(pts.shape[1], n))
    psi_tail = monomial_matrix(pts, indices_up_to_order(pts.shape[1], m))[:, 1:]
    return phi, psi_tail, np.hstack([-phi, psi_tail * zeta[:, None]]), -zeta


@pytest.mark.parametrize("zeta_of", [
    lambda x: (x - x ** 3) / (1.0 - 1.5 * x ** 2) + 0.01 *
    np.random.default_rng(3).standard_normal(x.shape),
    lambda x: np.tan(2.0 * x)])
def test_stage1_is_no_worse_than_a_tight_slsqp_reference(zeta_of):
    # data whose unconstrained linearized denominator changes sign
    x = np.linspace(-1.0, 1.0, 41)
    zeta, margin = zeta_of(x), 1e-3
    phi, psi_tail, big, rhs = _linearized(x[:, None], zeta, 3, 2)
    p = phi.shape[1]
    free = np.linalg.lstsq(big, rhs, rcond=None)[0]
    assert np.min(1.0 + psi_tail @ free[p:]) < margin

    def best_over_a(b):
        """The linearized objective at b, minimized over the numerator."""
        den = 1.0 + psi_tail @ b
        r = den * zeta - phi @ np.linalg.lstsq(phi, den * zeta, rcond=None)[0]
        return float(r @ r)

    jac = np.hstack([np.zeros_like(phi), psi_tail])
    start = np.concatenate([np.linalg.lstsq(phi, zeta, rcond=None)[0],
                            np.zeros(psi_tail.shape[1])])
    ref = minimize(lambda th: float((big @ th - rhs) @ (big @ th - rhs)),
                   start, jac=lambda th: 2.0 * big.T @ (big @ th - rhs),
                   method="SLSQP", options={"maxiter": 1000, "ftol": 1e-15},
                   constraints=[{"type": "ineq", "jac": lambda th: jac,
                                 "fun": lambda th: 1.0 + psi_tail @ th[p:]
                                 - margin}])
    # SLSQP ends up to ~1e-12 below the margin, which lowers its objective:
    # pull its b toward the unit denominator until it meets the margin
    floor = np.min(1.0 + psi_tail @ ref.x[p:])
    assert floor >= margin - 1e-9
    ref_b = ref.x[p:] * min(1.0, (1.0 - margin) / (1.0 - floor))
    b = _stage1_denominator(phi, psi_tail, zeta[:, None], margin)
    assert np.min(1.0 + psi_tail @ b) >= margin - 1e-12
    assert best_over_a(b) <= best_over_a(ref_b) * (1.0 + 1e-12)


def test_rank_deficient_constrained_stage1():
    # samples on a line in the plane make the [1/2] system rank deficient,
    # and the unconstrained denominator of 1 / (1 - 1.5 x^2) dips to -0.5
    x = np.linspace(-1.0, 1.0, 41)
    pts = np.column_stack([x, 0.5 * x])
    zeta = 1.0 / (1.0 - 1.5 * x ** 2)
    _, psi_tail, big, rhs = _linearized(pts, zeta, 1, 2)
    free = np.linalg.lstsq(big, rhs, rcond=None)[0]
    assert np.min(1.0 + psi_tail @ free[3:]) < 0.0
    prob = RegressionProblem(pts, zeta, 1, 2)
    fit = fit_rational_field(prob)
    assert any("rank-deficient" in fl for fl in fit.flags)
    assert fit.min_denominator >= prob.margin - 1e-9
    assert np.isfinite(fit.error) and fit.error <= fit.stage1_error


def _gradient_problem(rng, n_out, k=40, p=4, q=3):
    phi = rng.standard_normal((k, p))
    psi_tail = 0.3 * rng.standard_normal((k, q))
    targets = rng.standard_normal((k, n_out))
    theta = 0.5 * rng.standard_normal(n_out * p + q)
    return theta, phi, psi_tail, targets


@pytest.mark.parametrize("n_out", [1, 2, 3])
def test_quotient_gradient_matches_central_differences(n_out):
    rng = np.random.default_rng(n_out)
    theta, phi, psi_tail, targets = _gradient_problem(rng, n_out)
    grad = _quotient_gradient(
        _quotient_terms(theta, phi, psi_tail, targets, n_out), phi, psi_tail)
    step, fd = 1e-6, []
    for e in np.eye(len(theta)):
        up, down = (_quotient_error(theta + sign * step * e, phi, psi_tail,
                                    targets, n_out) for sign in (1.0, -1.0))
        fd.append((up - down) / (2.0 * step))
    assert np.max(np.abs(grad - fd)) <= 1e-6 * np.max(np.abs(grad))


def test_quotient_gradient_zeroes_what_a_zero_denominator_breaks():
    rng = np.random.default_rng(7)
    theta, phi, psi_tail, targets = _gradient_problem(rng, 2)
    psi_tail[0] = [1.0, 0.0, 0.0]
    theta[-3:] = [-1.0, 0.2, 0.1]        # den = 1 + psi_tail @ b is 0 at 0
    terms = _quotient_terms(theta, phi, psi_tail, targets, 2)
    assert terms[1][0] == 0.0
    grad = _quotient_gradient(terms, phi, psi_tail)
    num, den, resid = terms
    with np.errstate(all="ignore"):
        raw = np.concatenate([
            (-2.0 * (resid / den[:, None]).T @ phi).ravel(),
            2.0 * psi_tail.T @ (np.sum(resid * num, axis=1) / den ** 2)])
    broken = ~np.isfinite(raw)
    assert broken.any()
    assert np.array_equal(grad, np.where(broken, 0.0, raw))


def test_regression_problem_counts_unknowns():
    pts = np.zeros((5, 2))
    with pytest.raises(ValidationError):
        RegressionProblem(pts, np.zeros(5), 3, 3)
    prob = RegressionProblem(np.zeros((25, 2)), np.zeros((25, 2)), 1, 2)
    assert prob.n_parameters == 2 * 3 + 5


def _two_output_sextic(n_samples):
    # order 6 in two variables: 28 monomials per output, 56 unknowns
    pts = np.random.default_rng(11).uniform(-1, 1, size=(n_samples, 2))
    zeta = np.column_stack([1.0 + pts[:, 0] ** 6, pts[:, 0] * pts[:, 1] ** 5])
    return pts, zeta


def test_two_output_fit_needs_fewer_samples_than_unknowns():
    fit = fit_rational_field(RegressionProblem(*_two_output_sextic(30), 6, 0))
    assert fit.n_parameters == 56
    assert fit.error < 1e-20
    assert np.allclose(fit.rational.numerator.get((6, 0)), [1.0, 0.0])
    assert np.allclose(fit.rational.numerator.get((1, 5)), [0.0, 1.0])


def test_samples_times_outputs_below_the_unknowns_is_refused():
    with pytest.raises(ValidationError, match="27 samples of 2 outputs "
                       "cannot determine 56 coefficients"):
        RegressionProblem(*_two_output_sextic(27), 6, 0)


def test_polynomial_fit_skips_the_refinement_stage():
    rng = np.random.default_rng(5)
    pts = rng.uniform(-1, 1, size=(60, 2))
    prob = RegressionProblem(pts, np.sin(2 * pts[:, 0]) * pts[:, 1], 3, 0)
    fit = fit_rational_field(prob)
    assert not any("refinement" in f for f in fit.flags)
    assert fit.restart_den_ranges == []
    assert fit.error == fit.stage1_error == \
        fit_rational_field(prob, restarts=3).error


def test_polynomial_fit_orders():
    rng = np.random.default_rng(7)
    x = rng.uniform(-1, 1, size=(80, 1))
    linear = fit_rational_field(RegressionProblem(x, 0.5 + 2.0 * x[:, 0], 1, 0))
    assert linear.error < 1e-24
    assert np.allclose(linear.rational.numerator.get((1,)), 2.0)
    cubic = 1.0 - x[:, 0] + 0.25 * x[:, 0] ** 3
    exact = fit_rational_field(RegressionProblem(x, cubic, 3, 0))
    assert exact.error < 1e-24
    short = fit_rational_field(RegressionProblem(x, cubic, 2, 0))
    assert short.error > 1e-4


def test_polynomial_rank_deficiency_flagged():
    x = np.zeros((10, 1))
    fit = fit_rational_field(RegressionProblem(x, np.ones(10), 2, 0))
    assert any("rank" in f for f in fit.flags)


def test_predict_linear_decay():
    basis = np.zeros((3, 1))
    basis[0, 0] = 1.0
    chart = ChartProjection(basis, np.zeros(3))
    field = RationalMap.polynomial(MultiSeries(1, 1, 1, {(1,): [-1.0]}))
    t = np.linspace(0.0, 0.5, 51)
    window = TrajectoryData(t, np.exp(-t))
    cfg = EmbeddingConfig(3, 1)
    pred = predict(chart, field, window, cfg, horizon=6.0)
    assert np.allclose(pred.values[:, 0], np.exp(-pred.times), atol=1e-8)
    assert abs(pred.values[-1, 0]) < 5e-3


def _hopf_rhs(t, s):
    x, y = s
    r2 = x * x + y * y
    return [x - y - x * r2, x + y - y * r2]


def test_limit_cycle_self_consistency():
    dt = 0.02
    t_train = np.arange(0.0, 60.0 + dt / 2, dt)
    sol = solve_ivp(_hopf_rhs, (0.0, 60.0), [0.4, 0.0], t_eval=t_train,
                    rtol=1e-10, atol=1e-12, dense_output=True)
    series = TrajectoryData(t_train, sol.y[0])
    cfg = EmbeddingConfig(5, 10)
    emb = delay_embed(series, cfg)
    chart = tangent_space_pca(emb, 2, center=np.zeros(5))
    eta = chart.project(emb.values)
    zeta = estimate_derivatives(TrajectoryData(emb.times, eta)).values
    fit = fit_rational_field(RegressionProblem(eta, zeta, 3, 2),
                             restarts=3, seed=0)
    assert fit.error <= fit.stage1_error + 1e-12
    assert fit.min_denominator >= 1e-3 - 1e-9

    horizon = 10.0 * np.pi
    window = TrajectoryData(t_train[:60], sol.y[0][:60])
    pred = predict(chart, fit.rational, window, cfg, horizon)
    ref = solve_ivp(_hopf_rhs, (pred.times[0], pred.times[-1]),
                    sol.sol(pred.times[0]), t_eval=pred.times,
                    rtol=1e-10, atol=1e-12)
    err = np.linalg.norm(pred.values[:, 0] - ref.y[0])
    assert err / np.linalg.norm(ref.y[0]) < 0.1


def _record_minimize(monkeypatch, prob):
    """Wrap datadriven.minimize; per call, the samples of its margin rows
    (none in an unconstrained fit), its start and its end point, as theta.
    Where SLSQP's variable is the denominator's b, the numerator stage 2
    pairs with it is the least-squares one at b, read here by lstsq."""
    d = prob.dim
    phi = monomial_matrix(prob.inputs,
                          indices_up_to_order(d, prob.numerator_order))
    psi_tail = monomial_matrix(
        prob.inputs, indices_up_to_order(d, prob.denominator_order))[:, 1:]
    index = {row.tobytes(): i for i, row in enumerate(psi_tail)}
    m = psi_tail.shape[1]
    calls = []
    real = datadriven.minimize

    def theta(x):
        if len(x) > m:
            return np.array(x)
        den = 1.0 + psi_tail @ x
        a = np.linalg.lstsq(phi / den[:, None], prob.targets, rcond=None)[0]
        return np.concatenate([a.T.ravel(), x])

    def wrapped(fun, x0, **kwargs):
        res = real(fun, x0, **kwargs)
        jacs = [c["jac"](x0) for c in kwargs["constraints"]]
        calls.append(({index[row[-m:].tobytes()] for jac in jacs
                       for row in jac}, theta(x0), theta(res.x)))
        return res

    monkeypatch.setattr(datadriven, "minimize", wrapped)
    return calls


def _stage1_theta(prob):
    """Stage 1's coefficients of a one-output fit whose linearized
    denominator meets the margin: the linearized least-squares solution."""
    zeta = prob.targets[:, 0]
    _, _, big, rhs = _linearized(prob.inputs, zeta, prob.numerator_order,
                                 prob.denominator_order)
    return np.linalg.lstsq(big, rhs, rcond=None)[0]


def _full_constraint_error(pts, zeta, n, m, margin, theta0):
    """Stage 2 as one SLSQP over the margin rows of every sample, from
    theta0: the quotient error at its end point."""
    phi = monomial_matrix(pts, indices_up_to_order(2, n))
    psi_tail = monomial_matrix(pts, indices_up_to_order(2, m))[:, 1:]
    p = phi.shape[1]

    def parts(th):
        den = 1.0 + psi_tail @ th[p:]
        num = phi @ th[:p]
        return num, den, zeta - num / den

    def error(th):
        return float(parts(th)[2] @ parts(th)[2])

    def gradient(th):
        num, den, r = parts(th)
        return np.concatenate([-2.0 * (r / den) @ phi,
                               2.0 * (r * num / den ** 2) @ psi_tail])

    jac = np.hstack([np.zeros((len(pts), p)), psi_tail])
    ref = minimize(error, theta0, jac=gradient, method="SLSQP",
                   options={"maxiter": 500, "ftol": 1e-14},
                   constraints=[{"type": "ineq", "jac": lambda th: jac,
                                 "fun": lambda th: 1.0 + psi_tail @ th[p:]
                                 - margin}])
    assert np.min(1.0 + psi_tail @ ref.x[p:]) >= margin - 1e-9
    return error(ref.x)


def _strip_problem(n_samples=1200, n_a=100, n_b=200, seed=3):
    """Samples of 0.01 / (1 - 0.6 x) on [-1, 1] x [-1, 1], except a strip A at
    y < -0.9 of alternating +-0.03 targets.  The linearized residual den * zeta
    - num is smallest where den is small on A, so stage 1's denominator is
    lowest there; the quotient fit puts it on the margin 0.5 on a strip B
    at x > 0.98, whose samples sit between the every-20th net rows.  The
    targets are small because SLSQP's ftol is absolute: at a quotient error
    of about 1e3 it cannot be met and SLSQP stops short of feasibility."""
    rng = np.random.default_rng(seed)
    n_bg = n_samples - n_a - n_b
    pts = np.vstack([
        np.column_stack([rng.uniform(-1, 0.95, n_bg),
                         rng.uniform(-0.85, 1, n_bg)]),
        np.column_stack([rng.uniform(-1, 0.95, n_a),
                         rng.uniform(-1, -0.9, n_a)]),
        np.column_stack([rng.uniform(0.98, 1.0, n_b),
                         rng.uniform(-0.85, 1, n_b)])])
    zeta = 0.01 / (1.0 - 0.6 * pts[:, 0]) + 1e-4 * rng.standard_normal(
        n_samples)
    zeta[n_bg:n_bg + n_a] = 0.03 * (-1.0) ** np.arange(n_a)
    off_net = np.flatnonzero(np.arange(n_samples) % datadriven.
                             WORKING_SET_STRIDE)[-n_b:]
    order = np.empty(n_samples, dtype=int)
    order[off_net] = np.arange(n_bg + n_a, n_samples)
    rest = np.setdiff1d(np.arange(n_samples), off_net)
    order[rest] = rng.permutation(n_bg + n_a)
    return pts[order], zeta[order]


def test_working_set_grows_to_a_margin_bound_outside_it(monkeypatch):
    pts, zeta = _strip_problem()
    prob = RegressionProblem(pts, zeta, 1, 1, margin=0.5)
    psi_tail = monomial_matrix(pts, indices_up_to_order(2, 1))[:, 1:]
    calls = _record_minimize(monkeypatch, prob)
    fit = fit_rational_field(prob)

    def den(theta):
        return 1.0 + psi_tail @ theta[-2:]

    assert len(calls) == 2
    first_rows = calls[0][0]
    assert len(first_rows) < 0.1 * len(pts)
    # more violators than a growth step's lowest rows (q - 1 = 2), so only
    # adding the violators themselves covers them
    violators = set(np.flatnonzero(den(calls[0][2]) < 0.5 - 1e-9))
    assert len(violators) > datadriven.WORKING_SET_LOWEST * 2
    # the re-solve starts at the end point with the violators added
    rows, start, end = calls[1]
    assert np.array_equal(start, calls[0][2])
    assert rows > first_rows
    assert rows >= violators
    assert len(rows) < len(pts)
    dvals = den(end)
    binding = set(np.flatnonzero(dvals - 0.5 < 1e-8))
    assert binding and not binding & first_rows
    assert fit.min_denominator >= prob.margin - 1e-9
    assert fit.restart_den_ranges == [(np.min(dvals), np.max(dvals))]
    ref = _full_constraint_error(pts, zeta, 1, 1, 0.5, calls[0][1])
    assert abs(fit.error - ref) <= 1e-8 * ref


def test_interior_optimum_needs_no_re_solve(monkeypatch):
    rng = np.random.default_rng(4)
    pts = rng.uniform(-1, 1, size=(1200, 2))
    zeta = (pts[:, 0] - pts[:, 1] ** 2) / (1.0 - 0.3 * pts[:, 0]) \
        + 0.01 * rng.standard_normal(1200)
    prob = RegressionProblem(pts, zeta, 2, 1)
    phi = monomial_matrix(pts, indices_up_to_order(2, 2))
    psi_tail = monomial_matrix(pts, indices_up_to_order(2, 1))[:, 1:]
    calls = _record_minimize(monkeypatch, prob)
    fit = fit_rational_field(prob, restarts=2, seed=3)
    assert len(calls) == 2
    assert all(len(rows) < 0.15 * len(pts) for rows, _, _ in calls)
    assert fit.active_constraints == 0
    assert fit.min_denominator > 0.5
    for (rows, start, end), (lo, hi), (_, _, err, n_rows) in zip(
            calls, fit.restart_den_ranges, fit.start_runs):
        dvals = 1.0 + psi_tail @ end[-2:]
        assert (lo, hi) == (np.min(dvals), np.max(dvals))
        # one run a start: its working set and its end point's error
        assert n_rows == len(rows)
        assert abs(err - _quotient_error(end, phi, psi_tail, prob.targets,
                                         1)) <= 1e-12 * err
    ref = min(_full_constraint_error(pts, zeta, 2, 1, prob.margin, start)
              for _, start, _ in calls)
    assert abs(fit.error - ref) <= 1e-8 * ref


def _hopf_problem():
    """chaos_fit's fit: 2,961 samples of the Hopf cycle, [3/2]."""
    t = np.arange(0.0, 60.0 + 0.01, 0.02)
    sol = solve_ivp(_hopf_rhs, (0.0, 60.0), [0.4, 0.0], t_eval=t,
                    rtol=1e-10, atol=1e-12)
    cfg = EmbeddingConfig(5, 10)
    emb = delay_embed(TrajectoryData(t, sol.y[0]), cfg)
    eta = tangent_space_pca(emb, 2, center=np.zeros(5)).project(emb.values)
    zeta = estimate_derivatives(TrajectoryData(emb.times, eta)).values
    return RegressionProblem(eta, zeta, 3, 2)


def test_stage2_hands_slsqp_a_small_share_of_the_margin_rows(monkeypatch):
    # 3 restarts, as chaos_fit; SLSQP's subproblem cost grows with the rows
    # it is given
    prob = _hopf_problem()
    eta = prob.inputs
    psi_tail = monomial_matrix(eta, indices_up_to_order(2, 2))[:, 1:]
    calls = _record_minimize(monkeypatch, prob)
    fit = fit_rational_field(prob, restarts=3)
    assert len(eta) == 2961
    assert 3 <= len(calls) <= 3 + 2
    assert max(len(rows) for rows, _, _ in calls) <= 0.15 * len(eta)
    assert fit.min_denominator >= 1e-3 - 1e-9


@pytest.mark.parametrize("seed", [0, 1, 5])
def test_every_stage2_start_converges_on_the_hopf_fit(monkeypatch, seed):
    # from a perturbed start that keeps its noisy numerator, SLSQP hits its
    # cap on seed 1 and stops with status 4, "inequality constraints
    # incompatible", on seed 5
    prob = _hopf_problem()
    real = datadriven.minimize
    runs = []

    def wrapped(fun, x0, **kwargs):
        res = real(fun, x0, **kwargs)
        runs.append((kwargs["options"]["maxiter"], res.nit, res.status))
        return res

    monkeypatch.setattr(datadriven, "minimize", wrapped)
    fit = fit_rational_field(prob, restarts=3, seed=seed)
    # one run per start: the start's first run gets the whole budget
    assert [cap for cap, _, _ in runs] == [datadriven.STAGE2_MAXITER] * 3
    for _, nit, status in runs:
        assert status == 0 and nit < datadriven.STAGE2_MAXITER
    assert [run[:2] for run in fit.start_runs] == [
        (nit, status) for _, nit, status in runs]
    assert fit.error <= fit.stage1_error
    assert fit.min_denominator >= prob.margin - 1e-9


def test_stage2_gradient_is_the_projected_errors_derivative(monkeypatch):
    # SLSQP moves b alone, and the error it sees is the quotient error at the
    # numerator a(b) that fits best at b; the b-block of the quotient
    # gradient is that error's derivative because a(b) is optimal at b
    prob = _hopf_problem()
    psi_tail = monomial_matrix(prob.inputs, indices_up_to_order(2, 2))[:, 1:]
    real = datadriven.minimize
    calls = []

    def wrapped(fun, x0, **kwargs):
        calls.append((fun, kwargs["jac"], np.array(x0)))
        return real(fun, x0, **kwargs)

    monkeypatch.setattr(datadriven, "minimize", wrapped)
    fit = fit_rational_field(prob, restarts=2, seed=0)
    assert len(calls) == 2
    (fun1, _, b1), (_, _, b2) = calls
    # the first start is stage 1's denominator, on the margin, where stage 1
    # took the numerator a(b) too; the second a perturbed one inside it
    assert fun1(b1) == fit.stage1_error
    assert np.min(1.0 + psi_tail @ b1) < 1.001 * prob.margin
    assert np.min(1.0 + psi_tail @ b2) >= prob.margin
    assert len(b1) == len(b2) == 5
    h = 1e-6
    for fun, jac, b in calls:
        # five-point central differences, exact through fourth order
        fd = np.array([(8.0 * (fun(b + h * e) - fun(b - h * e))
                        - fun(b + 2 * h * e) + fun(b - 2 * h * e)) / (12 * h)
                       for e in np.eye(len(b))])
        g = jac(b)
        assert np.linalg.norm(fd - g) <= 1e-6 * np.linalg.norm(g)


def _perturbed_draws(theta1, restarts, seed):
    """The stage-1 point plus each perturbed start's noise, in order."""
    rng = np.random.default_rng(seed)
    scale = np.max(np.abs(theta1))
    return [theta1 + rng.normal(scale=0.3 * scale, size=theta1.shape)
            for _ in range(restarts - 1)]


def test_constrained_restarts_start_at_the_numerator_of_their_denominator(
        monkeypatch):
    # the denominator is the noisy one halved until the margin holds; the
    # numerator is the least-squares one there
    prob = _noisy_double_well()
    phi = monomial_matrix(prob.inputs, indices_up_to_order(1, 3))
    psi_tail = monomial_matrix(prob.inputs, indices_up_to_order(1, 2))[:, 1:]
    calls = _record_minimize(monkeypatch, prob)
    fit_rational_field(prob, restarts=10, seed=1)
    # 41 samples: every run's working set is all of them, one run a start
    assert len(calls) == 10
    starts = [start for _, start, _ in calls]
    # the first start is stage 1's denominator
    theta1 = _stage1_theta(prob)
    assert np.array_equal(starts[0][4:], theta1[4:])
    draws = _perturbed_draws(theta1, 10, 1)
    for start, draw in zip(starts[1:], draws):
        b = start[4:]
        assert np.min(1.0 + psi_tail @ b) >= prob.margin
        assert any(np.array_equal(b, 0.5 ** j * draw[4:]) for j in range(81))
        a = _solve_a_given_b(phi, psi_tail, prob.targets, b)
        assert np.allclose(start[:4], a.ravel(), rtol=1e-12,
                           atol=1e-12 * np.max(np.abs(a)))


def test_unconstrained_restarts_keep_the_perturbed_numerator(monkeypatch):
    prob = _noisy_double_well()
    calls = _record_minimize(monkeypatch, prob)
    fit_rational_field(prob, restarts=10, seed=1, constrained=False)
    assert len(calls) == 10
    starts = [start for _, start, _ in calls]
    theta1 = _stage1_theta(prob)
    assert np.array_equal(starts[0][4:], theta1[4:])
    draws = _perturbed_draws(theta1, 10, 1)
    assert all(np.array_equal(s, d) for s, d in zip(starts[1:], draws))


def test_working_set_runs_share_one_iteration_budget(monkeypatch):
    # the re-solve gets what the first run left of STAGE2_MAXITER; with no
    # iterations left, the start ends below the margin and is dropped
    pts, zeta = _strip_problem()
    prob = RegressionProblem(pts, zeta, 1, 1, margin=0.5)
    real = datadriven.minimize
    calls = []

    def wrapped(fun, x0, **kwargs):
        res = real(fun, x0, **kwargs)
        calls.append((kwargs["options"]["maxiter"], res.nit))
        return res

    monkeypatch.setattr(datadriven, "minimize", wrapped)
    fit_rational_field(prob)
    assert len(calls) == 2
    (cap0, nit0), (cap1, nit1) = calls
    assert cap0 == datadriven.STAGE2_MAXITER and cap1 == cap0 - nit0
    assert nit0 < cap0
    calls.clear()
    monkeypatch.setattr(datadriven, "STAGE2_MAXITER", nit0)
    fit = fit_rational_field(prob)
    assert calls == [(nit0, nit0)]
    assert fit.restart_den_ranges[0][0] < prob.margin - 1e-9
    assert fit.min_denominator >= prob.margin - 1e-9
    assert any("keeping the stage-1 coefficients" in f for f in fit.flags)
