import dataclasses
import math
import time

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from gssm.errors import NumericalError, ValidationError
from gssm.pade import RationalMap, pade_multivariate, rational_parts
from gssm.reduced import (Forcing, ModalForcing, ReducedField, backbone,
                          _globalize_in_u, double_well_field,
                          foliation_forcing,
                          forced_response, forcing_projection,
                          integrate_reduced, lift, lyapunov_estimate,
                          poincare_sample, psd_estimate)
from gssm.reduced import (DEFAULT_ATOL, DEFAULT_RTOL, TAYLOR_ORDER, _Jets,
                          _run, _step_size)
from gssm.series import MultiSeries
from gssm.ssm import (PolarNormalForm, PolySystem, compute_ssm, extract_polar,
                      foliation_projection, realify_parametrization,
                      realify_reduced, spectral_analysis)
from gssm.systems import make_system
from gssm.trajectory import TrajectoryData, trajectory_from_csv, trajectory_to_csv

from closed_forms import jacobian_of


def test_exponential_decay():
    f = ReducedField.from_series(MultiSeries(1, 1, 1, {(1,): [-1.0]}))
    tr = integrate_reduced(f, [1.0], (0.0, 1.0))
    assert abs(tr.values[-1, 0] - math.exp(-1.0)) < 1e-8
    assert tr.flags == []


def test_forward_backward_reversibility():
    # the double well without its forcing
    f = ReducedField(double_well_field().rationals)
    ic = np.array([0.4, -0.2])
    fwd = integrate_reduced(f, ic, (0.0, 1.0))
    back = integrate_reduced(f, fwd.values[-1], (1.0, 0.0))
    assert np.allclose(back.values[-1], ic, atol=1e-6)


# Oracles of the Taylor integrator.  Each bound is at or below the error
# of the RK45 integration it replaced (rtol 1e-9, atol 1e-12), given in
# each test.


def test_forced_double_well_matches_dop853():
    # RK45: 5.3e-10
    def rhs(t, u):
        return [u[1], u[0] - u[0] ** 3 - 0.3 * u[1] + 0.5 * math.cos(1.2 * t)]

    ref = solve_ivp(rhs, (0.0, 20.0), [0.1, 0.1], method="DOP853",
                    rtol=1e-13, atol=1e-15).y[:, -1]
    tr = integrate_reduced(double_well_field(), [0.1, 0.1], (0.0, 20.0))
    assert tr.times[-1] == 20.0
    assert np.linalg.norm(tr.values[-1] - ref) <= 5e-10


def _forced_linear_oscillator():
    """x'' + 0.1 x' + x = 0.5 cos(1.3 t) and its closed-form flow."""
    k, c, amp, omega = 1.0, 0.1, 0.5, 1.3
    f = ReducedField.from_series(
        MultiSeries(2, 2, 1, {(1, 0): [0.0, -k], (0, 1): [1.0, -c]}),
        Forcing(amp, omega, [0.0, 1.0]))
    a = np.array([[0.0, 1.0], [-k, -c]])
    gain = amp / complex(k - omega ** 2, c * omega)

    def steady(t):
        z = gain * np.exp(1j * omega * t)
        return np.array([z.real, (1j * omega * z).real])

    def flow(t, t0, y0):
        return expm(a * (t - t0)) @ (y0 - steady(t0)) + steady(t)

    return f, flow


def test_forced_linear_oscillator_matches_closed_form():
    # the forcing's jet enters every order; RK45: 1.1e-9 forward and
    # 5.7e-9 backward, where the damping makes the flow grow
    f, flow = _forced_linear_oscillator()
    y0 = np.array([0.2, -0.1])
    for span, bound in (((0.0, 20.0), 1e-10), ((20.0, 0.0), 2e-10)):
        tr = integrate_reduced(f, y0, span, n_out=401)
        assert tr.flags == [] and tr.times[-1] == span[1]
        exact = np.array([flow(t, span[0], y0) for t in tr.times])
        assert np.max(np.abs(tr.values - exact)) <= bound


def _rational_oscillator():
    """Two maps with their own denominators, forced: u' = v / (1 + u^2/2),
    v' = (-u - v/10 + u^2 v/5) / (1 + v^2/5 + u v/10) + 0.3 cos(0.9 t)."""
    first = RationalMap(MultiSeries(2, 1, 1, {(0, 1): [1.0]}),
                        MultiSeries(2, 1, 2, {(0, 0): [1.0], (2, 0): [0.5]}),
                        (1, 2))
    second = RationalMap(
        MultiSeries(2, 1, 3, {(1, 0): [-1.0], (0, 1): [-0.1], (2, 1): [0.2]}),
        MultiSeries(2, 1, 2, {(0, 0): [1.0], (0, 2): [0.2], (1, 1): [0.1]}),
        (3, 2))
    return ReducedField.from_rationals([first, second],
                                       Forcing(0.3, 0.9, [0.0, 1.0]))


def test_rational_field_matches_dop853_on_its_rhs():
    # the series-division recurrence against the evaluated field; RK45: 9.9e-10
    f = _rational_oscillator()
    times = np.linspace(0.0, 10.0, 101)
    ref = solve_ivp(f.rhs, (0.0, 10.0), [0.8, -0.3], method="DOP853",
                    rtol=1e-13, atol=1e-15, t_eval=times).y.T
    tr = integrate_reduced(f, [0.8, -0.3], (0.0, 10.0), n_out=101)
    assert np.array_equal(tr.times, times)
    assert np.max(np.abs(tr.values - ref)) <= 2e-10


def _deep_ssm_field():
    """The realified order-21 Shaw-Pierre reduced dynamics, forced: 130
    terms whose chain runs 21 monomials deep."""
    sp = make_system("shaw_pierre")
    model = compute_ssm(sp.realization, spectral_analysis(sp.realization, 2),
                        21, style="graph")
    return ReducedField.from_series(realify_reduced(model),
                                    Forcing(0.01, 1.1, [0.0, 1.0]))


def test_deep_ssm_field_matches_dop853_on_its_rhs():
    # RK45: 1.3e-9
    f = _deep_ssm_field()
    times = np.linspace(0.0, 30.0, 61)
    ref = solve_ivp(f.rhs, (0.0, 30.0), [0.2, 0.0], method="DOP853",
                    rtol=1e-13, atol=1e-15, t_eval=times).y.T
    tr = integrate_reduced(f, [0.2, 0.0], (0.0, 30.0), n_out=61)
    assert tr.flags == []
    assert np.max(np.abs(tr.values - ref)) <= 1e-9


def test_the_step_polynomial_solves_the_field():
    # an oracle free of the jets' own rounding: within a tenth of the step
    # size, the step polynomial's derivative is the field evaluated on it
    constants = MultiSeries(2, 2, 2, {(0, 0): [0.3, -0.2], (0, 1): [1.0, 0.0],
                                      (2, 0): [0.0, -1.0]})
    cases = ((double_well_field(), [[0.1, 0.1], [-1.2, 0.7]]),
             (_rational_oscillator(), [[0.8, -0.3], [-0.5, 0.4]]),
             (_deep_ssm_field(), [[0.2, 0.0], [-0.1, 0.15]]),
             (ReducedField.from_series(constants), [[0.5, 0.1], [0.0, -0.4]]))
    orders = np.arange(TAYLOR_ORDER + 1)
    for f, states in cases:
        jets = _Jets(f)
        for m in (1, 2):
            coeffs = jets.expand(0.7, np.array(states[:m]))
            h = _step_size(coeffs)
            assert 0.0 < h < math.inf
            flat = coeffs.reshape(TAYLOR_ORDER + 1, -1)
            for s in np.linspace(0.0, 0.1 * h, 6):
                y = (s ** orders) @ flat
                dy = (orders[1:] * s ** orders[:-1]) @ flat[1:]
                rhs = f.rhs(0.7 + s, y.reshape(m, -1)).ravel()
                assert np.max(np.abs(dy - rhs)) <= 1e-12 * np.max(np.abs(rhs))


def test_a_batched_pair_equals_two_separate_runs():
    for f, u, v in ((double_well_field(), [0.1, 0.1], [0.3, -0.2]),
                    (_rational_oscillator(), [0.8, -0.3], [-0.5, 0.4])):
        jets = _Jets(f)
        for span in ((0.0, 1.0), (5.0, 4.0)):
            _, pair, stop = _run(jets, u + v, span, pair=True)
            alone = np.concatenate([_run(jets, w, span)[1][-1]
                                    for w in (u, v)])
            assert stop is None and pair.shape[1] == 4
            tol = DEFAULT_ATOL + DEFAULT_RTOL * np.max(np.abs(alone))
            assert np.max(np.abs(pair[-1] - alone)) <= tol


def test_unit_denominators_skip_the_division_recurrence_exactly():
    # one polynomial field from a series and over the constant denominator
    # 1; both skip the recurrence past order 0, and the general path (the
    # flag cleared) must give the same bits
    poly = MultiSeries(2, 2, 3, {(0, 1): [1.0, 0.3], (1, 0): [0.0, 1.0],
                                 (3, 0): [0.0, -1.0], (1, 2): [0.2, 0.0]})
    unit = RationalMap(poly, MultiSeries.constant([1.0], 2, 0), (3, 0))
    forcing = Forcing(0.5, 1.2, [0.0, 1.0])
    series_jets = _Jets(ReducedField.from_series(poly, forcing))
    rational_jets = _Jets(ReducedField.from_rationals(unit, forcing))
    general_jets = _Jets(ReducedField.from_rationals(unit, forcing))
    general_jets.unit_denominators = False
    assert series_jets.unit_denominators and rational_jets.unit_denominators
    assert not _Jets(_rational_oscillator()).unit_denominators
    y0 = np.array([[0.3, -0.2], [1.1, 0.4]])
    # on either map to the parents' coefficients
    for product in (True, False):
        for jets in (series_jets, rational_jets, general_jets):
            jets.parent_product = product
        for m in (1, 2):
            ref = series_jets.expand(0.7, y0[:m])
            assert np.all(np.isfinite(ref)) and \
                np.any(ref[TAYLOR_ORDER] != 0.0)
            for jets in (rational_jets, general_jets):
                assert np.array_equal(jets.expand(0.7, y0[:m]), ref)


def _full_field(numerator: int, denominator: int) -> ReducedField:
    """A forced d = 2 field whose two maps hold every monomial up to the
    numerator's and the denominator's degree, as a fit's maps do."""
    rng = np.random.default_rng(1)

    def full(order, constant):
        coeffs = {(deg - i, i): rng.normal(size=1) * 0.5 ** deg
                  for deg in range(1, order + 1) for i in range(deg + 1)}
        coeffs[(0, 0)] = np.array([constant])
        return MultiSeries(2, 1, order, coeffs)

    maps = [RationalMap(full(numerator, 0.0), full(denominator, 1.0)
                        if denominator else MultiSeries.constant([1.0], 2, 0),
                        (numerator, denominator)) for _ in range(2)]
    return ReducedField.from_rationals(maps, Forcing(0.1, 1.1, [0.0, 1.0]))


def test_the_parent_product_and_the_gather_give_the_same_coefficients():
    # a small field maps the known parts to its parents' coefficients in
    # the product of each order, a large one by a gather; forced the other
    # way, each must give the same jets to rounding
    assert _Jets(_full_field(3, 2)).parent_product
    cases = ((double_well_field(), [[0.1, 0.1], [-1.2, 0.7]], True),
             (_rational_oscillator(), [[0.8, -0.3], [-0.5, 0.4]], True),
             (_full_field(5, 0), [[0.2, -0.1], [0.15, 0.1]], True),
             (_deep_ssm_field(), [[0.2, 0.0], [-0.1, 0.15]], False))
    for f, states, product in cases:
        jets, other = _Jets(f), _Jets(f)
        assert jets.parent_product == product
        other.parent_product = not product
        for m in (1, 2):
            ref = jets.expand(0.7, np.array(states[:m]))
            gap = other.expand(0.7, np.array(states[:m])) - ref
            assert np.all(np.isfinite(ref)) and \
                np.any(ref[TAYLOR_ORDER] != 0.0)
            assert np.all(np.max(np.abs(gap), axis=(1, 2))
                          <= 1e-13 * np.max(np.abs(ref), axis=(1, 2)))


def test_blowup_is_flagged_not_fatal():
    f = ReducedField.from_series(MultiSeries(1, 1, 2, {(2,): [1.0]}))
    tr = integrate_reduced(f, [1.0], (0.0, 2.0))
    assert any("blowup" in fl for fl in tr.flags)
    # u' = u^2 from 1 has its pole at t = 1
    assert abs(tr.times[-1] - 1.0) < 1e-3
    assert np.linalg.norm(tr.values[-1]) > 1e5


def test_step_collapse_of_a_polynomial_field_is_a_blowup():
    # u' = u^k from 1 ends at t* = 1/(k - 1); from k = 5 on the step size
    # collapses before the state norm reaches the blowup threshold
    for k in (3, 5, 7, 9):
        f = ReducedField.from_series(MultiSeries(1, 1, k, {(k,): [1.0]}))
        tr = integrate_reduced(f, [1.0], (0.0, 5.0))
        t_star = 1.0 / (k - 1)
        assert len(tr.flags) == 1 and tr.flags[0].startswith("blowup at t=")
        t_flag = float(tr.flags[0][len("blowup at t="):].split(":")[0])
        assert abs(t_flag - t_star) < 1e-3 and abs(tr.times[-1] - t_star) < 1e-3
    # the Lyapunov pair of the last field blows up in its first interval
    with pytest.raises(NumericalError, match="renormalization interval "
                       "stopped: blowup at t=0.125"):
        lyapunov_estimate(f, [1.0], transient=0.0)
    # u' = u^5 declared as the [5/0] rational is the same polynomial field
    # and ends with the same blowup at t* = 1/4
    rat = ReducedField.from_rationals(RationalMap(
        MultiSeries(1, 1, 5, {(5,): [1.0]}), MultiSeries(1, 1, 0, {(0,): [1.0]}),
        (5, 0)))
    assert rat.polynomial
    tr = integrate_reduced(rat, [1.0], (0.0, 5.0))
    assert len(tr.flags) == 1 and tr.flags[0].startswith("blowup at t=")
    t_flag = float(tr.flags[0][len("blowup at t="):].split(":")[0])
    assert abs(t_flag - 0.25) < 1e-3 and abs(tr.times[-1] - 0.25) < 1e-3
    # u' = u^7 / (1 + u^2) ends at t* = 1/6 + 1/4 with no pole on the way;
    # a nonconstant denominator's step collapse raises
    rat = ReducedField.from_rationals(RationalMap(
        MultiSeries(1, 1, 7, {(7,): [1.0]}),
        MultiSeries(1, 1, 2, {(0,): [1.0], (2,): [1.0]}), (7, 2)))
    assert not rat.polynomial
    with pytest.raises(NumericalError, match="integration failed: step size "
                       "collapsed at t=0.41"):
        integrate_reduced(rat, [1.0], (0.0, 5.0))


def test_pole_crossing_terminates_rational_field():
    num = MultiSeries(1, 1, 1, {(1,): [1.0]})
    den = MultiSeries(1, 1, 1, {(0,): [1.0], (1,): [-1.0]})
    rmap = RationalMap(num, den, (1, 1))
    f = ReducedField.from_rationals([rmap])
    tr = integrate_reduced(f, [0.5], (0.0, 10.0))
    assert any("pole" in fl for fl in tr.flags)
    assert tr.values[-1, 0] < 1.0
    with pytest.raises(ValidationError):
        integrate_reduced(f, [1.0 - 1e-9], (0.0, 1.0))
    # a denominator term written after the field is built is watched too
    unit = RationalMap(num, MultiSeries(1, 1, 1, {(0,): [1.0]}), (1, 1))
    f = ReducedField.from_rationals(unit)
    assert f.polynomial
    unit.denominator.coeffs[(1,)] = np.array([-1.0 + 0j])
    assert not f.polynomial
    tr = integrate_reduced(f, [0.5], (0.0, 10.0))
    assert any("pole" in fl for fl in tr.flags)


def test_lift_of_linear_flow_is_the_eigenplane_flow():
    sys = make_system("shaw_pierre").realization
    a = sys.linear_part
    lin = PolySystem(a, MultiSeries.zero(4, 4, 2))
    spec = spectral_analysis(lin, 2)
    model = compute_ssm(lin, spec, 3, style="graph")
    from gssm.ssm import realify_reduced
    field = ReducedField.from_series(realify_reduced(model))
    ab0 = np.array([0.03, -0.01])
    tr = integrate_reduced(field, ab0, (0.0, 2.0))
    lifted = lift(model, tr)
    p0 = complex(ab0[0], ab0[1])
    x0 = model.W.evaluate([p0, np.conj(p0)]).real
    for t, x in zip(lifted.times[::100], lifted.values[::100]):
        assert np.allclose(x, expm(a * t) @ x0, atol=1e-10)


def test_lift_fixed_point_and_pole_samples():
    sys = make_system("shaw_pierre").realization
    spec = spectral_analysis(sys, 2)
    model = compute_ssm(sys, spec, 3, style="graph")
    still = TrajectoryData(np.linspace(0, 1, 5), np.zeros((5, 2)))
    lifted = lift(model, still)
    assert np.allclose(lifted.values, 0.0)
    num = MultiSeries(1, 2, 1, {(1,): [1.0, 2.0]})
    den = MultiSeries(1, 1, 1, {(0,): [1.0], (1,): [-1.0]})
    chart = RationalMap(num, den, (1, 1))
    tr = TrajectoryData([0.0, 1.0], [[0.5], [1.0]])
    out = lift(chart, tr)
    assert np.allclose(out.values[0], [1.0, 2.0])
    assert np.all(np.isnan(out.values[1]))
    assert any("pole" in fl for fl in out.flags)


def test_lift_of_rational_chart_matches_per_sample_quotient():
    # the Shaw-Pierre [5/5] chart of the first coordinate on a (rho, angle)
    # grid out to rho = 8, two kernel blocks' worth of samples
    _, _, model = _shaw_pierre_nf(11)
    chart = pade_multivariate(realify_parametrization(model), 5, 5)[0]
    rr, tt = np.meshgrid(np.linspace(0.05, 8.0, 40),
                         np.linspace(0.0, 2.0 * np.pi, 32, endpoint=False))
    pts = np.column_stack([(rr * np.cos(tt)).ravel(),
                           (rr * np.sin(tt)).ravel()])
    lifted = lift(chart, TrajectoryData(np.arange(len(pts), dtype=float),
                                        pts))
    assert not lifted.flags

    def per_term(s, p):
        terms = [np.prod(p ** np.array(k)) * v[0] for k, v in s.coeffs.items()]
        return sum(terms), sum(abs(t) for t in terms)

    for p, got in zip(pts, lifted.values[:, 0]):
        num, num_scale = per_term(chart.numerator, p)
        den, den_scale = per_term(chart.denominator, p)
        want = num.real / den.real
        bound = 1e-13 * (num_scale + abs(want) * den_scale) / abs(den.real)
        assert abs(got - want) <= bound


def test_backbone_constant_for_linear_field():
    polar = PolarNormalForm(np.array([-0.5]), np.array([2.0]))
    curve = backbone(polar, np.linspace(0, 1, 5), component="kappa")
    assert np.allclose(curve[:, 1], -0.5)
    curve = backbone(polar, [0.0, 0.5, 1.0])
    assert np.allclose(curve[:, 1], 2.0)


def test_frc_linear_resonance_peak():
    c, w0, eps_f = 0.02, 1.5, 0.05
    polar = PolarNormalForm(np.array([-c]), np.array([w0]))
    grid = np.linspace(0.05, eps_f / c, 50)
    branch = forced_response(polar, polar, eps_f, grid)
    arr = branch.as_array()
    # peak response exactly eps_f/c, at the linear natural frequency
    imax = np.argmax(arr[:, 0])
    assert np.isclose(arr[imax, 0], eps_f / c)
    assert np.isclose(arr[imax, 1], w0, atol=1e-12)
    assert all(p.stable for p in branch.points)
    assert max(abs(p.residual) for p in branch.points) <= 1e-10
    # the two branches coincide where the square root vanishes
    top = [p for p in branch.points if np.isclose(p.rho, eps_f / c)]
    assert len(top) == 1


def test_frc_rejects_bad_inputs():
    polar = PolarNormalForm(np.array([-0.1]), np.array([1.0]))
    with pytest.raises(ValidationError):
        forced_response(polar, polar, 0.0, [0.1])
    with pytest.raises(ValidationError):
        forced_response(polar, polar, 0.1, [0.0, 0.1])
    # infeasible grid -> empty branch, not an error
    branch = forced_response(polar, polar, 1e-4, [0.5, 1.0])
    assert branch.points == []


def test_forcing_projection_uses_left_eigenvector():
    sys = make_system("shaw_pierre").realization
    spec = spectral_analysis(sys, 2)
    model = compute_ssm(sys, spec, 3, style="normal-form")
    vec = np.array([0.0, 1.0, 0.0, 0.0])
    got = forcing_projection(model, vec, 0.05)
    want = 0.05 * abs(np.dot(spec.master_left[0], vec)) / 2.0
    assert np.isclose(got, want, atol=1e-14)
    stripped = compute_ssm(sys, spec, 3)
    stripped.master_left = None
    with pytest.raises(ValidationError):
        forcing_projection(stripped, vec, 0.05)


def _shaw_pierre_nf(order, **params):
    ns = make_system("shaw_pierre", **params)
    spec = spectral_analysis(ns.realization, 2)
    return ns, spec, compute_ssm(ns.realization, spec, order,
                                 style="normal-form")


def test_foliation_forcing_leading_term_is_forcing_projection():
    ns, spec, model = _shaw_pierre_nf(7)
    vec = [0.0, 1.0, 0.0, 0.0]
    mf = foliation_forcing(ns.realization, spec, model, vec, 0.05)
    g0 = mf.at(0.0)[0]
    assert abs(0.05 * abs(g0) / 2.0 - forcing_projection(model, vec, 0.05)) \
        <= 1e-14
    assert mf.at(0.0)[2] == 0.0


def test_foliation_projection_inverts_tangent_and_is_invariant():
    ns, spec, model = _shaw_pierre_nf(11)
    sys = ns.realization
    lmap = foliation_projection(sys, spec, model)
    assert (lmap.dim_in, lmap.dim_out, lmap.order) == (2, 8, 10)
    dw = model.W.jacobian_rows()
    dl = lmap.jacobian_rows()
    dr = model.R.jacobian_rows()
    jacobian = jacobian_of(sys)
    for r in (0.05, 0.1, 0.2, 0.4):
        for th in np.linspace(0.0, 2 * np.pi, 12, endpoint=False):
            z = r * np.exp(1j * th)
            p = np.array([z, np.conj(z)])
            ell = lmap.evaluate(p).reshape(2, 4)
            jw = np.stack([s.evaluate(p) for s in dw], axis=1)
            assert np.max(np.abs(ell @ jw - np.eye(2))) <= 1e-9
            # adjoint invariance DL[R] + L (A + Df(W)) = DR L
            rp = model.R.evaluate(p)
            lie = sum(s.evaluate(p).reshape(2, 4) * rp[i]
                      for i, s in enumerate(dl))
            jr = np.stack([s.evaluate(p) for s in dr], axis=1)
            x = model.W.evaluate(p).real
            res = lie + ell @ jacobian(x) - jr @ ell
            assert np.max(np.abs(res)) <= 1e-9


def test_foliation_forcing_is_constant_for_linear_system():
    ns, spec, model = _shaw_pierre_nf(9, gamma=0.0)
    vec = [0.0, 1.0, 0.0, 0.0]
    mf = foliation_forcing(ns.realization, spec, model, vec, 0.05)
    g0 = np.dot(spec.master_left[0], vec)
    for rho in (0.0, 0.5, 3.0, 10.0):
        g, gp, h, hp = mf.at(rho)
        assert abs(g - g0) <= 1e-14 and gp == 0.0
        assert h == 0.0 and hp == 0.0


def _real_at(series, rho):
    """A univariate series with real coefficients at rho."""
    return series.evaluate([rho])[0].real


def _scalar_equation_branch(polar, eps_f, grid):
    """Roots Omega = omega +- sqrt((eps_f/rho)^2 - kappa^2) of the constant-
    forcing equation, with stability from its closed-form (rho, psi)
    Jacobian."""
    out = []
    kappa, omega = polar.kappa_series(), polar.omega_series()
    for rho in grid:
        k, kp = _real_at(kappa, rho), _real_at(kappa.derivative(0), rho)
        w, wp = _real_at(omega, rho), _real_at(omega.derivative(0), rho)
        disc = (eps_f / rho) ** 2 - k ** 2
        if disc < 0:
            continue
        root = np.sqrt(disc)
        for sign in (1.0, -1.0):
            jac = np.array([[kp * rho + k, sign * root * rho],
                            [wp - sign * root / rho, k]])
            stable = np.trace(jac) < 0 and np.linalg.det(jac) > 0
            out.append((rho, w + sign * root, stable))
            if root == 0.0:
                break
    return out


def _matches_scalar_equation(branch, polar, eps_f, grid):
    expected = _scalar_equation_branch(polar, eps_f, grid)
    assert len(branch.points) == len(expected)
    for p, (rho, omega_resp, stable) in zip(branch.points, expected):
        assert p.rho == rho and p.amplitude == rho
        assert np.isclose(p.Omega, omega_resp, rtol=1e-13, atol=0.0)
        assert p.stable == stable
        assert p.residual <= 1e-13


def test_constant_modal_forcing_reproduces_scalar_branch():
    c, w0, eps_f = 0.02, 1.5, 0.05
    polar = PolarNormalForm(np.array([-c]), np.array([w0]))
    grid = np.linspace(0.05, eps_f / c, 50)
    for forcing in (eps_f, ModalForcing.polynomial(2.0, [1j * eps_f])):
        branch = forced_response(polar, polar, forcing, grid)
        _matches_scalar_equation(branch, polar, eps_f, grid)
        top = [p for p in branch.points if np.isclose(p.rho, eps_f / c)]
        assert len(top) == 1
    # hardening backbone: the branch folds, so both stabilities occur
    _, _, model = _shaw_pierre_nf(7)
    polar = extract_polar(model)
    eps_f = forcing_projection(model, [0.0, 1.0, 0.0, 0.0], 0.05)
    grid = np.linspace(0.05, 6.0, 300)
    for forcing in (eps_f, ModalForcing.polynomial(2.0, [eps_f])):
        branch = forced_response(polar, polar, forcing, grid)
        _matches_scalar_equation(branch, polar, eps_f, grid)
        assert {p.stable for p in branch.points} == {True, False}


def test_foliation_forcing_refuses_growing_or_positive_pole_approximants():
    # an exact polynomial 1 + u reduces to [1/0]: it outgrows the damping
    with pytest.raises(NumericalError, match=r"type \[1, 0\]"):
        _globalize_in_u([1.0, 1.0, 0.0])
    # 1/(1 - u/4) has its pole on the amplitude axis, at rho = 2
    with pytest.raises(NumericalError, match="pole"):
        _globalize_in_u([1.0, 0.25, 0.25 ** 2, 0.25 ** 3])
    assert _globalize_in_u([1.0, -0.25, 0.25 ** 2, -0.25 ** 3]).type_tag \
        == (0, 1)
    # Shaw-Pierre at order 9: the [2/2] of h/u has a pole at u = 33.2 - 2.8i,
    # near rho = 5.8 inside the response's range
    ns, spec, model = _shaw_pierre_nf(9)
    with pytest.raises(NumericalError, match="pole"):
        foliation_forcing(ns.realization, spec, model, [0.0, 1.0, 0.0, 0.0],
                          0.05)


def _averaged_field(polar, mf, omega_f, rho, psi):
    g, _, h, _ = mf.at(rho)
    f = 0.5 * mf.eps * (g * np.exp(-1j * psi) + h * np.exp(1j * psi))
    return np.array([_real_at(polar.kappa_series(), rho) * rho + f.real,
                     _real_at(polar.omega_series(), rho) - omega_f
                     + f.imag / rho])


def test_modal_frc_stability_matches_averaged_field_eigenvalues():
    cases = [([-0.02, 0.0], [1.0, 0.3], [0.8j, 0.1, 0.02j], [0.0, 0.3, -0.05j]),
             ([-0.02, -0.002], [1.0, 0.1], [0.8j, -0.3, 0.05j], [0.0, 0.5j, 0.1])]
    step = 1e-6
    for kappa, omega, g, h in cases:
        polar = PolarNormalForm(np.array(kappa), np.array(omega))
        mf = ModalForcing(0.1, *(RationalMap.polynomial(
            MultiSeries.from_univariate(c)) for c in (g, h)))
        branch = forced_response(polar, polar, mf, np.linspace(0.05, 4.0, 80))
        assert {p.stable for p in branch.points} == {True, False}
        for p in branch.points:
            x = np.array([p.rho, p.psi])
            assert np.max(np.abs(_averaged_field(polar, mf, p.Omega, *x))) \
                < 1e-12
            jac = np.column_stack([
                (_averaged_field(polar, mf, p.Omega, *(x + step * e)) -
                 _averaged_field(polar, mf, p.Omega, *(x - step * e)))
                / (2 * step) for e in np.eye(2)])
            lead = np.max(np.linalg.eigvals(jac).real)
            assert abs(lead) > 1e-6
            assert p.stable == (lead < 0)


def test_foliation_forcing_rejects_invalid_models():
    ns, spec, model = _shaw_pierre_nf(5)
    vec = [0.0, 1.0, 0.0, 0.0]
    graph = compute_ssm(ns.realization, spec, 5, style="graph")
    with pytest.raises(ValidationError):
        foliation_forcing(ns.realization, spec, graph, vec, 0.05)
    dm = make_system("dauchot_manneville").realization
    dm_spec = spectral_analysis(dm, 1)
    dm_model = compute_ssm(dm, dm_spec, 5, style="normal-form")
    with pytest.raises(ValidationError):
        foliation_forcing(dm, dm_spec, dm_model, [0.0, 1.0], 0.05)
    with pytest.raises(ValidationError):
        foliation_forcing(ns.realization, spec, model, [0.0, 1.0], 0.05)
    # the z row comes from the conjugate-symmetry check of R
    coeffs = dict(model.R.coeffs)
    coeffs[(1, 2)] = model.R.get((1, 2)) + np.array([0.0, 0.5])
    bad = dataclasses.replace(model, R=MultiSeries(2, 2, model.order, coeffs))
    with pytest.raises(NumericalError,
                       match=r"not conjugate-symmetric at \(2, 1\)"):
        foliation_forcing(ns.realization, spec, bad, vec, 0.05)


def test_poincare_of_forced_linear_system_converges_to_a_point():
    lin = MultiSeries(2, 2, 1, {(1, 0): [0.0, -1.0], (0, 1): [1.0, -0.2]})
    f = ReducedField.from_series(lin, Forcing(1.0, 2.0, [0.0, 1.0]))
    ps = poincare_sample(f, [0.3, 0.0], 5, skip=40)
    assert ps.n_samples == 5
    assert np.max(np.ptp(ps.values, axis=0)) < 1e-4


def test_poincare_unforced_needs_explicit_frequency():
    lin = MultiSeries(2, 2, 1, {(1, 0): [0.0, -1.0], (0, 1): [1.0, -0.2]})
    f = ReducedField.from_series(lin)
    with pytest.raises(ValidationError):
        poincare_sample(f, [0.3, 0.0], 3)
    ps = poincare_sample(f, [0.3, 0.0], 4, skip=0, omega=2.0)
    # autonomous decay: stroboscopic samples shrink monotonically
    norms = np.linalg.norm(ps.values, axis=1)
    assert np.all(np.diff(norms) < 0)


def _pole_field():
    """u' = 1/(1 - u): from u = 0.5, u = 1 - sqrt(0.25 - 2t) reaches the
    pole at t = 0.125."""
    den = MultiSeries(1, 1, 1, {(0,): [1.0], (1,): [-1.0]})
    return ReducedField.from_rationals(
        RationalMap(MultiSeries(1, 1, 0, {(0,): [1.0]}), den, (0, 1)))


def test_every_run_stops_at_the_pole():
    f = _pole_field()
    tr = integrate_reduced(f, [0.5], (0.0, 1.0))
    assert tr.flags[0].startswith("pole crossing at t=0.125")
    ps = poincare_sample(f, [0.5], 100, skip=0, omega=2.0 * math.pi / 0.01)
    assert ps.flags == tr.flags
    assert ps.n_samples == 12
    assert np.allclose(ps.values[:, 0], 1.0 - np.sqrt(0.25 - 2.0 * ps.times),
                       atol=1e-6)
    with pytest.raises(NumericalError, match="pole crossing"):
        poincare_sample(f, [0.5], 10, skip=20, omega=2.0 * math.pi / 0.01)
    with pytest.raises(NumericalError, match="pole crossing"):
        lyapunov_estimate(f, [0.5])
    with pytest.raises(ValidationError, match="dim 1"):
        poincare_sample(f, [0.5, 0.0], 10, omega=1.0)


def test_lyapunov_without_transient_checks_its_initial_condition():
    f = _pole_field()
    for ic, match in (([0.5, 0.0], "dim 1"), ([math.nan], "finite"),
                      ([1.0 - 1e-9], "pole floor")):
        with pytest.raises(ValidationError, match=match):
            lyapunov_estimate(f, ic, horizon=5.0, transient=0.0)


def test_lyapunov_renormalization_stops_at_the_pole():
    # without a transient the pair itself runs into the pole at
    # t = (1 - u0)^2 / 2
    f = _pole_field()
    for u0 in (0.5, 0.9):
        start = time.perf_counter()
        with pytest.raises(NumericalError, match="renormalization interval "
                           "stopped: pole crossing at t=") as err:
            lyapunov_estimate(f, [u0], transient=0.0)
        assert time.perf_counter() - start < 2.0
        t_stop = float(str(err.value).split("t=")[1].split(",")[0])
        assert abs(t_stop - (1.0 - u0) ** 2 / 2.0) < 1e-3


def test_lift_refuses_a_model_that_does_not_realify():
    sys = make_system("imaginary_sing").realization
    model = compute_ssm(sys, spectral_analysis(sys, 1), 7, style="graph")
    traj = TrajectoryData([0.0, 1.0], [[0.1], [0.2]])
    assert np.allclose(lift(model, traj).values,
                       model.W.evaluate_many(traj.values).real)
    w = dict(model.W.coeffs)
    w[(3,)] = model.W.get((3,)) + np.array([0.0, 0.3j, 0.0])
    model.W = MultiSeries(1, 3, model.order, w)
    with pytest.raises(NumericalError, match="does not realify"):
        lift(model, traj)



def test_lift_refuses_a_complex_chart_and_keeps_real_ones_bitwise():
    # the normal-form W of an oscillatory pair has complex coefficients:
    # its .real is not the realified chart, so lifting through it is refused
    _, _, model = _shaw_pierre_nf(5)
    traj = TrajectoryData([0.0, 1.0], [[0.3, -0.2], [0.1, 0.4]])
    real_w = realify_parametrization(model)
    with pytest.raises(ValidationError, match="complex coefficients"):
        lift(model.W, traj)
    with pytest.raises(ValidationError, match="complex coefficients"):
        lift(RationalMap.polynomial(model.W), traj)
    # realified and Pade charts lift to their evaluations, bit for bit
    assert np.array_equal(lift(model, traj).values,
                          real_w.evaluate_many(traj.values).real)
    assert np.array_equal(lift(real_w, traj).values,
                          real_w.evaluate_many(traj.values).real)
    chart = pade_multivariate(real_w, 2, 2)[0]
    num, den = rational_parts(chart, traj.values)
    assert np.array_equal(lift(chart, traj).values,
                          num.real / den.real[:, None])
    # imaginary parts within realify's bound still lift
    w = dict(real_w.coeffs)
    w[(1, 0)] = real_w.get((1, 0)) + 1e-12j
    assert np.array_equal(
        lift(MultiSeries(2, real_w.dim_out, real_w.order, w), traj).values,
        real_w.evaluate_many(traj.values).real)

def test_a_field_refuses_complex_coefficients_and_keeps_real_ones():
    # the integrator runs in reals: x' = i x would have run as x' = 0
    with pytest.raises(ValidationError, match="complex coefficients"):
        ReducedField.from_series(MultiSeries(1, 1, 1, {(1,): [1j]}))
    with pytest.raises(ValidationError, match="complex coefficients"):
        ReducedField.from_rationals(RationalMap(
            MultiSeries(1, 1, 1, {(1,): [-1.0]}),
            MultiSeries(1, 1, 1, {(0,): [1.0], (1,): [0.5j]}), (1, 1)))
    # imaginary parts within realify's bound still build and run
    f = ReducedField.from_series(MultiSeries(1, 1, 1, {(1,): [-1.0 + 1e-12j]}))
    tr = integrate_reduced(f, [1.0], (0.0, 1.0))
    assert abs(tr.values[-1, 0] - math.exp(-1.0)) < 1e-8


def test_lyapunov_linear_fields():
    stable = ReducedField.from_series(MultiSeries(1, 1, 1, {(1,): [-1.0]}))
    est = lyapunov_estimate(stable, [1.0], horizon=20.0, transient=1.0)
    assert abs(est.value + 1.0) < 1e-3
    saddle = ReducedField.from_series(
        MultiSeries(2, 2, 1, {(1, 0): [1.0, 0.0], (0, 1): [0.0, -1.0]}))
    est = lyapunov_estimate(saddle, [0.01, 0.01], horizon=20.0, transient=0.0)
    assert abs(est.value - 1.0) < 1e-2


def test_lyapunov_saturation_diagnostic():
    saddle = ReducedField.from_series(
        MultiSeries(2, 2, 1, {(1, 0): [1.0, 0.0], (0, 1): [0.0, -1.0]}))
    est = lyapunov_estimate(saddle, [0.01, 0.01], perturbation_size=0.9,
                            horizon=10.0, renorm_interval=5.0, transient=0.0)
    assert any("saturated" in fl for fl in est.flags)


def test_psd_finds_sinusoid_bins():
    t = np.arange(0, 200, 0.01)
    x = np.sin(2 * np.pi * 0.7 * t) + 0.5 * np.sin(2 * np.pi * 1.3 * t) + 2.0
    tr = TrajectoryData(t, x)
    freq, power = psd_estimate(tr)
    order = np.argsort(power)[::-1]
    assert {round(freq[order[0]], 3), round(freq[order[1]], 3)} == {0.7, 1.3}
    # mean removed: no power at DC
    assert power[0] < 1e-20
    bad = TrajectoryData(np.array([0.0, 0.1, 0.3]), np.zeros(3))
    with pytest.raises(ValidationError):
        psd_estimate(bad)


def test_double_well_chaos_markers():
    f = double_well_field()
    est = lyapunov_estimate(f, [0.1, 0.0], horizon=120.0)
    assert est.value > 0.05
    tr = integrate_reduced(f, [0.1, 0.0], (0.0, 200.0), n_out=8001)
    freq, power = psd_estimate(tr, 0)
    assert power.max() / power.sum() < 0.9
    ps = poincare_sample(f, [0.1, 0.0], 30, skip=20)
    steps = np.linalg.norm(np.diff(ps.values, axis=0), axis=1)
    assert np.min(steps) > 0.05
    assert np.max(np.abs(ps.values)) < 10.0


def test_trajectory_csv_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    tr = TrajectoryData(np.linspace(0, 1, 17), rng.standard_normal((17, 3)))
    path = tmp_path / "traj.csv"
    trajectory_to_csv(tr, str(path))
    back = trajectory_from_csv(str(path))
    assert np.array_equal(back.times, tr.times)
    assert np.array_equal(back.values, tr.values)
    with open(path) as fh:
        assert fh.readline().strip() == "t,x1,x2,x3"
