import dataclasses

import numpy as np
import pytest

from gssm.errors import NumericalError, SmallDivisorError, ValidationError
from gssm.series import MultiSeries, complex_row
from gssm.ssm import (PolySystem, compute_ssm, extract_polar,
                      invariance_residual, model_from_text, model_to_text,
                      realify_parametrization, realify_reduced,
                      spectral_analysis, to_coordinate_graph)
from gssm.systems import (dauchot_w2, dauchot_w3, euler_series,
                          imaginary_sing_model, make_system)


def test_spectral_sorting_and_conjugate_gauge():
    sys = make_system("shaw_pierre").realization
    spec = spectral_analysis(sys, 2)
    vals = spec.eigenvalues
    # descending real part, +Im listed first within a pair
    assert np.all(np.diff(vals.real) <= 1e-12)
    assert vals[0].imag > 0 and vals[1] == np.conj(vals[0])
    assert vals[2].imag > 0 and vals[3] == np.conj(vals[2])
    assert spec.master == [0, 1]
    assert np.allclose(np.abs(vals[:2]), np.sqrt(3.0), atol=1e-6)
    # unit norm, leading significant entry positive real
    for i in range(4):
        v = spec.right_vectors[:, i]
        assert np.isclose(np.linalg.norm(v), 1.0)
    v0 = spec.right_vectors[:, 0]
    assert v0[0].real > 0 and abs(v0[0].imag) < 1e-14
    assert np.allclose(spec.right_vectors[:, 1], np.conj(v0))
    assert np.allclose(spec.left_vectors @ spec.right_vectors, np.eye(4),
                       atol=1e-12)


def test_each_member_of_a_repeated_pair_keeps_its_own_mate():
    # two identical uncoupled oscillators: the conjugate pair repeats
    a = np.kron(np.eye(2), [[0.0, 1.0], [-4.0, -0.1]])
    sys = PolySystem(a, MultiSeries.zero(4, 4, 2))
    spec = spectral_analysis(sys, 2, master_indices=[0, 2])
    vals, v = spec.eigenvalues, spec.right_vectors
    assert np.allclose(a @ v, v * vals, atol=1e-12)
    # the second +Im member pairs with the one column that conjugates it
    mates = [j for j in range(4) if np.array_equal(v[:, j], np.conj(v[:, 1]))]
    assert len(mates) == 1 and vals[mates[0]] == np.conj(vals[1])
    spec = spectral_analysis(sys, 2, master_indices=[1, mates[0]])
    assert np.array_equal(spec.master_right[:, 1],
                          np.conj(spec.master_right[:, 0]))


def test_master_defaults_to_slowest_modulus():
    sys = make_system("dauchot_manneville").realization
    spec = spectral_analysis(sys, 1)
    assert np.isclose(spec.master_eigenvalues[0], -0.038)


def test_missing_spectral_gap_rejected():
    a = np.array([[1.0, 0.0], [0.0, 0.5]])
    sys = PolySystem(a, MultiSeries.zero(2, 2, 2))
    with pytest.raises(NumericalError):
        spectral_analysis(sys, 1)
    # explicit master choice downgrades the failure to a flag
    spec = spectral_analysis(sys, 1, master_indices=[1])
    assert any("gap" in f for f in spec.flags)


def test_check_nonresonance_reports_offender():
    # the nonresonance check is compute_ssm's small-divisor test: an exact
    # resonance lambda_0 = 2 lambda_master of an explicit master names its
    # offending row and multi-index
    a = np.array([[2.0, 0.0], [0.0, 1.0]])
    sys = PolySystem(a, MultiSeries.zero(2, 2, 2))
    spec = spectral_analysis(sys, 1, master_indices=[1])
    assert spec.master_eigenvalues[0] == 1.0
    with pytest.raises(SmallDivisorError) as err:
        compute_ssm(sys, spec, 3)
    assert err.value.row == 0 and err.value.index == (2,)


def test_euler_manifold_matches_divergent_series():
    sys = make_system("euler").realization
    spec = spectral_analysis(sys, 1)
    ref = euler_series(6)
    for style in ("graph", "normal-form"):
        model = compute_ssm(sys, spec, 6, style=style)
        graph = to_coordinate_graph(model, [0])
        h = graph.parametrization.component(1)
        assert np.allclose(h.univariate_coeffs(), ref.univariate_coeffs(),
                           atol=1e-10)
        g = graph.reduced.component(0)
        assert np.allclose(g.univariate_coeffs(),
                           [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0], atol=1e-10)


def test_dauchot_manneville_closed_forms():
    s1, s2 = -0.038, -1.0
    sys = make_system("dauchot_manneville").realization
    spec = spectral_analysis(sys, 1)
    model = compute_ssm(sys, spec, 3, style="graph")
    graph = to_coordinate_graph(model, [0])
    h = graph.parametrization.component(1)
    w2, w3 = dauchot_w2(s1, s2), dauchot_w3(s1, s2)
    assert np.allclose(h.univariate_coeffs(), [0.0, 0.0, w2, w3], atol=1e-12)
    # on the manifold u' = s1 u + h(u) + u h(u)
    g = graph.reduced.component(0)
    assert np.allclose(g.univariate_coeffs(), [0.0, s1, w2, w3 + w2],
                       atol=1e-12)


def test_tangency_of_the_computed_model():
    sys = make_system("shaw_pierre").realization
    spec = spectral_analysis(sys, 2)
    model = compute_ssm(sys, spec, 5, style="graph")
    assert np.allclose(model.W.get((1, 0)), spec.master_right[:, 0])
    assert np.allclose(model.W.get((0, 1)), spec.master_right[:, 1])
    lam = spec.master_eigenvalues
    assert np.allclose(model.R.get((1, 0)), [lam[0], 0.0])
    assert np.allclose(model.R.get((0, 1)), [0.0, lam[1]])


def test_styles_agree_as_graphs_over_coordinates():
    sys = make_system("shaw_pierre").realization
    spec = spectral_analysis(sys, 2)
    graphs = {}
    for style in ("graph", "normal-form"):
        model = compute_ssm(sys, spec, 7, style=style)
        graphs[style] = to_coordinate_graph(model, [0, 1])
    ga, gb = graphs["graph"], graphs["normal-form"]
    rng = np.random.default_rng(7)
    for _ in range(20):
        u = rng.uniform(-0.01, 0.01, size=2)
        xa = ga.parametrization.evaluate(u)
        xb = gb.parametrization.evaluate(u)
        assert np.allclose(xa, xb, atol=1e-10)
        assert np.allclose(ga.reduced.evaluate(u), gb.reduced.evaluate(u),
                           atol=1e-10)
        assert np.max(np.abs(xa.imag)) < 1e-10


def test_realified_series_match_complex_chart():
    sys = make_system("shaw_pierre").realization
    spec = spectral_analysis(sys, 2)
    model = compute_ssm(sys, spec, 5, style="normal-form")
    w_real = realify_parametrization(model)
    r_real = realify_reduced(model)
    assert w_real.max_abs_imag() < 1e-10
    assert r_real.max_abs_imag() < 1e-10
    rng = np.random.default_rng(11)
    for _ in range(20):
        a, b = rng.uniform(-0.05, 0.05, size=2)
        p = complex(a, b)
        x = model.W.evaluate([p, np.conj(p)])
        assert np.max(np.abs(x.imag)) < 1e-12
        assert np.allclose(w_real.evaluate([a, b]).real, x.real, atol=1e-12)
        pdot = model.R.evaluate([p, np.conj(p)])[0]
        ab_dot = r_real.evaluate([a, b])
        assert np.isclose(ab_dot[0].real, pdot.real, atol=1e-12)
        assert np.isclose(ab_dot[1].real, pdot.imag, atol=1e-12)


def _with_r_shift(model, idx, shift):
    """A copy of the model with shift (one entry per row) added to R at idx."""
    coeffs = dict(model.R.coeffs)
    coeffs[idx] = model.R.get(idx) + np.asarray(shift, dtype=complex)
    return dataclasses.replace(
        model, R=MultiSeries(2, 2, model.R.order, coeffs))


def test_one_conjugate_symmetry_check_guards_realify_and_polar():
    sys = make_system("shaw_pierre").realization
    spec = spectral_analysis(sys, 2)
    model = compute_ssm(sys, spec, 7, style="normal-form")
    # the zbar row's coefficient at (1, 2) mirrors the z row's at (2, 1)
    bad = _with_r_shift(model, (1, 2), [0.0, 0.5])
    for analysis in (realify_reduced, extract_polar):
        analysis(model)
        with pytest.raises(NumericalError,
                           match=r"not conjugate-symmetric at \(2, 1\)"):
            analysis(bad)
    # a non-resonant zbar-row term of a graph-style model is checked too
    graph = compute_ssm(sys, spec, 7, style="graph")
    realify_reduced(graph)
    with pytest.raises(NumericalError, match=r"at \(3, 0\)"):
        realify_reduced(_with_r_shift(graph, (0, 3), [0.0, 1e-3]))


def test_normal_form_keeps_only_resonant_terms():
    sys = make_system("shaw_pierre").realization
    spec = spectral_analysis(sys, 2)
    model = compute_ssm(sys, spec, 7, style="normal-form")
    for idx, vec in model.R.terms():
        if sum(idx) == 1:
            continue
        if abs(vec[0]) > 1e-14:
            assert idx[0] == idx[1] + 1
        if abs(vec[1]) > 1e-14:
            assert idx[1] == idx[0] + 1


def test_polar_normal_form_basics():
    sys = make_system("shaw_pierre").realization
    spec = spectral_analysis(sys, 2)
    model = compute_ssm(sys, spec, 7, style="normal-form")
    polar = extract_polar(model)
    lam = spec.master_eigenvalues[0]
    kappa, omega = polar.kappa_series(), polar.omega_series()

    def at(series, rho):
        return series.evaluate([rho])[0].real
    assert np.isclose(at(kappa, 0.0), lam.real, atol=1e-12)
    assert np.isclose(at(omega, 0.0), lam.imag, atol=1e-12)
    # hardening spring: frequency grows with amplitude
    assert at(omega, 0.2) > at(omega, 0.0)
    # derivative consistency against finite differences
    h = 1e-6
    fd = (at(omega, 0.1 + h) - at(omega, 0.1 - h)) / (2 * h)
    assert np.isclose(at(omega.derivative(0), 0.1), fd, atol=1e-6)


def test_small_divisor_on_enslaved_row_raises():
    a = np.array([[-1.0, 0.0], [0.0, -2.0 + 1e-12]])
    f = MultiSeries(2, 2, 2, {(2, 0): [0.0, 1.0]})
    sys = PolySystem(a, f)
    spec = spectral_analysis(sys, 1)
    for style in ("graph", "normal-form"):
        with pytest.raises(SmallDivisorError) as err:
            compute_ssm(sys, spec, 2, style=style)
        assert err.value.row == 1 and err.value.index == (2,)


def test_exact_inner_resonance_absorbed_into_reduced_dynamics():
    # the slow eigenvalue is exactly zero, so every order is resonant; the
    # solve must absorb the terms rather than divide by zero
    sys = make_system("euler").realization
    spec = spectral_analysis(sys, 1)
    model = compute_ssm(sys, spec, 4, style="graph")
    assert np.isclose(model.R.get((2,))[0], 2.0 ** -0.5, atol=1e-12)


def test_invariance_residual_slope_tracks_order():
    sys = make_system("euler").realization
    spec = spectral_analysis(sys, 1)
    model = compute_ssm(sys, spec, 5, style="graph")
    res = invariance_residual(sys, model)
    assert res.slope >= 5.75


def test_invariance_residual_says_why_its_slope_is_nan():
    sys = make_system("shaw_pierre").realization
    spec = spectral_analysis(sys, 2)
    res = invariance_residual(sys, compute_ssm(sys, spec, 11))
    assert np.count_nonzero(res.valid) == 4
    assert np.isfinite(res.slope) and res.flags == []
    res = invariance_residual(sys, compute_ssm(sys, spec, 13))
    assert np.isnan(res.slope)
    assert res.flags == ["slope not fitted: 3 radii clear the noise window "
                         "and span 0.38 decades; the fit needs at least 3 "
                         "radii over 0.5 decades"]


def test_residual_slope_for_planted_rational_model():
    model = imaginary_sing_model(5)
    sys = make_system("imaginary_sing").realization
    res = invariance_residual(sys, model)
    assert res.slope >= 5.75


def test_model_text_round_trip_is_exact():
    sys = make_system("shaw_pierre").realization
    spec = spectral_analysis(sys, 2)
    model = compute_ssm(sys, spec, 4, style="normal-form")
    text = model_to_text(model)
    back = model_from_text(text)
    assert back.n == model.n and back.d == model.d
    assert back.style == model.style and back.order == model.order
    assert np.array_equal(back.master_eigenvalues, model.master_eigenvalues)
    assert np.array_equal(back.master_right, model.master_right)
    assert set(back.W.coeffs) == set(model.W.coeffs)
    for idx, vec in model.W.terms():
        assert np.array_equal(back.W.get(idx), vec)
    for idx, vec in model.R.terms():
        assert np.array_equal(back.R.get(idx), vec)


def test_model_import_validates_tangency():
    sys = make_system("shaw_pierre").realization
    spec = spectral_analysis(sys, 2)
    model = compute_ssm(sys, spec, 3, style="graph")
    text = model_to_text(model)
    lam = model.master_eigenvalues[0]
    old = complex_row([lam])
    new = complex_row([lam * 1.01])
    tampered = text.replace(old, new, 1)
    assert tampered != text
    with pytest.raises(ValidationError):
        model_from_text(tampered)


def test_degenerate_coordinate_graph_rejected():
    # the in-phase mode has identical entries on both masses, so the two
    # position coordinates cannot chart the manifold
    sys = make_system("shaw_pierre").realization
    spec = spectral_analysis(sys, 2)
    model = compute_ssm(sys, spec, 3, style="graph")
    with pytest.raises(NumericalError):
        to_coordinate_graph(model, [0, 2])


def test_callable_rhs_systems_have_no_jacobian():
    sys = make_system("imaginary_sing").realization
    with pytest.raises(ValidationError, match="polynomial right-hand side"):
        sys.jacobian([0.1, 0.2])
    with pytest.raises(ValidationError, match="polynomial right-hand side"):
        compute_ssm(sys, spectral_analysis(sys, 1), 3)


def test_input_validation():
    sys = make_system("euler").realization
    spec = spectral_analysis(sys, 1)
    with pytest.raises(ValidationError):
        compute_ssm(sys, spec, 3, style="diagonal")
    with pytest.raises(ValidationError):
        spectral_analysis(sys, 3)
    assert not compute_ssm(sys, spec, 2).is_oscillatory_pair()
    sp = make_system("shaw_pierre").realization
    spec2 = spectral_analysis(sp, 2)
    assert compute_ssm(sp, spec2, 2).is_oscillatory_pair()
