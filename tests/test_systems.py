import numpy as np
import pytest
from scipy.special import exp1

from gssm.errors import ValidationError
from gssm.ssm import compute_ssm, spectral_analysis
from gssm.systems import make_system

from closed_forms import (autonomous_rhs, dauchot_w2, dauchot_w3, euler_exact,
                          euler_series, fixed_points_oracle,
                          odd_geometric_series)


def test_rhs_closed_forms_random_points():
    rng = np.random.default_rng(3)
    euler = make_system("euler").realization
    dm = make_system("dauchot_manneville").realization
    sp = make_system("shaw_pierre").realization
    ims = make_system("imaginary_sing").realization
    s1, s2 = -0.038, -1.0
    k, c, gamma = 3.0, 0.003, 0.5
    for _ in range(100):
        x = rng.uniform(-1.0, 1.0, size=2)
        assert np.allclose(autonomous_rhs(euler, x),
                           [x[0] ** 2, x[0] - x[1]], atol=1e-12)
        assert np.allclose(autonomous_rhs(dm, x),
                           [s1 * x[0] + x[1] + x[0] * x[1],
                            s2 * x[1] - x[0] ** 2], atol=1e-12)
        u, y, w = rng.uniform(-1.0, 1.0, size=3)
        assert np.allclose(autonomous_rhs(ims, [u, y, w]),
                           [u, -y + 2 * u * (1 + w) ** 2,
                            -w - 3 * u ** 2 - 5 * w * u ** 2
                            - 2 * w ** 2 * u ** 2], atol=1e-12)
        q = rng.uniform(-1.0, 1.0, size=4)
        expect = [q[1],
                  -2 * k * q[0] - 2 * c * q[1] + k * q[2] + c * q[3]
                  - gamma * q[0] ** 3,
                  q[3],
                  k * q[0] + c * q[1] - 2 * k * q[2] - 2 * c * q[3]]
        assert np.allclose(autonomous_rhs(sp, q), expect, atol=1e-12)
    # on the lift's curve w = 1/(1+x^2) - 1 the field is x' = x,
    # y' = -y + 2x/(1+x^2)^2, and w' the derivative of w along the flow
    for x in np.linspace(-3.0, 3.0, 61):
        on = [x, x / (1 + x * x), -x * x / (1 + x * x)]
        assert np.allclose(autonomous_rhs(ims, on),
                           [x, x * (1 - x * x) / (1 + x * x) ** 2,
                            -2 * x * x / (1 + x * x) ** 2],
                           rtol=0.0, atol=1e-14)


def test_parameter_defaults_and_overrides():
    named = make_system("dauchot_manneville")
    assert named.parameters == {"s1": -0.038, "s2": -1.0}
    other = make_system("dauchot_manneville", s1=-0.1)
    assert np.isclose(other.realization.linear_part[0, 0], -0.1)
    with pytest.raises(ValidationError):
        make_system("lorenz")
    with pytest.raises(ValidationError):
        make_system("euler", mass=2.0)


def test_euler_exact_known_values():
    assert np.isclose(euler_exact(1.0), 0.5963473623231946, atol=1e-9)
    assert np.isclose(euler_exact(0.1), 0.09156333393978809, atol=1e-10)
    # closed form through the exponential integral
    for x in (0.2, 0.5, 1.0, 2.0):
        ref = np.exp(1.0 / x) * exp1(1.0 / x)
        assert np.isclose(euler_exact(x), ref, rtol=1e-9)
    with pytest.raises(ValidationError):
        euler_exact(-0.5)


def test_euler_exact_solves_the_singular_ode():
    # x^2 y' + y = x
    for x in (0.05, 0.3, 0.9):
        h = 1e-6
        yp = (euler_exact(x + h) - euler_exact(x - h)) / (2 * h)
        assert np.isclose(x * x * yp + euler_exact(x), x, atol=1e-7)


def test_series_helpers():
    assert np.allclose(euler_series(6).univariate_coeffs(),
                       [0, 1, -1, 2, -6, 24, -120])
    assert np.allclose(odd_geometric_series(7).univariate_coeffs(),
                       [0, 1, 0, -1, 0, 1, 0, -1])
    s1, s2 = -0.5, -2.0
    assert np.isclose(dauchot_w2(s1, s2), -1.0)
    assert np.isclose(dauchot_w3(s1, s2), -4.0)


def test_euler_series_asymptotic_to_integral():
    # divergent series: the truncation is still asymptotic as x -> 0+
    h4 = euler_series(4)
    x = 0.01
    err = abs(h4.evaluate([x])[0] - euler_exact(x))
    assert err < 30 * x ** 5


def test_computed_lift_manifold_equals_the_closed_form():
    # (x, x/(1+x^2), -x^2/(1+x^2)) in the unit eigenvector's gauge
    # x = p/sqrt(2): y's coefficients are those of x/(1+x^2), and w = -x y
    sys = make_system("imaginary_sing").realization
    spec = spectral_analysis(sys, 1)
    scale = 1.0 / np.sqrt(2.0)
    for order in (5, 11, 21, 31):
        model = compute_ssm(sys, spec, order, style="graph")
        h = odd_geometric_series(order).univariate_coeffs()
        for k in range(1, order + 1):
            expect = [float(k == 1), h[k], -h[k - 1]]
            assert np.max(np.abs(model.W.get((k,)) - np.multiply(
                expect, scale ** k))) <= 1e-15, (order, k)
        assert model.R.coeffs.keys() == {(1,)}
        assert model.R.get((1,))[0] == 1.0


def test_fixed_points_of_the_intermittency_model():
    sys = make_system("dauchot_manneville").realization
    pts = fixed_points_oracle(sys, [(-1.5, 0.5), (-1.5, 0.5)])
    assert len(pts) == 3
    labels = {}
    for fp in pts:
        labels[tuple(np.round(fp.location, 4))] = fp.label
    assert labels[(0.0, 0.0)] == "stable"
    assert labels[(-0.0396, -0.0016)] == "saddle"
    assert labels[(-0.9604, -0.9224)] == "stable"


def test_fixed_points_of_the_two_mass_oscillator():
    sys = make_system("shaw_pierre").realization
    pts = fixed_points_oracle(sys, [(-0.8, 0.8)] * 4, seeds_per_axis=3)
    assert len(pts) == 1
    assert np.allclose(pts[0].location, 0.0, atol=1e-9)
    assert pts[0].label == "stable"
    assert np.all(np.abs(pts[0].eigenvalues.imag) > 1.0)


def test_euler_origin_is_marginal():
    sys = make_system("euler").realization
    pts = fixed_points_oracle(sys, [(-0.4, 0.4), (-0.4, 0.4)])
    assert len(pts) == 1
    assert pts[0].label == "marginal"
