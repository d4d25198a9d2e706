import math

import numpy as np
import pytest

from gssm.errors import PoleProximityError, ValidationError
from gssm.pade import (RationalMap, evaluate_rational_many,
                       pade_multivariate, pade_univariate, rational_from_text,
                       rational_to_text, rationals_from_text, rationals_to_text,
                       taylor_of_rational)
from gssm.series import (MultiSeries, indices_up_to_order,
                         reciprocal_truncated)


def alternating_factorial(order):
    """c_0 = 0, c_n = (-1)^(n+1) (n-1)!  (the divergent resummation workhorse)."""
    return [0.0] + [(-1) ** (n + 1) * math.factorial(n - 1)
                    for n in range(1, order + 1)]


def expand(num_coeffs, den_coeffs, order):
    r = RationalMap(MultiSeries.from_univariate(num_coeffs),
                    MultiSeries.from_univariate(den_coeffs),
                    (len(num_coeffs) - 1, len(den_coeffs) - 1))
    return taylor_of_rational(r, order)


def test_one_one_of_alternating_factorials_is_x_over_one_plus_x():
    r = pade_univariate(alternating_factorial(2), 1, 1)
    assert np.allclose(r.numerator.univariate_coeffs(), [0.0, 1.0], atol=1e-12)
    assert np.allclose(r.denominator.univariate_coeffs(), [1.0, 1.0], atol=1e-12)


def test_three_three_of_alternating_factorials():
    r = pade_univariate(alternating_factorial(6), 3, 3)
    assert np.allclose(r.numerator.univariate_coeffs(), [0.0, 1.0, 8.0, 11.0],
                       atol=1e-9)
    assert np.allclose(r.denominator.univariate_coeffs(), [1.0, 9.0, 18.0, 6.0],
                       atol=1e-9)
    # re-expansion reproduces the input series, the defining property
    t = taylor_of_rational(r, 6)
    assert np.allclose(t.univariate_coeffs(), alternating_factorial(6), atol=1e-8)


def test_three_three_at_one():
    r = pade_univariate(alternating_factorial(6), 3, 3)
    assert np.allclose(evaluate_rational_many(r, [[1.0]])[0], 20.0 / 34.0,
                       atol=1e-12)


def test_one_one_at_one():
    r = pade_univariate(alternating_factorial(2), 1, 1)
    assert np.allclose(evaluate_rational_many(r, [[1.0]])[0], 0.5,
                       atol=1e-14)


def test_odd_geometric_recovered_exactly():
    # series of x/(1+x^2) through order 3, requested [1/2]
    r = pade_univariate([0.0, 1.0, 0.0, -1.0], 1, 2)
    xs = np.linspace(-5.0, 5.0, 101)
    vals = evaluate_rational_many(r, xs[:, None])[:, 0]
    assert np.allclose(vals, xs / (1 + xs ** 2), atol=1e-12)
    assert r.type_tag == (1, 2)


def test_taylor_of_geometric_rational():
    t = expand([0.0, 1.0], [1.0, 1.0], 4)
    assert np.allclose(t.univariate_coeffs(), [0, 1, -1, 1, -1], atol=1e-14)


def test_taylor_of_odd_geometric_alternates():
    t = expand([0.0, 1.0], [1.0, 0.0, 1.0], 5)
    assert np.allclose(t.univariate_coeffs(), [0, 1, 0, -1, 0, 1], atol=1e-14)


def test_pole_floor_raises():
    r = RationalMap(MultiSeries.from_univariate([1.0]),
                    MultiSeries.from_univariate([1.0, -1.0]), (0, 1))
    with pytest.raises(PoleProximityError):
        evaluate_rational_many(r, [[1.0]])[0]
    # just outside the floor is fine
    assert np.isfinite(
        evaluate_rational_many(r, [[1.0 - 1e-6]])[0][0].real)


def test_taylor_polynomial_when_denominator_order_zero():
    c = [0.3, -1.2, 0.7, 2.0, -0.5]
    r = pade_univariate(c, 3, 0)
    assert r.type_tag[1] == 0
    assert np.allclose(r.denominator.univariate_coeffs(), [1.0])
    assert np.allclose(r.numerator.univariate_coeffs(), c[:4], atol=1e-14)


def test_even_input_degrades_gracefully():
    # an even rational expanded to order 10: requesting [5/5] must shrink the
    # system instead of fitting the structurally-degenerate odd directions
    ser = expand([1.0, 0.0, 0.3], [1.0, 0.0, 0.2, 0.0, 0.01], 10)
    r = pade_univariate(ser, 5, 5)
    assert r.type_tag[0] <= 4 and r.type_tag[1] <= 4
    assert any("rank deficiency" in f for f in r.flags)
    xs = np.linspace(-2, 2, 41)
    vals = evaluate_rational_many(r, xs[:, None])[:, 0]
    truth = (1 + 0.3 * xs ** 2) / (1 + 0.2 * xs ** 2 + 0.01 * xs ** 4)
    assert np.allclose(vals, truth, atol=1e-10)


def test_exact_lower_type_input_reduces_degrees():
    ser = expand([2.0, 1.0], [1.0, -0.5], 9)
    r = pade_univariate(ser, 4, 3)
    assert r.type_tag == (1, 1)
    xs = np.linspace(-1.5, 1.5, 31)
    vals = evaluate_rational_many(r, xs[:, None])[:, 0]
    assert np.allclose(vals, (2 + xs) / (1 - 0.5 * xs), atol=1e-10)


def test_match_property_on_random_univariate_series():
    rng = np.random.default_rng(42)
    for _ in range(40):
        n = int(rng.integers(0, 6))
        m = int(rng.integers(0, 6))
        c = rng.normal(size=n + m + 1)
        r = pade_univariate(c, n, m)
        t = taylor_of_rational(r, n + m).univariate_coeffs()
        scale = np.max(np.abs(c))
        assert np.allclose(t[:n + m + 1], c, atol=1e-8 * scale)


def test_denominator_constant_is_one_after_every_solve():
    rng = np.random.default_rng(9)
    for _ in range(10):
        c = rng.normal(size=9) + 1j * rng.normal(size=9)
        r = pade_univariate(c, 4, 4)
        assert r.denominator.get((0,))[0] == 1.0


def test_zero_input_returns_zero_rational():
    r = pade_univariate([0.0] * 7, 3, 3)
    assert r.numerator.coeffs == {}
    assert np.allclose(r.denominator.univariate_coeffs(), [1.0])


def test_input_vanishing_through_the_numerator_order_gives_zero():
    # the first nonzero coefficient is z^3, past N = 2: the [2/2] that
    # matches through order 4 is 0
    r = pade_univariate([0.0, 0.0, 0.0, 1.0, 2.0], 2, 2)
    assert r.type_tag == (0, 0)
    assert r.numerator.coeffs == {}
    assert r.flags == ["input vanishes through requested numerator order"]


def test_insufficient_order_rejected():
    with pytest.raises(ValidationError):
        pade_univariate([1.0, 2.0], 2, 2)
    with pytest.raises(ValidationError):
        pade_multivariate(MultiSeries.constant([1.0], 2, 1), 1, 2)


# ---- multivariate ----------------------------------------------------------


def bivariate_geometric(order):
    """Series of 1/(1 - z1 - z2) through the given order."""
    den = MultiSeries(2, 1, 1, {(0, 0): [1.0], (1, 0): [-1.0], (0, 1): [-1.0]})
    return reciprocal_truncated(den, order)


def test_bivariate_geometric_zero_one():
    r = pade_multivariate(bivariate_geometric(4), 0, 1)[0]
    assert np.allclose(r.numerator.get((0, 0)), 1.0, atol=1e-12)
    assert np.allclose(r.denominator.get((0, 0)), 1.0)
    assert np.allclose(r.denominator.get((1, 0)), -1.0, atol=1e-12)
    assert np.allclose(r.denominator.get((0, 1)), -1.0, atol=1e-12)


def test_bivariate_exact_rational_recovery():
    num = MultiSeries(2, 1, 1, {(1, 0): [1.0], (0, 1): [1.0]})
    den = MultiSeries(2, 1, 2, {(0, 0): [1.0], (1, 1): [1.0]})
    ser = taylor_of_rational(RationalMap(num, den, (1, 2)), 5)
    r = pade_multivariate(ser, 1, 2)[0]
    assert np.allclose(r.numerator.get((1, 0)), 1.0, atol=1e-12)
    assert np.allclose(r.numerator.get((0, 1)), 1.0, atol=1e-12)
    assert np.allclose(r.denominator.get((1, 1)), 1.0, atol=1e-12)
    for idx in indices_up_to_order(2, 2):
        if idx not in ((0, 0), (1, 1)):
            assert np.allclose(r.denominator.get(idx), 0.0, atol=1e-12)


def test_bivariate_polynomial_passthrough():
    rng = np.random.default_rng(4)
    ser = MultiSeries(2, 1, 3, {idx: rng.normal(size=1)
                                for idx in indices_up_to_order(2, 3)})
    r = pade_multivariate(ser, 3, 0)[0]
    assert r.type_tag == (3, 0)
    for idx in indices_up_to_order(2, 3):
        assert np.allclose(r.numerator.get(idx), ser.get(idx), atol=1e-14)


def test_vector_input_defaults_to_componentwise_denominators():
    rng = np.random.default_rng(17)
    ser = MultiSeries(2, 2, 4, {idx: rng.normal(size=2)
                                for idx in indices_up_to_order(2, 4)[1:]})
    rs = pade_multivariate(ser, 2, 2)
    assert isinstance(rs, list) and len(rs) == 2


@pytest.mark.parametrize("dim, n, m", [(2, 2, 2), (2, 3, 1), (3, 1, 2),
                                       (2, 2, 0)])
def test_vector_input_is_the_componentwise_scalar_approximants(dim, n, m):
    rng = np.random.default_rng(8)
    coeffs = {idx: rng.normal(size=3) + 1j * rng.normal(size=3)
              for idx in indices_up_to_order(dim, n + m)}
    # component 1 has degree n - m: the homogeneous block (orders n+1..n+m
    # divided by orders 0..m) reads none of its coefficients; component 2
    # has signed zeros, which a scalar series does not store
    for i, (idx, v) in enumerate(coeffs.items()):
        if sum(idx) > n - m:
            v[1] = 0.0
        if i % 2:
            v[2] = complex(-0.0, -0.0)
    ser = MultiSeries(dim, 3, n + m, coeffs)
    maps = pade_multivariate(ser, n, m)
    for j, r in enumerate(maps):
        alone = pade_multivariate(ser.component(j), n, m)[0]
        assert r.type_tag == alone.type_tag and r.flags == alone.flags
        for got, want in ((r.numerator, alone.numerator),
                          (r.denominator, alone.denominator)):
            assert np.array_equal(got.grlex(got.order),
                                  want.grlex(want.order))
    vanishes = ["homogeneous system vanishes" in " ".join(r.flags)
                for r in maps]
    assert vanishes == [False, m > 0, False]


def test_match_property_on_random_bivariate_series():
    rng = np.random.default_rng(33)
    for _ in range(10):
        n = int(rng.integers(0, 4))
        m = int(rng.integers(1, 3))
        ser = MultiSeries(2, 1, n + m, {idx: rng.normal(size=1)
                                        for idx in indices_up_to_order(2, n + m)})
        r = pade_multivariate(ser, n, m)[0]
        t = taylor_of_rational(r, n)
        scale = max(np.max(np.abs(v)) for v in ser.coeffs.values())
        # the numerator conditions (orders <= N) always hold exactly;
        # the homogeneous block holds in least squares
        for idx in indices_up_to_order(2, n):
            assert np.allclose(t.get(idx), ser.get(idx), atol=1e-8 * scale)


def test_rational_text_round_trip():
    rng = np.random.default_rng(5)
    c = rng.normal(size=9)
    r = pade_univariate(c, 4, 4)
    text = rational_to_text(r)
    back = rational_from_text(text)
    assert rational_to_text(back) == text
    assert back.type_tag == r.type_tag

    ser = MultiSeries(2, 2, 4, {idx: rng.normal(size=2)
                                for idx in indices_up_to_order(2, 4)[1:]})
    rs = pade_multivariate(ser, 2, 2)
    text2 = rationals_to_text(rs)
    back2 = rationals_from_text(text2)
    assert rationals_to_text(back2) == text2


def test_evaluation_follows_a_replaced_coefficient():
    r = pade_univariate([1.0, 0.5, 0.25, 0.125, 0.0625], 2, 2)
    x = np.array([[0.3]])
    assert np.isclose(evaluate_rational_many(r, x)[0, 0], 1.0 / 0.85)
    coeffs = r.numerator.coeffs
    idx = max(coeffs, key=lambda k: abs(coeffs[k][0]))
    coeffs[idx] = 2.0 * coeffs[idx]
    want = r.numerator.evaluate(x[0])[0] / r.denominator.evaluate(x[0])[0]
    assert np.isclose(want, 2.0 / 0.85)
    assert evaluate_rational_many(r, x)[0, 0] == want
    r.denominator.coeffs[(1,)] = np.array([-0.25 + 0j])
    assert np.isclose(evaluate_rational_many(r, x)[0, 0], 2.0 / 0.925)


def test_quotient_evaluation_matches_manual_division():
    rng = np.random.default_rng(8)
    c = rng.normal(size=7)
    r = pade_univariate(c, 3, 3)
    x = np.array([0.37])
    num = r.numerator.evaluate(x)[0]
    den = r.denominator.evaluate(x)[0]
    assert np.allclose(evaluate_rational_many(r, [x])[0][0], num / den,
                       atol=1e-14)
