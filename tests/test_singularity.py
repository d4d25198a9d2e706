import math

import numpy as np
import pytest

from gssm.errors import ValidationError
from gssm.pade import RationalMap
from gssm.series import MultiSeries
from gssm.singularity import (classify_sign_pattern, denominator_zero_scan,
                              estimate_radius, locate_singularity)
from gssm.ssm import compute_ssm, spectral_analysis
from gssm.systems import make_system

from closed_forms import (euler_series, odd_geometric_series,
                          synthetic_pattern_series)


def test_radius_of_known_poles():
    geo = np.array([2.0 ** n for n in range(20)])
    assert abs(estimate_radius(geo).radius - 0.5) < 0.01
    est = estimate_radius(odd_geometric_series(25))
    assert abs(est.radius - 1.0) < 0.02
    # pole with an algebraic prefactor: c_n = (n+1)^0.7 / r^n
    c = np.array([(n + 1) ** 0.7 / 0.8 ** n for n in range(25)])
    assert abs(estimate_radius(c).radius - 0.8) < 0.016


def test_divergent_series_flagged():
    est = estimate_radius(euler_series(20))
    assert est.radius == 0.0
    assert any("zero radius" in f for f in est.flags)


def test_radius_needs_enough_coefficients():
    with pytest.raises(ValidationError):
        estimate_radius(np.array([1.0, 1.0, 1.0, 1.0, 1.0]))
    with pytest.raises(ValidationError):
        estimate_radius(np.zeros(10))


def test_pure_patterns_recover_theta_exactly():
    for theta, pattern in ((0.0, "all-positive"),
                           (math.pi / 4, "period-8"),
                           (math.pi / 2, "alternating")):
        coeffs = synthetic_pattern_series(0.9, theta, 0.5, 24)
        est = classify_sign_pattern(coeffs)
        assert est.angle == theta
        assert est.pattern == pattern
        assert est.confidence == 1.0


def test_printed_frequency_coefficients_alternate():
    om = np.zeros(7)
    om[0], om[2], om[4], om[6] = 1.7320, 0.0385, -0.0037, 0.0004
    est = classify_sign_pattern(om)
    assert est.pattern == "alternating"
    assert est.angle == math.pi / 2


def test_same_sign_tail_is_a_real_axis_singularity():
    est = classify_sign_pattern(np.array([0.0, 0.0, -1.1, -2.6, -7.1, -21.0]))
    assert est.pattern == "all-positive"
    assert est.angle == 0.0
    even = np.zeros(12)
    even[::2] = 1.0  # 1/(1-z^2)
    est = classify_sign_pattern(even)
    assert est.pattern == "all-positive"


def test_odd_series_alternating():
    est = classify_sign_pattern(odd_geometric_series(15))
    assert est.pattern == "alternating"
    assert est.angle == math.pi / 2


def test_too_few_signs_is_inconclusive():
    est = classify_sign_pattern(np.array([1.0, 0.0, -0.5, 0.0, 0.2]))
    assert est.pattern == "inconclusive"


def test_garbled_signs_are_irregular():
    c = np.zeros(18)
    c[2::2] = [1.0, 1.0, -1.0, 1.0, -1.0, -1.0, 1.0, -1.0]
    est = classify_sign_pattern(c)
    assert est.pattern == "irregular"
    assert est.confidence < 1.0


def test_signs_that_no_angle_matches_are_irregular():
    # even-power signs + + 0 + -: the zero needs cos(6 theta) = 0, and none
    # of those angles gives the rest
    est = classify_sign_pattern(np.array([0.0, 0.0, 1.0, 0.0, 1.0, 0.0, 0.0,
                                          0.0, 1.0, 0.0, -1.0]))
    assert est.pattern == "irregular"
    assert est.confidence == 0.8
    assert est.flags == ["best sign agreement 0.800 < 1"]


def test_locate_singularity_summary():
    est = locate_singularity(odd_geometric_series(25))
    assert abs(est.radius - 1.0) < 0.02
    assert est.angle == math.pi / 2
    assert est.pattern == "alternating"


def test_locate_singularity_of_the_computed_lift_manifold():
    # y = x/(1+x^2) with x = p/sqrt(2): poles at p = +-i sqrt(2)
    sys = make_system("imaginary_sing").realization
    spec = spectral_analysis(sys, 1)
    for order in (11, 21, 31):
        model = compute_ssm(sys, spec, order, style="graph")
        est = locate_singularity(model.W.component(1))
        assert abs(est.radius - math.sqrt(2.0)) <= 1e-12, (order, est.radius)
        assert est.angle == math.pi / 2
        assert est.pattern == "alternating"
        assert est.confidence == 1.0


def test_locate_singularity_reports_both_estimators():
    coeffs = odd_geometric_series(25)
    est = locate_singularity(coeffs)
    rad, pat = estimate_radius(coeffs), classify_sign_pattern(coeffs)
    assert (est.radius, est.fit_residual) == (rad.radius, rad.fit_residual)
    assert (est.angle, est.pattern, est.confidence) == \
        (pat.angle, pat.pattern, pat.confidence)
    assert est.flags == rad.flags + pat.flags
    # four nonzero coefficients carry a sign pattern but no ratio fit
    est = locate_singularity(np.array([1.0, 0.0, -0.5, 0.0, 0.25, 0.0,
                                       -0.125]))
    assert math.isnan(est.radius) and math.isnan(est.fit_residual)
    assert est.pattern == "alternating"
    assert est.flags == ["no ratio fit: need at least 6 nonzero coefficients"]


def _scalar_rational(den_coeffs):
    num = MultiSeries(1, 1, 0, {(0,): [1.0]})
    den = MultiSeries(1, 1, len(den_coeffs) - 1,
                      {(k,): [v] for k, v in enumerate(den_coeffs) if v})
    return RationalMap(num, den, (0, len(den_coeffs) - 1))


def test_scan_flags_sign_changes_only_when_present():
    grid = [np.linspace(0.0, 2.0, 81)]
    clean = _scalar_rational([1.0, 1.0])
    assert denominator_zero_scan(clean, grid) == []
    dirty = _scalar_rational([1.0, -1.0])
    flags = denominator_zero_scan(dirty, grid)
    assert flags
    assert all(abs(f.point[0] - 1.0) <= 0.05 for f in flags)


def test_scan_bivariate_circle():
    num = MultiSeries(2, 1, 0, {(0, 0): [1.0]})
    den = MultiSeries(2, 1, 2, {(0, 0): [1.0], (2, 0): [-1.0], (0, 2): [-1.0]})
    rmap = RationalMap(num, den, (0, 2))
    axes = [np.linspace(0.0, 1.0, 41)] * 2
    flags = denominator_zero_scan(rmap, axes)
    assert flags
    radii = np.array([np.hypot(*f.point) for f in flags])
    assert np.all(np.abs(radii - 1.0) < 0.05)


def test_scan_monotone_in_floor():
    # positive denominator dipping to 1e-4 near x=1: only the floor matters
    delta = 1e-4
    den = [1.0, -2.0 / (1 + delta), 1.0 / (1 + delta)]
    rmap = _scalar_rational(den)
    grid = [np.linspace(0.0, 2.0, 201)]
    counts = [len(denominator_zero_scan(rmap, grid, floor=f))
              for f in (1e-6, 1e-3, 1e-1)]
    assert counts[0] == 0
    assert counts[0] <= counts[1] <= counts[2]
    assert counts[2] > counts[1] > 0


def test_scan_exact_zero_is_below_floor_and_not_a_sign_change():
    # 1 - x on 0, 0.5, .., 2 is exactly 0 at x = 1; its neighbours' products
    # with it are 0, not negative
    flags = denominator_zero_scan(_scalar_rational([1.0, -1.0]),
                                  [np.linspace(0.0, 2.0, 5)])
    assert [(f.point.tolist(), f.value, f.reason) for f in flags] == \
        [([1.0], 0.0, "below-floor")]


def test_scan_three_axes_matches_a_pointwise_reference():
    den = MultiSeries(3, 1, 2, {(0, 0, 0): [1.0], (1, 0, 0): [-2.0],
                                (0, 1, 1): [1.0], (0, 0, 2): [-0.5]})
    rmap = RationalMap(MultiSeries.constant([1.0], 3, 0), den, (0, 2))
    axes = [np.linspace(0.0, 1.0, 6), np.linspace(-1.0, 1.0, 5),
            np.linspace(0.0, 1.0, 4)]
    floor = 0.05
    grid = list(np.ndindex(6, 5, 4))  # flat (C) order
    points = np.array([[axes[a][i] for a, i in enumerate(g)] for g in grid])
    value = dict(zip(grid, den.evaluate_many(points)[:, 0].real))
    want = []
    for g in grid:
        steps = [g[:a] + (g[a] + s,) + g[a + 1:] for a in range(3)
                 for s in (-1, 1)]
        if abs(value[g]) < floor:
            want.append((g, "below-floor"))
        elif any(value[g] * value[h] < 0 for h in steps if h in value):
            want.append((g, "sign-change"))
    assert {r for _, r in want} == {"below-floor", "sign-change"}
    flags = denominator_zero_scan(rmap, axes, floor=floor)
    assert [(f.point.tolist(), f.value, f.reason) for f in flags] == \
        [(points[grid.index(g)].tolist(), value[g], r) for g, r in want]


def test_scan_validates_axes():
    rmap = _scalar_rational([1.0, 0.5])
    with pytest.raises(ValidationError):
        denominator_zero_scan(rmap, [np.linspace(0, 1, 5)] * 2)
