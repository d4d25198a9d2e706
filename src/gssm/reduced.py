"""Running and analyzing the reduced dynamics.

A ReducedField is the right-hand side of the reduced model as rational
maps (the globalized model); a polynomial field is the [N/0] case, whose
denominators are all the constant 1.  The analysis routines (backbone,
forced response, Poincare sections, Lyapunov exponent, PSD) operate on
these fields; everything returns plain arrays or TrajectoryData so the
outputs can be dumped to CSV.  Every run of a field goes through one
Taylor-series integrator (_run).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np
# only perfbench/tracer.py reads this name: it wraps reduced.solve_ivp
from scipy.integrate import solve_ivp  # noqa: F401
from scipy.optimize import brentq
from scipy.signal import periodogram

from .errors import NumericalError, ValidationError
from .pade import (DEFAULT_POLE_FLOOR, RationalMap, pade_univariate,
                   rational_parts)
from .series import MultiSeries, grlex_key
from .ssm import (PolarNormalForm, PolySystem, SpectralData, SSMModel,
                  _conjugate_row, _imaginary_residual, foliation_projection,
                  realify_parametrization)
from .trajectory import TrajectoryData

DEFAULT_BLOWUP_FACTOR = 1e6
DEFAULT_POLE_EVENT_FLOOR = 1e-6
DEFAULT_RTOL, DEFAULT_ATOL = 1e-9, 1e-12


@dataclass
class Forcing:
    """Harmonic forcing eps * vector * cos(frequency t) in reduced coordinates."""

    amplitude: float
    frequency: float
    vector: np.ndarray

    def __post_init__(self):
        if self.frequency <= 0 and self.amplitude != 0:
            raise ValidationError("forcing frequency must be positive")
        self.vector = np.asarray(self.vector, dtype=float).reshape(-1)


@dataclass
class ReducedField:
    """Rational maps stacked into one field of dim = sum of their dim_out
    components, each a function of all dim variables.  `polynomial` (every
    denominator is the constant 1) decides the run's stop rules.  The
    coefficients must be real within _imaginary_residual's bound
    (ValidationError otherwise)."""

    rationals: List[RationalMap]
    forcing: Optional[Forcing] = None
    dim: int = field(init=False)

    def __post_init__(self):
        if not self.rationals:
            raise ValidationError("a field needs rational maps")
        self.dim = sum(r.dim_out for r in self.rationals)
        if any(r.dim_in != self.dim for r in self.rationals):
            raise ValidationError("rational maps must cover dim components")
        if self.forcing is not None and \
                self.forcing.vector.shape != (self.dim,):
            raise ValidationError("forcing vector must have the field dim")
        # the integrator runs in reals: an imaginary part would be dropped
        for r in self.rationals:
            for s in (r.numerator, r.denominator):
                imag = _imaginary_residual(s)
                if imag is not None:
                    raise ValidationError(
                        f"field has complex coefficients (imaginary part up "
                        f"to {imag:.2e}); realify the model first")

    @classmethod
    def from_series(cls, series: MultiSeries,
                    forcing: Optional[Forcing] = None) -> "ReducedField":
        return cls.from_rationals(RationalMap.polynomial(series), forcing)

    @classmethod
    def from_rationals(cls, rationals: Union[RationalMap, Sequence[RationalMap]],
                       forcing: Optional[Forcing] = None) -> "ReducedField":
        if isinstance(rationals, RationalMap):
            rationals = [rationals]
        return cls(rationals=list(rationals), forcing=forcing)

    @property
    def polynomial(self) -> bool:
        """Every denominator is the constant 1 (b0 = 1 its one term); read
        at each use, as a series' terms may be written after construction."""
        return all(len(r.denominator.coeffs) == 1 for r in self.rationals)

    def rhs(self, t: float, u: np.ndarray) -> np.ndarray:
        """Forced field at time t; u is one state (dim,) or stacked states
        (m, dim).  The integrator expands the field itself (_Jets); this is
        the field's evaluation, which tests check the integrator against."""
        u = np.asarray(u)
        pts = u.reshape(-1, self.dim)
        out = np.hstack([num.real / den.real[:, None] for num, den in
                         (rational_parts(r, pts) for r in self.rationals)])
        out = out.reshape(u.shape)
        if self.forcing is None or self.forcing.amplitude == 0.0:
            return out
        eps, omega = self.forcing.amplitude, self.forcing.frequency
        return out + eps * self.forcing.vector * math.cos(omega * t)

    def min_denominator(self, u: np.ndarray) -> float:
        """Smallest |denominator| at a state or at stacked states."""
        pts = np.reshape(u, (-1, self.dim))
        return min(np.min(np.abs(rational_parts(r, pts)[1].real))
                   for r in self.rationals)


def _initial_state(field: ReducedField, ic) -> np.ndarray:
    """ic as a state of the field; ValidationError unless it has the
    field's dim, is finite and lies off the pole floor."""
    y0 = np.asarray(ic, dtype=float).reshape(-1)
    if y0.shape != (field.dim,):
        raise ValidationError(f"initial condition must have dim {field.dim}")
    if not np.all(np.isfinite(y0)):
        raise ValidationError("initial condition must be finite")
    if not field.polynomial and \
            field.min_denominator(y0) < DEFAULT_POLE_EVENT_FLOOR:
        raise ValidationError("initial condition is within the pole floor")
    return y0


# ---- the Taylor integrator ----------------------------------------------------


TAYLOR_ORDER = 24
# the most padded slots for which _Jets maps the known parts to the
# parents' coefficients with a dense product rather than a gather
_PARENT_PRODUCT_SLOTS = 64
# Jorba & Zou's safety factor on the step size from the last two coefficients
_STEP_SAFETY = math.exp(-0.7 / (TAYLOR_ORDER - 1))


class _Jets:
    """Taylor coefficients of the field's solutions, one order at a time.

    The field's monomials form a chain of slots: each is a variable, or a
    lower monomial x^par(a) times one variable x_var(a).  Along solutions
    y(t0 + s) = sum_k Y_k s^k, slot a's k-th coefficient x_k(a) is the
    Cauchy product sum_i x_i(par(a)) Y_{k-i, var(a)}, whose one unknown term
    at order k is x_k(par(a)) Y_{0, var(a)}.  Unrolled down the chain, x_k(a)
    is the sum over b = a and a's ancestors of y0^(e_a - e_b) h_k(b), h_k(b)
    being b's known part.  So the parents' coefficients are a map of the
    known parts, with the weights y0^(e_a - e_b) over the at most depth - 1
    ancestors of each slot's parent, and the step's gain
    sum_a C_a y0^(e_a - e_b), C_a being slot a's coefficients in every
    numerator component and denominator, maps the known parts to the
    numerators and denominators.

    Y_{k+1} = Q_k / (k + 1) + f_k is one product per order, of the row
    [h_k, 1, cos(omega t0), sin(omega t0), conv_k] with the step's fold_k:
    the numerators' gain over k + 1, the constants (order 0 only), the
    forcing eps v cos(omega t) as its closed-form jet
    eps v omega^k cos(omega t0 + k pi/2) / (k + 1)!, which takes one of
    four sign patterns of cos and sin, and -I / (k + 1).  A polynomial
    field, whose denominators are all the constant 1, leaves conv_k = 0.
    Otherwise the gain is divided by the denominators' values at order 0,
    and conv_k is sum_{j>=1} D_j Q_{k-j} of the series-division recurrence
    Q_k = N_k - conv_k, three more array calls per order.  The slots are
    grouped by var into blocks of one width, so the Cauchy products
    broadcast each component over its block.

    The parents' map is linear in the same row.  With parent_product, set
    for at most _PARENT_PRODUCT_SLOTS slots, the map is a dense block
    stacked above fold_k (with the units x_0(1) = 1 in the column of the
    row's 1), so one product per order gives the parents' x_k and Y_{k+1}
    and a polynomial field costs two array calls per order.  The dense
    block costs size^2 per order and state, so a larger field takes a
    gather and a product over the ancestors instead, four calls per order
    for a polynomial field, whose work per order and state is linear in
    the number of slots.
    """

    def __init__(self, field: ReducedField):
        d = field.dim
        maps = [(r.numerator, r.denominator) for r in field.rationals]
        links = {}        # monomial -> (parent monomial, variable)

        def link(e):
            if sum(e) and e not in links:
                j = next(i for i, p in enumerate(e) if p)
                links[e] = (e[:j] + (e[j] - 1,) + e[j + 1:], j)
                link(links[e][0])

        units = [tuple(int(i == j) for i in range(d)) for j in range(d)]
        for e in units + [e for pair in maps for s in pair for e in s.coeffs]:
            link(e)
        # block j holds the slots linked through x_j in grlex order, so its
        # first slot is x_j itself; pads fill every block to one width
        blocks = [sorted((e for e in links if links[e][1] == j), key=grlex_key)
                  for j in range(d)]
        width = max(map(len, blocks))
        slot = {e: j * width + i for j, block in enumerate(blocks)
                for i, e in enumerate(block)}
        size = d * width
        self.field, self.dim, self.width = field, d, width
        # pairs (b, a, e_a - e_b) for b = a and every b below a on the
        # chain, grouped by b; a pad pairs with itself
        pairs = []
        for e, a in slot.items():
            b, diff = e, np.zeros(d, dtype=int)
            while sum(b):
                pairs.append((slot[b], a, diff.copy()))
                diff[links[b][1]] += 1
                b = links[b][0]
        pairs += [(a, a, np.zeros(d, dtype=int))
                  for a in set(range(size)) - set(slot.values())]
        pairs.sort(key=lambda p: p[0])
        below = np.array([b for b, _, _ in pairs])
        owners = np.array([a for _, a, _ in pairs])
        # exponents as floats, so the step's powers need no cast
        self.diffs = np.array([diff for _, _, diff in pairs],
                              dtype=float).reshape(-1, d).T
        self.starts = np.flatnonzero(np.r_[True, below[1:] != below[:-1]])
        # each slot's parent, unrolled: the slots b of the parent's pairs,
        # and those pairs (index len(pairs), weight 0, pads the short rows)
        runs = [[] for _ in range(size)]
        for i, (_, a, _) in enumerate(pairs):
            runs[a].append(i)
        depth = max(sum(e) for e in links)
        self.ancestors = np.zeros((size, depth - 1), dtype=int)
        self.ancestor_pairs = np.full((size, depth - 1), len(pairs))
        for e, a in slot.items():
            if sum(e) > 1:
                ups = runs[slot[links[e][0]]]
                self.ancestors[a, :len(ups)] = [pairs[i][0] for i in ups]
                self.ancestor_pairs[a, :len(ups)] = ups
        self.units = np.zeros(size)
        self.units[::width] = 1.0
        # the parents' map as (slot, ancestor, pair) entries of a dense
        # block, for the product path
        real = self.ancestor_pairs < len(pairs)
        self.parent_entries = (np.nonzero(real)[0], self.ancestors[real],
                               self.ancestor_pairs[real])
        self.parent_product = size <= _PARENT_PRODUCT_SLOTS
        # C: every numerator component and its map's denominator on the
        # slots, taken per pair; `constant` is the constant monomial's share
        owner = np.repeat(np.arange(len(maps)), [n.dim_out for n, _ in maps])
        linear = np.zeros((size, 2 * d))
        self.constant = np.zeros(2 * d)
        for i, (n, q) in enumerate(maps):
            for series, cols in ((n, np.flatnonzero(owner == i)),
                                 (q, d + np.flatnonzero(owner == i))):
                for e, c in series.coeffs.items():
                    row = linear[slot[e]] if sum(e) else self.constant
                    row[cols] = c.real
        self.pair_rows = linear[owners].T
        self.unit_denominators = field.polynomial
        self.inverse = 1.0 / np.arange(1, TAYLOR_ORDER + 1)
        self._spaces = {}
        # the forcing's jet on cos(omega t0) and sin(omega t0)
        self.omega, self.jet = 0.0, np.zeros((TAYLOR_ORDER, 2, d))
        forcing = field.forcing
        if forcing is not None and forcing.amplitude != 0.0:
            k = np.arange(TAYLOR_ORDER)
            scale = forcing.amplitude * forcing.frequency ** k / \
                np.cumprod(np.maximum(k, 1.0)) / (k + 1)
            # cos(x + k pi/2) = cos x, -sin x, -cos x, sin x
            turns = np.array([[1.0, 0.0], [0.0, -1.0],
                              [-1.0, 0.0], [0.0, 1.0]])[k % 4]
            self.omega = forcing.frequency
            self.jet = np.outer(scale, forcing.vector)[:, None] * \
                turns[:, :, None]

    def _workspace(self, m: int, divide: bool, product: bool):
        """Buffers for m states and their views at every order, kept from
        step to step.  The general path (divide) has its own: it rewrites
        fold_0's constants at each step, divided by the denominators.  The
        product path stacks the parents' map above each fold_k, and order
        k writes the parents' x_k and Y_{k+1} side by side into row k + 1
        of one buffer, which the later Cauchy products read as views."""
        key = (m, divide, product)
        if key not in self._spaces:
            n, d, width = TAYLOR_ORDER, self.dim, self.width
            size = d * width
            top = size if product else 0
            if product:
                out = np.zeros((m, n + 1, size + d))
                ys = out[:, :, size:].transpose(1, 0, 2)
                ps = out[:, 1:, :size].transpose(0, 2, 1)
                nxts = [out[:, k + 1, :, None] for k in range(n)]
                parents = [None] * n
            else:
                ys = np.empty((n + 1, m, d))
                ps = np.zeros((m, size, n))   # x_k at each slot's parent
                nxts = [ys[k + 1, :, :, None] for k in range(n)]
                # the last order's parents would feed no Cauchy product
                parents = [ps[:, :, k, None, None]
                           for k in range(n - 1)] + [None]
            # each state's row [h_k, 1, cos, sin, conv_k] and the step's
            # products fold_k that take it to Y_{k+1}, below the parents'
            # map on the product path (which adds the units at order 0)
            rows = np.zeros((m, 1, size + 3 + d))
            rows[:, 0, size] = 1.0
            fold = np.zeros((n, m, top + d, size + 3 + d))
            fold[0, :, :top, size] = self.units[:top]
            fold[0, :, top:, size] = self.constant[:d]
            fold[:, :, top:, size + 1:size + 3] = \
                self.jet.transpose(0, 2, 1)[:, None]
            fold[:, :, top:, size + 3:] = \
                -self.inverse[:, None, None, None] * np.eye(d)
            known = rows[:, 0, :size].reshape(m, d, width, 1, 1)
            conv = rows[:, 0, size + 3:]
            # numerators (overwritten by the quotients) and denominators
            nd = np.zeros((m, 2 * d, n))
            lagged = ys.transpose(1, 2, 0)[:, :, None, :, None]
            blocks = ps.reshape(m, d, width, 1, n)
            orders = [(blocks[..., :k], lagged[..., k:0:-1, :], parents[k],
                       nd[:, None, :, k], nd[:, d:, None, 1:k + 1],
                       nd[:, :d, k - 1::-1, None], nd[:, :d, k], fold[k],
                       nxts[k])
                      for k in range(n)]
            n_pairs = self.diffs.shape[1]
            gain = np.empty((m, 2 * d, size))
            self._spaces[key] = (
                ys, rows, rows.transpose(0, 2, 1),
                rows[:, 0, size + 1:size + 3], fold, fold[:, :, top:, :size],
                fold[0, :, top:, size], known, conv, conv[:, :, None, None],
                nd, np.empty((m, d, n_pairs)), np.zeros((m, n_pairs + 1)),
                np.empty((m, size, 1) + self.ancestors.shape[1:]),
                np.empty((m, size) + self.ancestors.shape[1:] + (1,)),
                gain, gain.transpose(0, 2, 1), orders)
        return self._spaces[key]

    def expand(self, t0: float, y0: np.ndarray) -> np.ndarray:
        """Coefficients Y_0..Y_N (N = TAYLOR_ORDER) of the solutions through
        the states y0 (m, d) at t0, shape (N + 1, m, d)."""
        d, size = self.dim, self.units.size
        divide = not self.unit_denominators
        (ys, rows, column, trig, fold, numerators, constants, known, conv,
         conv_out, nd, parts, powers, weights, ups, gain, gain_rows,
         orders) = self._workspace(len(y0), divide, self.parent_product)
        # the step's weights y0^(e_a - e_b), and a zero one for the pads;
        # every index is in range, and mode "clip" spares take a buffered out
        np.power(y0[:, :, None], self.diffs, out=parts)
        np.multiply.reduce(parts, axis=1, out=powers[:, :-1])
        if self.parent_product:
            slots, ancestors, links = self.parent_entries
            fold[:, :, slots, ancestors] = powers[:, links]
        else:
            powers.take(self.ancestor_pairs, axis=1, out=weights[:, :, 0],
                        mode="clip")
        np.add.reduceat(powers[:, None, :-1] * self.pair_rows, self.starts,
                        axis=2, out=gain)
        trig[...] = math.cos(self.omega * t0), math.sin(self.omega * t0)
        ys[0] = y0
        values, row = rows[:, 0, :size], rows[:, :, :size]
        lookup = self.ancestors[..., None]
        # order 0: the variables are their own known part
        known.fill(0.0)
        known[:, :, 0, 0, 0] = y0
        _, _, parents, sums, _, _, _, fold_k, nxt = orders[0]
        if parents is not None:
            values.take(lookup, axis=1, out=ups, mode="clip")
            np.matmul(weights, ups, out=parents)
            parents[..., 0, 0] += self.units
        if divide:
            # the later orders come divided by the denominators' values
            np.matmul(row, gain_rows, out=sums)
            nd[:, :, 0] += self.constant
            at_y0 = np.concatenate([nd[:, d:, 0]] * 2, axis=1)
            np.divide(nd[:, :d, 0], at_y0[:, :d], out=nd[:, :d, 0])
            np.divide(gain, at_y0[:, :, None], out=gain)
            np.divide(self.constant[:d], at_y0[:, :d], out=constants)
            conv.fill(0.0)
        np.multiply(self.inverse[:, None, None, None], gain[:, :d],
                    out=numerators)
        np.matmul(fold_k, column, out=nxt)
        for lower, lags, parents, sums, dens, quots, num, fold_k, nxt \
                in orders[1:]:
            np.matmul(lower, lags, out=known)
            if parents is not None:
                values.take(lookup, axis=1, out=ups, mode="clip")
                np.matmul(weights, ups, out=parents)
            if divide:
                np.matmul(row, gain_rows, out=sums)
                np.matmul(dens, quots, out=conv_out)
                np.subtract(num, conv, out=num)
            np.matmul(fold_k, column, out=nxt)
        return ys.copy()


# the rows _step_size reads (Y_0 and the last two), and the exponents of
# _at's powers
_STEP_ROWS = np.array([0, TAYLOR_ORDER - 1, TAYLOR_ORDER])
_POWERS = np.arange(TAYLOR_ORDER + 1.0)


def _step_size(coeffs: np.ndarray, rtol: float, atol: float) -> float:
    """Jorba & Zou's step size from the last two coefficients, for the
    tolerance atol + rtol |y|; inf for a polynomial solution, nan if a
    coefficient overflowed."""
    rows = np.abs(coeffs.take(_STEP_ROWS, axis=0)).reshape(3, -1)
    scale, *tops = rows.max(axis=1).tolist()
    if not all(map(math.isfinite, tops)):
        return math.nan
    tol = atol + rtol * scale
    return _STEP_SAFETY * min(
        (tol / top) ** (1.0 / k) if top else math.inf
        for k, top in zip((TAYLOR_ORDER - 1, TAYLOR_ORDER), tops))


def _at(coeffs: np.ndarray, s) -> np.ndarray:
    """The step polynomial sum_k Y_k s^k at an offset (flat state) or at an
    array of offsets (one row each)."""
    powers = np.power.outer(s, _POWERS)
    return powers @ coeffs.reshape(len(coeffs), -1)


def _run(jets: _Jets, y0, t_span, rtol: float, atol: float,
         t_eval: Optional[np.ndarray] = None, pair: bool = False):
    """One Taylor integration of the field: (times, states, stop), with the
    states at the steps or at t_eval.

    Each step expands the solution to TAYLOR_ORDER (_Jets) and takes the
    step size from the last two coefficients for the tolerance
    atol + rtol |y|.  y is one state of the field, or with pair two stacked
    states that run as one batch.  One state must pass _initial_state, and
    the run stops where its norm passes DEFAULT_BLOWUP_FACTOR * max(1, |y0|).
    Unless the field is polynomial (every denominator the constant 1), the
    run stops where a denominator at any of its states falls to
    DEFAULT_POLE_EVENT_FLOOR.  Both are watched at the end of each step and
    located on its polynomial, as are the t_eval values.  A step size below
    10 spacings of t stops a polynomial field: its solution can end only by
    growing without bound, at times faster than the norm check can follow,
    so the stop is a blowup at the last accepted step.  With a nonconstant
    denominator the step collapse raises NumericalError.  stop is
    (flag, t_stop, y_stop), else None.  A pair has no norm threshold.
    """
    field = jets.field
    checks = []
    if pair:
        y = np.asarray(y0, dtype=float).reshape(2, -1)
    else:
        y = _initial_state(field, y0)[None]
        bound = DEFAULT_BLOWUP_FACTOR * max(1.0, float(np.linalg.norm(y)))
        checks.append((lambda u: np.linalg.norm(u) - bound,
                       lambda t, u: f"blowup at t={t:.6g}: state norm "
                                    f"exceeded {bound:.3g}"))
    if not field.polynomial:
        checks.append((lambda u: field.min_denominator(u)
                       - DEFAULT_POLE_EVENT_FLOOR,
                       lambda t, u: f"pole crossing at t={t:.6g}, "
                                    f"u={np.array2string(u, precision=6)}"))
    t, t_end = float(t_span[0]), float(t_span[1])
    sign = 1.0 if t_end >= t else -1.0
    levels = [g(y) for g, _ in checks]
    if t_eval is None:
        times, states = [t], [y.ravel()]
    else:
        # each step appends its block of samples, possibly empty
        times, states = [t_eval[:0]], [np.empty((0, y.size))]
        keys = sign * t_eval
    done, stop = 0, None
    while t != t_end:
        # near a blowup the high orders overflow; the step size then collapses
        with np.errstate(over="ignore", invalid="ignore"):
            coeffs = jets.expand(t, y)
        h = _step_size(coeffs, rtol, atol)
        if not h >= 10.0 * math.ulp(t):
            if not field.polynomial:
                raise NumericalError(f"integration failed: step size "
                                     f"collapsed at t={t:.6g}")
            stop = (f"blowup at t={t:.6g}: step size collapsed at state "
                    f"norm {np.linalg.norm(y):.3g}", t, y.ravel())
            break
        t_new = t_end if h >= abs(t_end - t) else t + sign * h
        y_new = _at(coeffs, t_new - t).reshape(y.shape)
        new_levels = [g(y_new) for g, _ in checks]
        crossed = [(brentq(lambda s: g(_at(coeffs, s * (t_new - t))),
                           0.0, 1.0, xtol=1e-15), i)
                   for i, ((g, _), a, b) in enumerate(zip(checks, levels,
                                                          new_levels))
                   if a * b <= 0.0]
        if crossed:
            s, i = min(crossed)
            t_new = t + s * (t_new - t)
            y_new = _at(coeffs, t_new - t)
            stop = (checks[i][1](t_new, y_new), t_new, y_new)
        if t_eval is None:
            times.append(t_new)
            states.append(y_new.ravel())
        else:
            upto = int(np.searchsorted(keys, sign * t_new, side="right"))
            times.append(t_eval[done:upto])
            states.append(_at(coeffs, t_eval[done:upto] - t))
            done = upto
        if stop is not None:
            break
        t, y, levels = t_new, y_new, new_levels
    if t_eval is None:
        return (np.asarray(times, dtype=float),
                np.reshape(states, (len(times), y.size)), stop)
    return np.concatenate(times), np.concatenate(states), stop


def integrate_reduced(f: ReducedField, ic, t_span: Tuple[float, float],
                      rtol: float = DEFAULT_RTOL, atol: float = DEFAULT_ATOL,
                      n_out: int = 1001) -> TrajectoryData:
    """Adaptive integration with blowup and pole-crossing termination.

    n_out >= 2 samples span t_span, whose ends must be finite and distinct
    (ValidationError).  Finite-time blowup of truncated Taylor fields is
    expected behavior: the run stops where the state norm passes the
    threshold, or for a polynomial field (every denominator the constant 1)
    where the step size collapses first, and the trajectory ends at that
    stop and carries a flag instead of the integration erroring out.  A
    field with a nonconstant denominator stops at a pole crossing, and its
    step collapse raises NumericalError.
    """
    t0, t1 = (float(t) for t in t_span)
    if n_out < 2 or not (math.isfinite(t0) and math.isfinite(t1)) \
            or t0 == t1:
        raise ValidationError("need n_out >= 2 and finite t0 != t1")
    times, values, stop = _run(_Jets(f), ic, (t0, t1), rtol, atol,
                               np.linspace(t0, t1, n_out))
    if stop is None:
        return TrajectoryData(times, values)
    flag, t_stop, u_stop = stop
    return TrajectoryData(np.append(times, t_stop), np.vstack([values, u_stop]),
                          [flag])


def lift(chart, traj: TrajectoryData) -> TrajectoryData:
    """Map a reduced trajectory to ambient space through the parametrization.

    chart may be an SSMModel (lifted through realify_parametrization, so a
    model whose W does not realify raises NumericalError), or a MultiSeries
    or RationalMap with real coefficients (ValidationError otherwise: the
    complex normal-form W of a model is not a real chart).  Pole-adjacent
    samples of a rational chart turn into NaN rows with a flag, so one bad
    sample does not discard the rest of the trajectory.
    """
    if isinstance(chart, SSMModel):
        return lift(realify_parametrization(chart), traj)
    flags = list(traj.flags)
    if isinstance(chart, MultiSeries):
        _require_real(chart)
        rows = chart.evaluate_many(traj.values).real
    elif isinstance(chart, RationalMap):
        _require_real(chart.numerator)
        _require_real(chart.denominator)
        num, den = rational_parts(chart, traj.values)
        bad = np.abs(den.real) < DEFAULT_POLE_FLOOR
        rows = num.real / np.where(bad, np.nan, den.real)[:, None]
        if np.any(bad):
            flags.append(f"{np.count_nonzero(bad)} samples within the pole "
                         "floor lifted as NaN")
    else:
        raise ValidationError("chart must be SSMModel, MultiSeries, "
                              "or RationalMap")
    return TrajectoryData(traj.times, rows, flags)


def _require_real(chart: MultiSeries) -> None:
    imag = _imaginary_residual(chart)
    if imag is not None:
        raise ValidationError(
            f"chart has complex coefficients (imaginary part up to "
            f"{imag:.2e}); lift the model or its realified parametrization")


# ---- backbone and forced response --------------------------------------------


def backbone(rep, rho_grid, component: str = "omega") -> np.ndarray:
    """Pairs (rho, omega(rho)) (or kappa) for a polar or rational model."""
    if component not in ("omega", "kappa"):
        raise ValidationError("component must be 'omega' or 'kappa'")
    grid = np.asarray(rho_grid, dtype=float).reshape(-1)
    if np.any(grid < 0):
        raise ValidationError("rho grid must be nonnegative")
    vals = _univariate_value_and_deriv(rep, grid, component)[0]
    return np.column_stack([grid, vals])


def _univariate_value_and_deriv(rep, rho: np.ndarray,
                                component: str) -> Tuple[np.ndarray,
                                                         np.ndarray]:
    if isinstance(rep, PolarNormalForm):
        rep = RationalMap.polynomial(rep.omega_series() if component == "omega"
                                     else rep.kappa_series())
    if not isinstance(rep, RationalMap):
        raise ValidationError("curve representation must be PolarNormalForm "
                              "or RationalMap")
    val, deriv = _rational_value_and_deriv(rep, rho)
    return val.real, deriv.real


def _rational_value_and_deriv(rat: RationalMap, x):
    """Complex value and derivative of a univariate rational at x (a float
    or an array)."""
    pts = np.reshape(x, (-1, 1))
    num, d = rational_parts(rat, pts)
    n = num[:, 0]
    np_, dp = (s.derivative(0).evaluate_many(pts)[:, 0]
               for s in (rat.numerator, rat.denominator))
    shape = np.shape(x)
    return ((n / d).reshape(shape)[()],
            ((np_ * d - n * dp) / d ** 2).reshape(shape)[()])


@dataclass
class FRCPoint:
    rho: float
    Omega: float
    amplitude: float
    stable: bool
    residual: float
    psi: Optional[float] = None


@dataclass
class FRCBranch:
    points: List[FRCPoint] = field(default_factory=list, init=False)

    def as_array(self) -> np.ndarray:
        return np.array([[p.rho, p.Omega, p.amplitude, float(p.stable)]
                         for p in self.points]).reshape(-1, 4)


@dataclass
class ModalForcing:
    """Resonant part of the O(eps) reduced forcing eps * L(p) F cos(Omega t).

    With z = rho e^{i theta} the master coordinate and psi = theta - Omega t,
    averaging over the fast phase leaves the forcing term
    (eps/2) (g(rho) e^{-i psi} + h(rho) e^{i psi}) in rho' + i rho psi'.
    g and h are complex rational functions of u = rho^2.
    """

    eps: float
    g: RationalMap
    h: RationalMap

    @classmethod
    def polynomial(cls, eps: float, g_coeffs, h_coeffs=(0.0,)
                   ) -> "ModalForcing":
        """g and h from coefficients of u^0, u^1, ... (u = rho^2)."""
        return cls(eps, *(RationalMap.polynomial(MultiSeries.from_univariate(c))
                          for c in (g_coeffs, h_coeffs)))

    def at(self, rho):
        """g, dg/drho, h, dh/drho at rho (a float or an array)."""
        g, gu = _rational_value_and_deriv(self.g, rho * rho)
        h, hu = _rational_value_and_deriv(self.h, rho * rho)
        return g, 2.0 * rho * gu, h, 2.0 * rho * hu


def _globalize_in_u(coeffs) -> RationalMap:
    """Pade approximant of a series in u at the type N <= M using every term.

    Raises NumericalError if degree reduction leaves N > M or if the
    denominator has a zero with Re u >= 0.
    """
    if not coeffs:
        return RationalMap.polynomial(MultiSeries.zero(1, 1, 0))
    m = len(coeffs) // 2
    rat = pade_univariate(coeffs, len(coeffs) - 1 - m, m)
    if rat.type_tag[0] > rat.type_tag[1]:
        raise NumericalError(f"forcing approximant has type {list(rat.type_tag)}"
                             f" after degree reduction ({'; '.join(rat.flags)})"
                             "; a numerator degree above the denominator's "
                             "outgrows the damping")
    poles = np.roots(rat.denominator.univariate_coeffs()[::-1])
    if np.any(poles.real >= 0):
        raise NumericalError(f"forcing approximant [{rat.type_tag[0]}/"
                             f"{rat.type_tag[1]}] has a pole at u = "
                             f"{poles[np.argmax(poles.real)]:.6g} with "
                             "Re u >= 0")
    return rat


def foliation_forcing(sys: PolySystem, spec: SpectralData, model: SSMModel,
                      forcing_vector, eps: float) -> ModalForcing:
    """O(eps) reduced forcing projected along the invariant foliation.

    G = (L~ V^-1 F)_+ is the master-row forcing with coefficients G_(a,b)
    on z^a zbar^b (L~ from ssm.foliation_projection, through order - 1).
    Its resonant parts g(rho) = sum G_(n,n) rho^2n and h(rho) = sum
    G_(n+2,n) rho^(2n+2) are globalized by pade_univariate in u = rho^2:
    g directly and h as u times a rational in u.  Each type uses every
    available coefficient with N <= M ([2/3] for g and [2/2] for h/u at
    order 11): a numerator degree above the denominator's makes the forcing
    outgrow the damping at large rho and plants a false resonance peak.
    NumericalError is raised where an approximant breaks that rule after
    pade_univariate's degree reduction, where it has a pole with
    Re u >= 0, the half-plane that holds every amplitude u = rho^2, or
    where the zbar row of R does not mirror the z row (ssm._conjugate_row).
    """
    vec = np.asarray(forcing_vector, dtype=complex).reshape(-1)
    if vec.shape != (model.n,):
        raise ValidationError("forcing vector must have the ambient dim")
    lmap = foliation_projection(sys, spec, model)
    plus = _conjugate_row(model)
    forcing = lmap.linear_transform(np.kron(np.eye(model.d)[plus], vec)[None, :])

    def coeff(a: int, b: int) -> complex:
        return forcing.get((a, b) if plus == 0 else (b, a))[0]

    half = lmap.order // 2
    g_c = [coeff(k, k) for k in range(half + 1)]
    h_c = [coeff(k + 2, k) for k in range(half)]

    g = _globalize_in_u(g_c)
    h = _globalize_in_u(h_c)
    h = RationalMap(MultiSeries(1, 1, h.numerator.order + 1,
                                {(k[0] + 1,): c
                                 for k, c in h.numerator.coeffs.items()}),
                    h.denominator, (h.type_tag[0] + 1, h.type_tag[1]),
                    h.flags)
    return ModalForcing(eps, g, h)


def forced_response(kappa_rep, omega_rep, eps_f, rho_grid,
                    amplitude_fn: Optional[Callable[[float], float]] = None
                    ) -> FRCBranch:
    """Both frequency branches of the steady-state response at each rho.

    eps_f is either the scalar modal forcing of forcing_projection or a
    ModalForcing.  The steady state of the averaged polar equations solves

        (kappa(rho) + i (omega(rho) - Omega)) rho
            + (eps/2) (g(rho) e^{-i psi} + h(rho) e^{i psi}) = 0,

    where a scalar eps_f stands for a constant g with (eps/2)|g| = eps_f and
    h = 0, and the equation reduces to
    (Omega - omega(rho))^2 = (eps_f/rho)^2 - kappa(rho)^2.  Per rho the real
    part is one sinusoid in psi and the imaginary part then gives Omega, so
    both are closed form; grid points without a real solution are simply
    infeasible and produce no output.  Stability comes from the 2x2
    Jacobian of the (rho, psi) system at the fixed point; each FRCPoint
    records its phase psi.
    """
    forcing = eps_f
    if not isinstance(forcing, ModalForcing):
        if eps_f <= 0:
            raise ValidationError("eps_f must be positive")
        forcing = ModalForcing.polynomial(2.0, [eps_f])
    # rho' = kappa rho + (eps/2) Re(s e^{-i psi}),        s = g + conj(h)
    # psi' = omega - Omega + (eps/2 rho) Im(q e^{-i psi}), q = g - conj(h)
    eps = forcing.eps
    if eps <= 0:
        raise ValidationError("forcing amplitude must be positive")
    grid = np.asarray(rho_grid, dtype=float).reshape(-1)
    if np.any(grid <= 0):
        raise ValidationError("rho grid must be positive")
    branch = FRCBranch()
    curves = (_univariate_value_and_deriv(kappa_rep, grid, "kappa")
              + _univariate_value_and_deriv(omega_rep, grid, "omega")
              + forcing.at(grid))
    columns = [c.tolist() for c in curves]
    for rho, k, kp, w, wp, g, gp, h, hp in zip(grid.tolist(), *columns):
        s, sp = g + np.conj(h), gp + np.conj(hp)
        q, qp = g - np.conj(h), gp - np.conj(hp)
        reach = eps * abs(s) / (2.0 * rho)
        disc = reach ** 2 - k ** 2
        if disc < 0 or reach == 0.0:
            continue
        root = math.sqrt(disc)
        amp = amplitude_fn(rho) if amplitude_fn is not None else rho
        for sign in (1.0, -1.0):
            # e^{i(psi - arg s)} = (-kappa - i sign root) / reach; for h = 0
            # this puts Omega = omega + sign root, the scalar equation's roots
            e_plus = s / abs(s) * complex(-k, -sign * root) / reach
            e_minus = 1.0 / e_plus
            forcing_term = 0.5 * eps * (g * e_minus + h * e_plus)
            omega_resp = w + forcing_term.imag / rho
            j11 = kp * rho + k + 0.5 * eps * (sp * e_minus).real
            j12 = 0.5 * eps * (s * e_minus).imag
            j21 = wp + 0.5 * eps * ((qp * e_minus).imag
                                    - (q * e_minus).imag / rho) / rho
            j22 = -0.5 * eps * (q * e_minus).real / rho
            stable = (j11 + j22) < 0 and (j11 * j22 - j12 * j21) > 0
            residual = abs(complex(k, w - omega_resp) + forcing_term / rho)
            branch.points.append(FRCPoint(rho, omega_resp, amp, stable,
                                          residual,
                                          float(np.angle(e_plus))))
            if root == 0.0:
                break
    return branch


def forcing_projection(model: SSMModel, forcing_vector, eps: float) -> float:
    """Modal forcing amplitude eps_f from the ambient forcing direction.

    The ambient forcing eps * v * cos(Omega t) projects onto the master mode
    through the left eigenvector; the rotating resonant half carries the
    factor 1/2.  The value is gauge-dependent and consistent with this
    module's unit-norm eigenvector convention.

    This is the rho^0 term of the O(eps) reduced forcing only: it drops the
    amplitude dependence that foliation_forcing keeps.  On Shaw-Pierre the
    resulting peak amplitude is already 3.7% off the full system at
    eps = 0.01 and 30% off at eps = 0.05.
    """
    if model.master_left is None:
        raise ValidationError("model carries no left eigenvectors")
    v = np.asarray(forcing_vector, dtype=complex).reshape(-1)
    if v.shape != (model.n,):
        raise ValidationError("forcing vector must have the ambient dim")
    return float(eps * abs(np.dot(model.master_left[0], v)) / 2.0)


# ---- stroboscopic sampling, Lyapunov exponent, PSD ---------------------------


def poincare_sample(f: ReducedField, ic, n_periods: int,
                    skip: int = 20, omega: Optional[float] = None
                    ) -> TrajectoryData:
    """States at multiples of the driving period, after a transient skip.

    A blowup or pole crossing ends the samples there, with its flag.
    """
    if omega is None:
        if f.forcing is None:
            raise ValidationError("no forcing frequency to sample at; "
                                  "pass omega explicitly")
        omega = f.forcing.frequency
    if omega <= 0 or n_periods < 1 or skip < 0:
        raise ValidationError("need omega > 0, n_periods >= 1 and skip >= 0")
    period = 2.0 * math.pi / omega
    stamps = (skip + np.arange(1, n_periods + 1)) * period
    times, values, stop = _run(_Jets(f), ic, (0.0, stamps[-1]), DEFAULT_RTOL,
                               DEFAULT_ATOL, stamps)
    if len(times) == 0:
        raise NumericalError(f"trajectory ended before the first section: "
                             f"{stop[0]}")
    return TrajectoryData(times, values, [stop[0]] if stop else [])


@dataclass
class LyapunovEstimate:
    value: float
    fit_error: float
    log_growth: np.ndarray
    times: np.ndarray
    flags: List[str] = field(default_factory=list)


def lyapunov_estimate(f: ReducedField, ic, perturbation_size: float = 1e-7,
                      horizon: float = 200.0, renorm_interval: float = 1.0,
                      transient: float = 50.0) -> LyapunovEstimate:
    """Largest Lyapunov exponent by two-trajectory renormalization.

    The cumulative log separation is fitted against time by least squares;
    renormalization after every interval keeps the pair inside the linear
    regime.  If the very first interval already saturates (separation
    comparable to the state scale) the estimate is flagged as unreliable.
    The initial condition is checked as in integrate_reduced, and a blowup
    (a crossed threshold or, for a polynomial field, a collapsed step size)
    or a pole crossing in the transient raises NumericalError.  In the
    renormalization intervals a nonconstant denominator is watched at both
    states of the pair, and a pole crossing raises NumericalError with its
    time; a polynomial field's pair has no event, and only a collapsed step
    size raises (as a blowup).  The pair runs as one batch of the
    Taylor integrator.  ValidationError unless the horizon is finite and
    holds at least one interval, 0 < renorm_interval <= horizon, and the
    transient is finite and nonnegative.

    On a chaotic field the value is not converged at the default tolerance
    (DEFAULT_RTOL): criterion 13's forced double well reads 0.159 for
    perturbation sizes 1e-6 to 1e-8, against 0.124 at rtol 1e-11 and 0.126
    at 1e-13.  The computed orbit's error grows like e^(0.12 t) and reaches
    order one within the 200-unit horizon, so only the sign and the spread
    across perturbation sizes are meaningful there.
    """
    if perturbation_size <= 0:
        raise ValidationError("perturbation_size must be positive")
    if not 0.0 < renorm_interval <= horizon < math.inf:
        raise ValidationError("need 0 < renorm_interval <= horizon < inf")
    if not 0.0 <= transient < math.inf:
        raise ValidationError("transient must be finite and nonnegative")
    jets, u, t0 = _Jets(f), _initial_state(f, ic), 0.0
    if transient > 0:
        _, states, stop = _run(jets, u, (0.0, transient), DEFAULT_RTOL,
                               DEFAULT_ATOL)
        if stop is not None:
            raise NumericalError(f"transient integration stopped: {stop[0]}")
        u, t0 = states[-1], transient
    direction = np.ones_like(u) / math.sqrt(len(u))
    v = u + perturbation_size * direction

    n_steps = int(round(horizon / renorm_interval))
    times = np.zeros(n_steps)
    log_growth = np.zeros(n_steps)
    total = 0.0
    flags: List[str] = []

    for k in range(n_steps):
        t1 = t0 + renorm_interval
        _, states, stop = _run(jets, np.concatenate([u, v]), (t0, t1),
                               DEFAULT_RTOL, DEFAULT_ATOL, pair=True)
        if stop is not None:
            raise NumericalError(f"renormalization interval stopped: "
                                 f"{stop[0]}")
        z = states[-1]
        u, v = z[:len(u)], z[len(u):]
        dist = np.linalg.norm(v - u)
        if dist == 0.0:
            raise NumericalError("trajectories collapsed to machine identity")
        scale = max(np.linalg.norm(u), 1.0)
        if k == 0 and dist > 0.1 * scale:
            flags.append("separation saturated within one interval; "
                         "shorten renorm_interval or the horizon")
        total += math.log(dist / perturbation_size)
        times[k] = t1 - transient
        log_growth[k] = total
        v = u + (v - u) * (perturbation_size / dist)
        t0 = t1

    if n_steps >= 3:
        coeffs, diag = np.polyfit(times, log_growth, 1, cov=True)
        slope = float(coeffs[0])
        fit_error = float(math.sqrt(max(diag[0, 0], 0.0)))
    else:
        slope = float(log_growth[-1] / times[-1])
        fit_error = float("nan")
        flags.append("too few intervals for a fit-error estimate")
    return LyapunovEstimate(slope, fit_error, log_growth, times, flags)


def psd_estimate(traj: TrajectoryData, component: int = 0
                 ) -> Tuple[np.ndarray, np.ndarray]:
    """One-sided periodogram of a component, mean removed."""
    dt = traj.uniform_dt()
    x = traj.component(component)
    x = x - np.mean(x)
    freq, power = periodogram(x, fs=1.0 / dt)
    return freq, power


def double_well_field(amplitude: float = 0.5) -> ReducedField:
    """Forced double-well (Duffing) field, chaotic at the default amplitude.

    x' = v, v' = x - x^3 - 0.3 v + amplitude cos(1.2 t).
    """
    g = MultiSeries(2, 2, 3, {
        (0, 1): [1.0, -0.3],
        (1, 0): [0.0, 1.0],
        (3, 0): [0.0, -1.0],
    })
    forcing = Forcing(amplitude, 1.2, np.array([0.0, 1.0]))
    return ReducedField.from_series(g, forcing=forcing)
