"""Univariate and homogeneous multivariate Pade approximants.

The univariate constructor uses the SVD-based robust solve: the denominator
is the smallest right singular vector of the Toeplitz coefficient matrix,
with degrees reduced whenever that matrix is numerically rank-deficient, so
that noise and degenerate (block-structured) inputs shrink the approximant
instead of planting spurious poles.  The multivariate constructor matches
coefficients on total-order lattices, denominator solved in least squares
with b0 = 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np
from scipy.linalg import toeplitz

from .errors import PoleProximityError, ValidationError
from .series import (MultiSeries, coeff_lines, grlex_table, multiply_truncated,
                     parse_coeff_lines, read_header, read_sections,
                     reciprocal_truncated, text_reader)

DEFAULT_SVD_TOL = 1e-13
DEFAULT_POLE_FLOOR = 1e-12


@dataclass
class RationalMap:
    """Rational function numerator/denominator with b0 = 1.

    numerator: MultiSeries (dim_in -> dim_out), order <= N
    denominator: scalar MultiSeries, order <= M, constant term exactly 1
    type_tag: requested or degraded (N, M)
    flags: construction diagnostics (degree reductions, least-squares rank)
    """

    numerator: MultiSeries
    denominator: MultiSeries
    type_tag: Tuple[int, int]
    flags: List[str] = field(default_factory=list)

    def __post_init__(self):
        if self.numerator.dim_in != self.denominator.dim_in:
            raise ValidationError("numerator/denominator dim_in mismatch")
        if self.denominator.dim_out != 1:
            raise ValidationError("denominator must be scalar-valued")
        zero = (0,) * self.denominator.dim_in
        b0 = self.denominator.get(zero)[0]
        if b0 != 1.0:
            raise ValidationError(f"denominator constant term must be 1, got {b0}")

    @classmethod
    def polynomial(cls, numerator: MultiSeries, flags=()) -> "RationalMap":
        """The [order/0] map numerator / 1."""
        return cls(numerator, MultiSeries.constant([1.0], numerator.dim_in, 0),
                   (numerator.order, 0), list(flags))

    @property
    def dim_in(self) -> int:
        return self.numerator.dim_in

    @property
    def dim_out(self) -> int:
        return self.numerator.dim_out


def rational_parts(r: RationalMap, points) -> Tuple[np.ndarray, np.ndarray]:
    """Numerator (K, dim_out) and denominator (K,) values at K points.

    The one rational evaluator: numerator and denominator components are
    stacked into one series and evaluated in a single kernel pass.  Callers
    apply their own pole policy.  The stacked series is cached in the
    numerator's and the denominator's forms, which a write to either coeffs
    dict drops, and is used only while both still hold it.
    """
    num = getattr(r.numerator.coeffs, "__dict__", {})
    den = getattr(r.denominator.coeffs, "__dict__", {})
    stacked = num.get("_stacked_numerator")
    if stacked is None or den.get("_stacked_denominator") is not stacked:
        stacked = num["_stacked_numerator"] = den["_stacked_denominator"] = \
            MultiSeries.from_components(
                [r.numerator.component(j) for j in range(r.dim_out)]
                + [r.denominator])
    vals = stacked.evaluate_many(points)
    return vals[:, :-1], vals[:, -1]


def evaluate_rational_many(r: RationalMap, points) -> np.ndarray:
    pts = np.asarray(points, dtype=complex)
    num, den = rational_parts(r, pts)
    bad = np.abs(den) < DEFAULT_POLE_FLOOR
    if np.any(bad):
        i = int(np.argmax(bad))
        raise PoleProximityError(pts[i], den[i], DEFAULT_POLE_FLOOR)
    return num / den[:, None]


def taylor_of_rational(r: RationalMap, order: int) -> MultiSeries:
    """Series of the quotient: numerator times truncated reciprocal of denominator."""
    recip = reciprocal_truncated(r.denominator.truncated(min(r.denominator.order, order)),
                                 order)
    return multiply_truncated(recip, r.numerator.truncated(min(r.numerator.order, order)),
                              order)


# ---- univariate -----------------------------------------------------------


def pade_univariate(coeffs, N: int, M: int) -> RationalMap:
    """[N/M] approximant of a univariate scalar series.

    coeffs may be a MultiSeries (d=1, scalar) or a flat coefficient sequence
    (c_0, ..., c_K) with K >= N+M.  Degrees are reduced when the Toeplitz
    system is rank-deficient at DEFAULT_SVD_TOL (relative to the largest
    singular value), or when the denominator solution has a vanishing
    constant term.
    """
    if isinstance(coeffs, MultiSeries):
        if coeffs.dim_in != 1 or coeffs.dim_out != 1:
            raise ValidationError("pade_univariate needs a scalar univariate series")
        if coeffs.order < N + M:
            raise ValidationError(f"series order {coeffs.order} < N+M = {N + M}")
        c = coeffs.univariate_coeffs()
    else:
        c = np.asarray(list(coeffs), dtype=complex)
        if len(c) < N + M + 1:
            raise ValidationError(f"need {N + M + 1} coefficients, got {len(c)}")
    if N < 0 or M < 0:
        raise ValidationError("orders must be nonnegative")

    flags: List[str] = []
    c = c[:N + M + 1] if len(c) > N + M + 1 else c
    # Equilibrate graded coefficient growth (|c_k| ~ 1/r^k with small r would
    # otherwise swamp every relative tolerance below).  The substitution
    # x -> x/alpha with alpha a power of two is exact in floating point; the
    # result is mapped back at the end.
    alpha = 1.0
    ks = np.nonzero(np.abs(c))[0]
    ks = ks[ks > 0]
    if len(ks):
        growth = max(float(np.abs(c[k])) ** (1.0 / k) for k in ks)
        if growth > 0.0 and np.isfinite(growth):
            alpha = 2.0 ** float(np.clip(round(np.log2(growth)), -256, 256))
    if alpha != 1.0:
        c = c * alpha ** -np.arange(len(c), dtype=float)
    scale = float(np.max(np.abs(c)))
    if scale == 0.0:
        return RationalMap.polynomial(MultiSeries.zero(1, 1, 0),
                                      ["all-zero input"])
    tol_abs = DEFAULT_SVD_TOL * scale

    # strip leading (numerically) zero coefficients; the factor z^shift goes
    # to the numerator afterwards
    shift = 0
    while shift <= N and abs(c[shift]) <= tol_abs:
        shift += 1
    if shift > N:
        return RationalMap.polynomial(
            MultiSeries.zero(1, 1, 0),
            ["input vanishes through requested numerator order"])
    if shift:
        flags.append(f"leading zeros: numerator carries z^{shift}")
    cs = c[shift:]
    n = N - shift
    m = M

    while True:
        if m == 0:
            b = np.array([1.0 + 0j])
            break
        # z[i, j] = cs[n + 1 + i - j], zero for negative indices
        first_row = np.zeros(m + 1, dtype=complex)
        first_row[:min(m + 1, n + 2)] = cs[n + 1::-1][:m + 1]
        z = toeplitz(cs[n + 1:n + 1 + m], first_row)
        u, s, vh = np.linalg.svd(z)
        smax = s[0] if len(s) else 0.0
        rank = int(np.sum(s > DEFAULT_SVD_TOL * smax)) if smax > 0 else 0
        if rank < m:
            n_new = max(n - (m - rank), 0)
            flags.append(f"rank deficiency: [{n + shift}/{m}] -> [{n_new + shift}/{rank}]")
            n, m = n_new, rank
            continue
        b = np.conj(vh[-1])
        if abs(b[0]) < 1e-8 * np.max(np.abs(b)):
            flags.append(f"vanishing b0 at M={m}, reducing denominator order")
            m -= 1
            continue
        b = b / b[0]
        b[0] = 1.0  # complex division is not exact; the normalization is
        break

    a = np.convolve(cs[:n + 1], b)[:n + 1]
    # trim numerically-zero trailing coefficients so type_tag reflects the
    # actual degrees
    a_sig = np.abs(a) > tol_abs
    n_eff = int(np.max(np.nonzero(a_sig))) if np.any(a_sig) else 0
    a = a[:n_eff + 1]
    b_sig = np.abs(b) > DEFAULT_SVD_TOL * np.max(np.abs(b))
    m_eff = int(np.max(np.nonzero(b_sig)))
    b = b[:m_eff + 1]
    if n_eff < n or m_eff < m:
        flags.append(f"trailing trim: [{n + shift}/{m}] -> [{n_eff + shift}/{m_eff}]")

    if alpha != 1.0:
        a = a * alpha ** (shift + np.arange(len(a), dtype=float))
        b = b * alpha ** np.arange(len(b), dtype=float)
    num = MultiSeries(1, 1, n_eff + shift,
                      {(k + shift,): np.array([a[k]]) for k in range(n_eff + 1)
                       if a[k] != 0})
    den = MultiSeries.from_univariate(b)
    return RationalMap(num, den, (n_eff + shift, m_eff), flags)


# ---- multivariate ---------------------------------------------------------


def pade_multivariate(coeffs: MultiSeries, N: int, M: int):
    """Homogeneous [N/M] approximant of a multivariate series.

    Denominator coefficients minimize the homogeneous matching conditions
    over total orders N+1..N+M in least squares with b0 = 1; numerator
    coefficients then come from the convolution conditions on total orders
    0..N.  Each component gets its own denominator: the result is a list
    of scalar RationalMaps, one per component.
    """
    if coeffs.order < N + M:
        raise ValidationError(f"series order {coeffs.order} < N+M = {N + M}")
    d, l = coeffs.dim_in, coeffs.dim_out
    if d < 2 or M == 0:
        maps = [pade_univariate(c, N, M) if d < 2 else
                RationalMap.polynomial(c.truncated(N))
                for c in map(coeffs.component, range(l))]
        return maps

    # z[j, k, kb] is component j's coefficient at monomial k / kb, zero
    # where kb does not divide k: the table's product pairs k = left * kb.
    # A zero enters as +0, as in a scalar series, which stores no zeros:
    # lstsq's Householder steps follow the sign of a zero.
    table = grlex_table(d, N + M)
    n_num, n_den, n_all = table.size(N), table.size(M), table.size(N + M)
    pairs = slice(0, table.starts[n_all])
    keep = table.right[pairs] < n_den
    c = coeffs.grlex(N + M)
    z = np.zeros((l, n_all, n_den), dtype=complex)
    z[:, table.out[pairs][keep], table.right[pairs][keep]] = \
        np.where(c == 0, 0, c)[table.left[pairs][keep]].T
    maps = []
    for z_j in z:
        # rows: the homogeneous indices of order N+1..N+M; columns: the
        # denominator coefficients in grlex order, b0 = 1 moved to the right
        a_mat, rhs = z_j[n_num:, 1:], -z_j[n_num:, 0]
        flags: List[str] = []
        if not z_j[n_num:].any():
            sol = np.zeros(n_den - 1, dtype=complex)
            flags.append("homogeneous system vanishes; denominator defaults to 1")
        else:
            sol, _, rank, _ = np.linalg.lstsq(a_mat, rhs, rcond=DEFAULT_SVD_TOL)
            if rank < a_mat.shape[1]:
                flags.append(f"underdetermined denominator system (rank {rank} "
                             f"of {a_mat.shape[1]}): smallest-norm solution chosen")
        b = np.concatenate([[1.0 + 0j], sol])
        # numerator via convolution over total orders 0..N
        num = np.einsum("kcj,c->kj", z_j[:n_num, :, None], b)
        maps.append(RationalMap(MultiSeries.from_grlex(num, d, N),
                                MultiSeries.from_grlex(b[:, None], d, M),
                                (N, M), flags))
    return maps


# ---- serialization --------------------------------------------------------


def rational_to_text(r: RationalMap) -> str:
    lines = [f"pade {r.dim_in} {r.dim_out} {r.type_tag[0]} {r.type_tag[1]}"]
    lines.append("NUMERATOR")
    lines.extend(coeff_lines(r.numerator))
    lines.append("DENOMINATOR")
    lines.extend(coeff_lines(r.denominator))
    return "\n".join(lines) + "\n"


def rationals_to_text(rs: Sequence[RationalMap]) -> str:
    return "".join(rational_to_text(r) for r in rs)


@text_reader("rational")
def rationals_from_text(lines: List[str]) -> List[RationalMap]:
    # one block per pade header line; the first line must be one
    starts = [0] + [k for k in range(1, len(lines))
                    if lines[k].split()[0] == "pade"]
    out: List[RationalMap] = []
    for lo, hi in zip(starts, starts[1:] + [len(lines)]):
        d, l, n, m = (int(t) for t in read_header(lines[lo:hi], "pade", 4))
        blocks = read_sections(lines[lo + 1:hi], ("NUMERATOR", "DENOMINATOR"))
        out.append(RationalMap(parse_coeff_lines(blocks["NUMERATOR"], d, l, n),
                               parse_coeff_lines(blocks["DENOMINATOR"], d, 1, m),
                               (n, m)))
    return out


def rational_from_text(text: str) -> RationalMap:
    rs = rationals_from_text(text)
    if len(rs) != 1:
        raise ValidationError(f"expected one rational block, found {len(rs)}")
    return rs[0]
