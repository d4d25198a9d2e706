"""Truncated multivariate power series with vector coefficients.

A series holds its nonzero terms as a dict from exponent multi-indices to
complex coefficient vectors (`MultiSeries.coeffs`; absent means zero).  The
algebra runs on dense grlex arrays: the coefficient matrix over every
monomial through the truncation order, in the rows of one cached
`GrlexTable` per number of variables (lower orders are its prefixes).  A
product is a gather over the table's index pairs plus a segment sum, and a
solver that fixes a series degree by degree extends products and
compositions one degree block at a time (the power-series recurrences of
Haro et al., The Parameterization Method for Invariant Manifolds, 2016).
A series caches its grlex array and, for evaluation, its nonzero terms on
its `coeffs` dict, which drops them when an entry is added, removed or
replaced.  The algebra returns new series.  Canonical term ordering
(iteration, serialization) is graded lexicographic: total degree first,
then lexicographic on the index tuple.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from .errors import ValidationError

MultiIndex = Tuple[int, ...]

# points per block of the evaluation kernel: at most _BLOCK_ROWS, and fewer
# for series with many terms, so that the block's monomial matrix (points x
# terms) stays within _BLOCK_ENTRIES and in cache, whatever the batch size
_BLOCK_ROWS = 512
_BLOCK_ENTRIES = 1 << 15


def grlex_key(idx: MultiIndex) -> tuple:
    return (sum(idx), idx)


def indices_of_order(dim: int, k: int) -> List[MultiIndex]:
    """All exponent tuples of length dim with total degree exactly k, grlex order."""
    if dim == 1:
        return [(k,)]
    return [(first,) + rest for first in range(k + 1)
            for rest in indices_of_order(dim - 1, k - first)]


def indices_up_to_order(dim: int, order: int) -> List[MultiIndex]:
    out = []
    for k in range(order + 1):
        out.extend(indices_of_order(dim, k))
    return out


def _gather_index(exponents: np.ndarray) -> Tuple[np.ndarray, int]:
    """Columns of the flattened powers table per (term, variable), and the
    largest exponent."""
    top = int(exponents.max(initial=0))
    return np.arange(exponents.shape[1]) * (top + 1) + exponents, top


def _monomials(points: np.ndarray, gather: np.ndarray, top: int) -> np.ndarray:
    """(points, terms) matrix of monomials from a powers table.

    The table holds x_j^0 .. x_j^top for every point and variable, built by
    repeated multiplication; each monomial is the product of its gathered
    per-variable powers.  The result keeps the dtype of points.
    """
    n, d = points.shape
    table = np.empty((n, d, top + 1), dtype=points.dtype)
    table[:, :, 0] = 1
    table[:, :, 1:] = points[:, :, None]
    np.multiply.accumulate(table, axis=2, out=table)
    table = table.reshape(n, d * (top + 1))
    mono = table[:, gather[:, 0]]
    for j in range(1, d):
        mono *= table[:, gather[:, j]]
    return mono


def monomial_matrix(points, exponents: Sequence[MultiIndex]) -> np.ndarray:
    """Design matrix: monomial exponents[k] at points[i] in row i, column k."""
    pts = np.asarray(points)
    exps = np.array(exponents, dtype=np.intp).reshape(len(exponents),
                                                     pts.shape[1])
    return _monomials(pts, *_gather_index(exps))


# largest number of (factor, factor) index pairs of a grlex table; the
# dense algebra is meant for the few variables of a manifold's chart
_MAX_PAIRS = 1 << 20


class GrlexTable:
    """Every monomial in `dim` variables through total degree `order`.

    Rows are in grlex order, so the monomials of degree <= k are the first
    size(k) rows for every k <= order and one table serves every
    truncation.  A grlex array of a series is its (rows, dim_out)
    coefficient matrix over these rows.  The product pairs (left, right,
    out), with monomial left times monomial right equal to monomial out,
    are sorted by out; the pairs of rows lo:hi are starts[lo]:starts[hi].
    """

    def __init__(self, dim: int, order: int):
        n_pairs = math.comb(order + 2 * dim, 2 * dim)
        if n_pairs > _MAX_PAIRS:
            raise ValueError(f"{dim} variables through order {order} are too "
                             f"many for the dense algebra ({n_pairs} pairs)")
        self.dim, self.order = dim, order
        self.keys = indices_up_to_order(dim, order)
        self.row = {k: i for i, k in enumerate(self.keys)}
        self.exps = np.array(self.keys, dtype=np.int64).reshape(-1, dim)
        self._sizes = [math.comb(k + dim, dim) for k in range(order + 1)]
        # row of exponent vectors e of degree k <= order: the size(k - 1)
        # monomials of lower degree, plus per position j the
        # C(r + m, m) - C(r - e_j + m, m) of degree k that agree before j and
        # are smaller at j (r: degree left from j on, m = dim - 1 - j)
        below_degree = np.array([0] + self._sizes)
        binom = np.array([[math.comb(r + m, m) for r in range(order + 1)]
                          for m in range(dim)], dtype=np.int64)

        def rank(e):
            rest = e.sum(axis=1)
            row = below_degree[rest]
            for j in range(dim - 1):
                m = dim - 1 - j
                row = row + binom[m, rest] - binom[m, rest - e[:, j]]
                rest = rest - e[:, j]
            return row

        # pairs row by row: the rows of degree a times the rows of degree
        # <= order - a, which are a prefix
        blocks = [(np.arange(self.size(a - 1), self.size(a)),
                   self.size(order - a)) for a in range(order + 1)]
        left = np.concatenate([np.repeat(rows, n) for rows, n in blocks])
        right = np.concatenate([np.tile(np.arange(n), len(rows))
                                for rows, n in blocks])
        out = rank(self.exps[left] + self.exps[right])
        by_out = np.argsort(out, kind="stable")
        self.left, self.right, self.out = left[by_out], right[by_out], out[by_out]
        self.starts = np.searchsorted(self.out, np.arange(len(self.keys) + 1))
        # raised[i, t]: row of monomial t times z_i (len(keys) past the top)
        self.raised = np.full((dim, len(self.keys)), len(self.keys))
        below = self.exps[:self.size(order - 1)]
        for i in range(dim):
            self.raised[i, :len(below)] = rank(below + np.eye(dim, dtype=np.int64)[i])

    def size(self, k: int) -> int:
        """Number of monomials of degree <= k."""
        return self._sizes[k] if k >= 0 else 0

    def derivative(self, arr: np.ndarray, i: int, hi: int) -> np.ndarray:
        """Rows :hi of d/dz_i of a grlex array; rows past its end are zero."""
        padded = np.concatenate([arr, np.zeros((1,) + arr.shape[1:])])
        up = padded[np.minimum(self.raised[i, :hi], len(arr))]
        return (self.exps[:hi, i] + 1).reshape((-1,) + (1,) * (arr.ndim - 1)) * up


_TABLES: Dict[int, GrlexTable] = {}


def grlex_table(dim: int, order: int) -> GrlexTable:
    """The cached table of `dim` variables, rebuilt only for a higher order."""
    table = _TABLES.get(dim)
    if table is None or table.order < order:
        table = _TABLES[dim] = GrlexTable(dim, order)
    return table


def product_rows(a: np.ndarray, b: np.ndarray, table: GrlexTable,
                 lo: int, hi: int, mul=np.multiply) -> np.ndarray:
    """Rows lo:hi (whole degree blocks) of the product of grlex arrays a and
    b, each holding at least hi rows: one gather over the index pairs and a
    segment sum per output row.  Coefficients multiply by `mul`: a scalar
    factor is (rows, 1) against a (rows, l) vector factor, or both are 1-D;
    np.matmul multiplies matrix-valued series."""
    first, last = table.starts[lo], table.starts[hi]
    terms = mul(a[table.left[first:last]], b[table.right[first:last]])
    return np.add.reduceat(terms, table.starts[lo:hi] - first, axis=0)


class _Terms(dict):
    """The coeffs dict of a series.  Its attributes hold the series' cached
    grlex and evaluation forms, and every write to the dict drops them."""


def _dropping_forms(write):
    @functools.wraps(write)
    def method(self, *args, **kwargs):
        self.__dict__.clear()
        return write(self, *args, **kwargs)
    return method


for _name in ("__setitem__", "__delitem__", "__ior__", "clear", "pop",
              "popitem", "setdefault", "update"):
    setattr(_Terms, _name, _dropping_forms(getattr(dict, _name)))


@dataclass
class MultiSeries:
    """Polynomial map C^dim_in -> C^dim_out truncated at total degree `order`.

    Parameters
    ----------
    dim_in, dim_out : int
        Number of input variables and output components.
    order : int
        Truncation order; indices with total degree above it are rejected.
    coeffs : dict
        Multi-index tuple -> coefficient vector of shape (dim_out,).  An
        entry may be added, removed or replaced after construction (the
        cached forms follow); a coefficient vector must not be written to
        in place.
    """

    dim_in: int
    dim_out: int
    order: int
    coeffs: Dict[MultiIndex, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        if self.dim_in < 1 or self.dim_out < 1 or self.order < 0:
            raise ValueError("dim_in, dim_out must be >= 1 and order >= 0")
        clean: Dict[MultiIndex, np.ndarray] = {}
        for idx, vec in self.coeffs.items():
            idx = tuple(map(int, idx))
            if len(idx) != self.dim_in or min(idx) < 0:
                raise ValueError(f"bad multi-index {idx} for dim_in={self.dim_in}")
            if sum(idx) > self.order:
                raise ValueError(f"index {idx} exceeds truncation order {self.order}")
            v = np.asarray(vec, dtype=complex)
            if v.ndim == 0:
                v = v.reshape(1)
            if v.shape != (self.dim_out,):
                raise ValueError(f"coefficient at {idx} has shape {v.shape}, "
                                 f"expected ({self.dim_out},)")
            if v.any():
                clean[idx] = v
        self.coeffs = _Terms(clean)

    # ---- constructors -------------------------------------------------

    @classmethod
    def zero(cls, dim_in: int, dim_out: int, order: int) -> "MultiSeries":
        return cls(dim_in, dim_out, order, {})

    @classmethod
    def constant(cls, vec, dim_in: int, order: int) -> "MultiSeries":
        v = np.atleast_1d(np.asarray(vec, dtype=complex))
        return cls(dim_in, len(v), order, {(0,) * dim_in: v})

    @classmethod
    def from_univariate(cls, coeffs: Sequence[complex]) -> "MultiSeries":
        """Scalar univariate series from a flat coefficient list (c_0, c_1, ...)."""
        coeffs = list(coeffs)
        return cls(1, 1, len(coeffs) - 1,
                   {(k,): np.array([complex(c)]) for k, c in enumerate(coeffs)})

    @classmethod
    def from_grlex(cls, arr: np.ndarray, dim_in: int, order: int) -> "MultiSeries":
        """Series of a (rows, dim_out) grlex array through `order`; the
        array becomes the series' cached grlex form and must not change."""
        keys = grlex_table(dim_in, order).keys
        rows = np.flatnonzero(arr.any(axis=1)).tolist()
        s = cls(dim_in, arr.shape[1], order, {keys[i]: arr[i] for i in rows})
        s.coeffs.__dict__["_grlex"] = (order, arr)
        return s

    @classmethod
    def from_components(cls, comps: Sequence["MultiSeries"]) -> "MultiSeries":
        """Stack scalar series sharing dim_in into one vector series."""
        if not comps:
            raise ValueError("need at least one component")
        dim_in = comps[0].dim_in
        order = max(c.order for c in comps)
        coeffs: Dict[MultiIndex, np.ndarray] = {}
        for j, c in enumerate(comps):
            if c.dim_in != dim_in or c.dim_out != 1:
                raise ValueError("components must be scalar series in the same variables")
            for idx, v in c.coeffs.items():
                if idx not in coeffs:
                    coeffs[idx] = np.zeros(len(comps), dtype=complex)
                coeffs[idx][j] = v[0]
        return cls(dim_in, len(comps), order, coeffs)

    # ---- access --------------------------------------------------------

    def get(self, idx: MultiIndex) -> np.ndarray:
        return self.coeffs.get(tuple(idx), np.zeros(self.dim_out, dtype=complex))

    def terms(self) -> Iterable[Tuple[MultiIndex, np.ndarray]]:
        for idx in sorted(self.coeffs, key=grlex_key):
            yield idx, self.coeffs[idx]

    def grlex(self, order: int) -> np.ndarray:
        """Coefficients through total degree `order` as a grlex array over
        grlex_table(dim_in, order), zero above the series' own order.

        Built on first use and cached, like the evaluation kernel's form;
        the result may be a view of the cache and must not be written to.
        """
        table = grlex_table(self.dim_in, order)
        top = min(order, self.order)
        forms = getattr(self.coeffs, "__dict__", {})
        built, arr = forms.get("_grlex", (-1, None))
        if built < top:
            arr = np.zeros((table.size(top), self.dim_out), dtype=complex)
            for idx, v in self.coeffs.items():
                if sum(idx) <= top:
                    arr[table.row[idx]] = v
            forms["_grlex"] = (top, arr)
        n = table.size(order)
        return arr[:n] if len(arr) >= n else np.pad(arr, ((0, n - len(arr)), (0, 0)))

    def component(self, j: int) -> "MultiSeries":
        """Scalar series of output j, its terms in this series' order."""
        if not 0 <= j < self.dim_out:
            raise ValueError("component index out of range")
        col = np.array(list(self.coeffs.values()), dtype=complex).reshape(
            -1, self.dim_out)[:, j:j + 1]
        keep = col[:, 0] != 0
        return MultiSeries(self.dim_in, 1, self.order,
                           dict(zip(itertools.compress(self.coeffs, keep.tolist()),
                                    col[keep])))

    def univariate_coeffs(self) -> np.ndarray:
        """Flat (order+1,) coefficient array; scalar univariate series only."""
        if self.dim_in != 1 or self.dim_out != 1:
            raise ValueError("univariate_coeffs needs a scalar univariate series")
        out = np.zeros(self.order + 1, dtype=complex)
        for idx, v in self.coeffs.items():
            out[idx[0]] = v[0]
        return out

    def min_order_present(self) -> int:
        return min((sum(k) for k in self.coeffs), default=0)

    def coeff_scale(self, radii) -> np.ndarray:
        """Sum over terms of max|coefficient| * r^|k| for each radius r of
        the array `radii`, one array step for all of them.

        It bounds every component of the series on the polydisc |z_i| <= r
        before any cancellation: a crude magnitude, not a value.  The sum
        is taken per degree and then against the matrix of radius powers.
        It reads the terms, not the grlex form, so that a sparse series in
        many variables (a system's nonlinearity) needs no grlex table.
        """
        degrees = np.fromiter(map(sum, self.coeffs), dtype=np.intp,
                              count=len(self.coeffs))
        mags = np.abs(np.array(list(self.coeffs.values()), dtype=complex)
                      .reshape(-1, self.dim_out)).max(axis=1)
        per_degree = np.bincount(degrees, weights=mags,
                                 minlength=self.order + 1)
        r = np.asarray(radii, dtype=float)
        return np.power.outer(r, np.arange(self.order + 1)) @ per_degree

    # ---- arithmetic ----------------------------------------------------

    def __add__(self, other: "MultiSeries") -> "MultiSeries":
        if (other.dim_in, other.dim_out) != (self.dim_in, self.dim_out):
            raise ValueError("shape mismatch in series addition")
        order = max(self.order, other.order)
        coeffs = {k: v.copy() for k, v in self.coeffs.items()}
        for k, v in other.coeffs.items():
            coeffs[k] = coeffs.get(k, np.zeros(self.dim_out, dtype=complex)) + v
        return MultiSeries(self.dim_in, self.dim_out, order, coeffs)

    def __sub__(self, other: "MultiSeries") -> "MultiSeries":
        return self + other.scaled(-1.0)

    def scaled(self, c: complex) -> "MultiSeries":
        return MultiSeries(self.dim_in, self.dim_out, self.order,
                           {k: c * v for k, v in self.coeffs.items()})

    def truncated(self, order: int) -> "MultiSeries":
        return MultiSeries(self.dim_in, self.dim_out, order,
                           {k: v for k, v in self.coeffs.items() if sum(k) <= order})

    def drop_below(self, min_total_degree: int) -> "MultiSeries":
        return MultiSeries(self.dim_in, self.dim_out, self.order,
                           {k: v for k, v in self.coeffs.items()
                            if sum(k) >= min_total_degree})

    def linear_transform(self, matrix: np.ndarray) -> "MultiSeries":
        """Apply a constant matrix to every coefficient vector (new dim_out = rows)."""
        m = np.asarray(matrix, dtype=complex)
        if m.shape[1] != self.dim_out:
            raise ValueError("matrix columns must equal dim_out")
        return MultiSeries(self.dim_in, m.shape[0], self.order,
                           {k: m @ v for k, v in self.coeffs.items()})

    # ---- evaluation ----------------------------------------------------

    def evaluate(self, point) -> np.ndarray:
        p = np.asarray(point, dtype=complex)
        if p.shape != (self.dim_in,):
            raise ValueError(f"point must have shape ({self.dim_in},)")
        return self._kernel(p[None])[0]

    def evaluate_many(self, points) -> np.ndarray:
        """Evaluate at K points given as an array of shape (K, dim_in)."""
        pts = np.asarray(points, dtype=complex)
        if pts.ndim != 2 or pts.shape[1] != self.dim_in:
            raise ValueError(f"points must have shape (K, {self.dim_in})")
        return self._kernel(pts)

    def _kernel(self, pts: np.ndarray) -> np.ndarray:
        """Values at complex points (K, dim_in): monomials times C, in blocks.

        The nonzero-terms form (gather index of the exponent matrix E,
        K x dim_in; coefficient matrix C, K x dim_out; rows per block) is
        built on the first evaluation and cached.
        """
        forms = getattr(self.coeffs, "__dict__", {})
        terms = forms.get("_terms")
        if terms is None:
            exps = np.array(list(self.coeffs), dtype=np.intp)
            coeffs = np.array(list(self.coeffs.values()), dtype=complex)
            terms = forms["_terms"] = (
                *_gather_index(exps.reshape(-1, self.dim_in)),
                coeffs.reshape(-1, self.dim_out),
                max(1, min(_BLOCK_ROWS, _BLOCK_ENTRIES // max(len(coeffs), 1))))
        gather, top, c, rows = terms
        if len(pts) <= rows:
            return _monomials(pts, gather, top) @ c
        out = np.empty((len(pts), self.dim_out), dtype=complex)
        for start in range(0, len(pts), rows):
            block = slice(start, start + rows)
            out[block] = _monomials(pts[block], gather, top) @ c
        return out

    # ---- calculus ------------------------------------------------------

    def derivative(self, i: int) -> "MultiSeries":
        """Partial derivative with respect to variable i, term by term, so
        that a sparse series in many variables stays cheap; lowering idx[i]
        keeps the terms in grlex order."""
        if not 0 <= i < self.dim_in:
            raise ValueError("variable index out of range")
        return MultiSeries(self.dim_in, self.dim_out, max(self.order - 1, 0),
                           {idx[:i] + (idx[i] - 1,) + idx[i + 1:]: idx[i] * v
                            for idx, v in self.terms() if idx[i]})

    def jacobian_rows(self) -> List["MultiSeries"]:
        """List of d series, the columns of the Jacobian (derivative per variable)."""
        return [self.derivative(i) for i in range(self.dim_in)]


def multiply_truncated(a: MultiSeries, b: MultiSeries, order: int) -> MultiSeries:
    """Cauchy product truncated at total degree `order`.

    One factor must be scalar (dim_out == 1); it multiplies the other
    componentwise.
    """
    if a.dim_in != b.dim_in:
        raise ValueError("factors must share dim_in")
    if a.dim_out != 1 and b.dim_out != 1:
        raise ValueError("at least one factor must be scalar-valued")
    if a.dim_out != 1:
        a, b = b, a
    table = grlex_table(a.dim_in, order)
    prod = product_rows(a.grlex(order), b.grlex(order), table, 0,
                        table.size(order))
    return MultiSeries.from_grlex(prod, a.dim_in, order)


class Composition:
    """outer(inner) over a grlex table, built one range of rows at a time.

    inner is a (rows, outer.dim_in) grlex array without constant term whose
    rows reach degree `top` at most.  Every monomial inner^e is its grlex
    predecessor times one inner component (one product each), and outer's
    coefficients are applied to the monomials by one matmul.  A monomial
    of degree q can be nonzero only in degrees q .. q * top, so each
    product forms just the rows of that span (the degree-q block alone
    for a linear inner map) and the rows outside it stay exact zeros: the
    result is the same, term for term, as the product over all rows.
    Rows of degree k of a monomial of degree >= 2 use inner rows of degree
    < k only, so a solver that fills inner in degree by degree can extend
    the composition as it goes (`rows` on each new degree block, in
    increasing order).  Such a solver passes top = order: the span must
    not be read off inner while it is still being filled.
    """

    def __init__(self, outer: MultiSeries, inner: np.ndarray,
                 table: GrlexTable, order: int, top: int):
        terms = [(e, v) for e, v in outer.coeffs.items() if sum(e) <= order]
        zero = (0,) * outer.dim_in
        pred = {zero: None}
        for e, _ in terms:
            while e not in pred:
                j = max(i for i, x in enumerate(e) if x)
                pred[e] = (e[:j] + (e[j] - 1,) + e[j + 1:], j)
                e = pred[e][0]
        # predecessors first: grlex order puts every one before its successors
        chain = sorted(pred, key=grlex_key)
        col = {e: c for c, e in enumerate(chain)}
        # each step: column, predecessor's column, inner component and the
        # rows [start, stop) of the monomial's degree span
        self.steps = [(col[e], col[pred[e][0]], pred[e][1],
                       table.size(sum(e) - 1), table.size(min(sum(e) * top, order)))
                      for e in chain[1:]]
        self.inner, self.table = inner, table
        self.mono = np.zeros((len(inner), len(chain)), dtype=complex)
        self.mono[0, 0] = 1.0
        self.cols = [col[e] for e, _ in terms]
        self.coef = np.array([v for _, v in terms],
                             dtype=complex).reshape(-1, outer.dim_out)

    def rows(self, lo: int, hi: int) -> np.ndarray:
        """Rows lo:hi (whole degree blocks) of outer(inner)."""
        mono, inner = self.mono, self.inner
        for c, p, j, start, stop in self.steps:
            if p == 0:
                # all rows: inner may have been filled in since the last call
                mono[:hi, c] = inner[:hi, j]
                continue
            first, last = max(lo, start), min(hi, stop)
            if first < last:
                mono[first:last, c] = product_rows(mono[:, p], inner[:, j],
                                                   self.table, first, last)
        return mono[lo:hi, self.cols] @ self.coef


def compose_truncated(outer: MultiSeries, inner: MultiSeries, order: int) -> MultiSeries:
    """Composition outer(inner(z)) truncated at total degree `order`.

    inner must be a vector series with dim_out == outer.dim_in and no
    constant term.
    """
    if inner.dim_out != outer.dim_in:
        raise ValueError("inner.dim_out must equal outer.dim_in")
    if (0,) * inner.dim_in in inner.coeffs:
        raise ValueError("inner series must have zero constant term")
    table = grlex_table(inner.dim_in, order)
    top = max(map(sum, inner.coeffs), default=0)
    comp = Composition(outer, inner.grlex(order), table, order, top)
    return MultiSeries.from_grlex(comp.rows(0, table.size(order)),
                                  inner.dim_in, order)


def reciprocal_truncated(s: MultiSeries, order: int) -> MultiSeries:
    """1/s for a scalar series with nonzero constant term, truncated."""
    if s.dim_out != 1:
        raise ValueError("reciprocal_truncated needs a scalar series")
    c = s.grlex(order)[:, 0]
    if c[0] == 0:
        raise ValueError("constant term must be nonzero")
    table = grlex_table(s.dim_in, order)
    out = np.zeros(len(c), dtype=complex)
    out[0] = 1.0 / c[0]
    # (s * out) vanishes above degree 0; block k of out is still zero while
    # its own block of the product is formed, so the product is the sum
    # over the other terms
    for k in range(1, order + 1):
        lo, hi = table.size(k - 1), table.size(k)
        out[lo:hi] = -out[0] * product_rows(out, c, table, lo, hi)
    return MultiSeries.from_grlex(out[:, None], s.dim_in, order)


def invert_map(f: MultiSeries, order: int) -> MultiSeries:
    """Compositional inverse of a map with invertible linear part and f(0)=0.

    Returns g with f(g(z)) = z up to the truncation order: with L the
    linear part, g = L^-1 (z - f_{>=2}(g)), solved degree by degree.
    """
    if f.dim_in != f.dim_out:
        raise ValueError("invert_map needs a square map")
    d = f.dim_in
    if (0,) * d in f.coeffs:
        raise ValueError("map must fix the origin")
    units = [tuple(int(i == j) for j in range(d)) for i in range(d)]
    lin = np.stack([f.get(u) for u in units], axis=1)
    if np.linalg.cond(lin) > 1e12:
        raise ValueError("linear part is not invertible")
    lin_inv = np.linalg.inv(lin)
    table = grlex_table(d, order)
    g = np.zeros((table.size(order), d), dtype=complex)
    if order >= 1:
        g[[table.row[u] for u in units]] = lin_inv.T
    tail = Composition(f.drop_below(2), g, table, order, order)
    for k in range(2, order + 1):
        lo, hi = table.size(k - 1), table.size(k)
        g[lo:hi] = -tail.rows(lo, hi) @ lin_inv.T
    return MultiSeries.from_grlex(g, d, order)


# ---- text formats -----------------------------------------------------------
#
# A text artifact is a header line (a kind word and its fields) followed by
# section-name lines, each with its rows under it.  Blank lines and '#'
# comment lines are skipped, complex numbers are re im pairs at 17
# significant digits, and a section appears at most once.


def format_float(x: float) -> str:
    return f"{x:.17g}"


def complex_row(values) -> str:
    """re im pairs of complex values on one line (as Python numbers, which
    format faster than NumPy scalars)."""
    return " ".join([f"{format_float(c.real)} {format_float(c.imag)}"
                     for c in np.asarray(values).tolist()])


def read_complex_row(line: str, count: int) -> np.ndarray:
    """The `count` values of a complex_row line; complex(re, im) per pair
    keeps signed zeros."""
    toks = [float(t) for t in line.split()]
    if len(toks) != 2 * count:
        raise ValidationError(f"expected {count} re/im pairs: {line!r}")
    return np.array([complex(re, im) for re, im in zip(toks[::2], toks[1::2])])


def coeff_lines(s: MultiSeries) -> List[str]:
    """One line per term: k1 .. kd, then the coefficient as a complex_row."""
    return [" ".join([*map(str, idx), complex_row(v)]) for idx, v in s.terms()]


def parse_coeff_lines(lines: Iterable[str], dim_in: int, dim_out: int,
                      order: int) -> MultiSeries:
    """Series of coeff_lines rows."""
    coeffs: Dict[MultiIndex, np.ndarray] = {}
    for ln in lines:
        toks = ln.split(None, dim_in)
        if len(toks) != dim_in + 1:
            raise ValidationError(f"bad coefficient line (expected {dim_in} "
                                  f"indices and {dim_out} re/im pairs): {ln!r}")
        idx = tuple(int(t) for t in toks[:dim_in])
        if idx in coeffs:
            raise ValidationError(f"repeated coefficient index {idx}")
        coeffs[idx] = read_complex_row(toks[dim_in], dim_out)
    return MultiSeries(dim_in, dim_out, order, coeffs)


def content_lines(text: str) -> List[str]:
    """Stripped lines of a text format without blank and '#' comment lines."""
    return [ln.strip() for ln in text.splitlines()
            if ln.strip() and not ln.strip().startswith("#")]


def read_header(lines: Sequence[str], kind: str, count: int) -> List[str]:
    """The `count` fields after the word `kind` on the first content line."""
    first = lines[0] if lines else ""
    head = first.split()
    if head[:1] != [kind] or len(head) != count + 1:
        raise ValidationError(f"bad {kind} header: {first!r}")
    return head[1:]


def read_sections(lines: Sequence[str], names: Sequence[str],
                  optional: Sequence[str] = ()) -> Dict[str, List[str]]:
    """The rows under each section-name line, by name.

    Content before the first name, a name that appears twice and a missing
    section that is not optional raise ValidationError.
    """
    sections: Dict[str, List[str]] = {}
    rows = None
    for ln in lines:
        if ln in names:
            if ln in sections:
                raise ValidationError(f"repeated {ln} section")
            rows = sections[ln] = []
        elif rows is None:
            raise ValidationError(f"content before the first section: {ln!r}")
        else:
            rows.append(ln)
    for name in names:
        if name not in sections and name not in optional:
            raise ValidationError(f"missing {name} section")
    return sections


def text_reader(kind: str):
    """Turn a parser of content_lines into a reader of raw text whose
    malformed inputs (bad numbers, missing lines) raise ValidationError."""
    def decorate(parse):
        @functools.wraps(parse)
        def read(text: str):
            try:
                return parse(content_lines(text))
            except ValidationError:
                raise
            except (ValueError, IndexError) as exc:
                raise ValidationError(f"malformed {kind} text: {exc}") from exc
        return read
    return decorate


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Comma-separated rows under a header line; numbers are written as
    format_float writes them, strings as they are.  An array of rows is
    read as Python floats, which format faster than NumPy scalars."""
    if isinstance(rows, np.ndarray):
        rows = rows.tolist()
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join([v if isinstance(v, str) else format_float(v)
                                for v in row]) + "\n" for row in rows)
