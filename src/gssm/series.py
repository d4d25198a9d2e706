"""Truncated multivariate power series with vector coefficients.

Series are stored sparsely as a dict mapping exponent multi-indices to
complex coefficient vectors.  Absent indices mean zero.  All operations
return new objects; nothing mutates a series after construction.  The
canonical term ordering everywhere (iteration, serialization) is graded
lexicographic: by total degree first, then lexicographic on the index
tuple.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from .errors import ValidationError

MultiIndex = Tuple[int, ...]

# points per block of the evaluation kernel: bounds the block's monomial
# matrix at _BLOCK_ROWS x (number of terms), whatever the batch size
_BLOCK_ROWS = 512


def grlex_key(idx: MultiIndex) -> tuple:
    return (sum(idx), idx)


def indices_of_order(dim: int, k: int) -> List[MultiIndex]:
    """All exponent tuples of length dim with total degree exactly k, grlex order."""
    if dim == 1:
        return [(k,)]
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for first in range(remaining + 1):
            rec(prefix + (first,), remaining - first, slots - 1)

    rec((), k, dim)
    return sorted(out)


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
        Multi-index tuple -> coefficient vector of shape (dim_out,).
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
            idx = tuple(int(i) for i in idx)
            if len(idx) != self.dim_in or any(i < 0 for i in idx):
                raise ValueError(f"bad multi-index {idx} for dim_in={self.dim_in}")
            if sum(idx) > self.order:
                raise ValueError(f"index {idx} exceeds truncation order {self.order}")
            v = np.atleast_1d(np.asarray(vec, dtype=complex))
            if v.shape != (self.dim_out,):
                raise ValueError(f"coefficient at {idx} has shape {v.shape}, "
                                 f"expected ({self.dim_out},)")
            if np.any(v != 0):
                clean[idx] = v
        self.coeffs = clean

    # ---- constructors -------------------------------------------------

    @classmethod
    def zero(cls, dim_in: int, dim_out: int, order: int) -> "MultiSeries":
        return cls(dim_in, dim_out, order, {})

    @classmethod
    def constant(cls, vec, dim_in: int, order: int) -> "MultiSeries":
        v = np.atleast_1d(np.asarray(vec, dtype=complex))
        return cls(dim_in, len(v), order, {(0,) * dim_in: v})

    @classmethod
    def variable(cls, i: int, dim_in: int, order: int) -> "MultiSeries":
        """The scalar coordinate function z_i."""
        idx = tuple(1 if j == i else 0 for j in range(dim_in))
        return cls(dim_in, 1, order, {idx: np.array([1.0 + 0j])})

    @classmethod
    def identity_map(cls, dim: int, order: int) -> "MultiSeries":
        """The identity map z -> z as a vector series."""
        coeffs = {}
        for i in range(dim):
            idx = tuple(1 if j == i else 0 for j in range(dim))
            v = np.zeros(dim, dtype=complex)
            v[i] = 1.0
            coeffs[idx] = v
        return cls(dim, dim, order, coeffs)

    @classmethod
    def from_univariate(cls, coeffs: Sequence[complex], order: int | None = None) -> "MultiSeries":
        """Scalar univariate series from a flat coefficient list (c_0, c_1, ...)."""
        coeffs = list(coeffs)
        if order is None:
            order = len(coeffs) - 1
        d = {(k,): np.array([complex(c)]) for k, c in enumerate(coeffs) if k <= order}
        return cls(1, 1, order, d)

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

    def component(self, j: int) -> "MultiSeries":
        d = {idx: np.array([v[j]]) for idx, v in self.coeffs.items() if v[j] != 0}
        return MultiSeries(self.dim_in, 1, self.order, d)

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

    def max_abs_imag(self) -> float:
        if not self.coeffs:
            return 0.0
        return max(float(np.max(np.abs(v.imag))) for v in self.coeffs.values())

    def coeff_scale(self, radius: float) -> float:
        """Sum of |coefficient|*radius^|k|; crude magnitude of the series at a radius."""
        return float(sum(np.max(np.abs(v)) * radius ** sum(k)
                         for k, v in self.coeffs.items()))

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

    def conjugate_coeffs(self) -> "MultiSeries":
        return MultiSeries(self.dim_in, self.dim_out, self.order,
                           {k: np.conj(v) for k, v in self.coeffs.items()})

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

        The dense form (gather index of the exponent matrix E, K x dim_in;
        coefficient matrix C, K x dim_out) is built on the first evaluation
        and cached; a series does not change after construction.
        """
        dense = self.__dict__.get("_dense")
        if dense is None:
            exps = np.array(list(self.coeffs), dtype=np.intp)
            coeffs = np.array(list(self.coeffs.values()), dtype=complex)
            dense = self._dense = (
                *_gather_index(exps.reshape(-1, self.dim_in)),
                coeffs.reshape(-1, self.dim_out))
        gather, top, c = dense
        if len(pts) <= _BLOCK_ROWS:
            return _monomials(pts, gather, top) @ c
        out = np.empty((len(pts), self.dim_out), dtype=complex)
        for start in range(0, len(pts), _BLOCK_ROWS):
            block = slice(start, start + _BLOCK_ROWS)
            out[block] = _monomials(pts[block], gather, top) @ c
        return out

    # ---- calculus ------------------------------------------------------

    def derivative(self, i: int) -> "MultiSeries":
        """Partial derivative with respect to variable i."""
        if not 0 <= i < self.dim_in:
            raise ValueError("variable index out of range")
        coeffs = {}
        for idx, v in self.coeffs.items():
            if idx[i] == 0:
                continue
            lower = tuple(e - 1 if j == i else e for j, e in enumerate(idx))
            coeffs[lower] = coeffs.get(lower, 0) + idx[i] * v
        return MultiSeries(self.dim_in, self.dim_out, max(self.order - 1, 0), coeffs)

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
    coeffs: Dict[MultiIndex, np.ndarray] = {}
    for ka, va in a.coeffs.items():
        da = sum(ka)
        if da > order:
            continue
        for kb, vb in b.coeffs.items():
            if da + sum(kb) > order:
                continue
            idx = tuple(x + y for x, y in zip(ka, kb))
            prev = coeffs.get(idx)
            term = va[0] * vb
            coeffs[idx] = term if prev is None else prev + term
    return MultiSeries(a.dim_in, b.dim_out, order, coeffs)


def power_truncated(s: MultiSeries, e: int, order: int) -> MultiSeries:
    """Integer power of a scalar series, truncated."""
    if s.dim_out != 1:
        raise ValueError("power_truncated needs a scalar series")
    result = MultiSeries.constant([1.0], s.dim_in, order)
    base = s.truncated(min(s.order, order))
    k = e
    while k:
        if k & 1:
            result = multiply_truncated(result, base, order)
        k >>= 1
        if k:
            base = multiply_truncated(base, base, order)
    return result


def compose_truncated(outer: MultiSeries, inner: MultiSeries, order: int) -> MultiSeries:
    """Composition outer(inner(z)) truncated at total degree `order`.

    inner must be a vector series with dim_out == outer.dim_in and no
    constant term.
    """
    if inner.dim_out != outer.dim_in:
        raise ValueError("inner.dim_out must equal outer.dim_in")
    zero_idx = (0,) * inner.dim_in
    if zero_idx in inner.coeffs:
        raise ValueError("inner series must have zero constant term")
    comps = [inner.component(j) for j in range(inner.dim_out)]
    # cache powers of each inner component, built on demand
    powers: List[List[MultiSeries]] = [[MultiSeries.constant([1.0], inner.dim_in, order), c.truncated(min(c.order, order))]
                                       for c in comps]

    def comp_power(j: int, e: int) -> MultiSeries:
        cache = powers[j]
        while len(cache) <= e:
            cache.append(multiply_truncated(cache[-1], cache[1], order))
        return cache[e]

    out = MultiSeries.zero(inner.dim_in, outer.dim_out, order)
    for idx, v in outer.coeffs.items():
        # inner has no constant term, so total degree of the product is at
        # least sum(idx); skip terms that cannot contribute
        if sum(idx) > order:
            continue
        prod = None
        for j, e in enumerate(idx):
            if e == 0:
                continue
            pj = comp_power(j, e)
            prod = pj if prod is None else multiply_truncated(prod, pj, order)
        if prod is None:
            prod = MultiSeries.constant([1.0], inner.dim_in, order)
        out = out + MultiSeries(inner.dim_in, outer.dim_out, order,
                                {k: c[0] * v for k, c in prod.coeffs.items()})
    return out


def reciprocal_truncated(s: MultiSeries, order: int) -> MultiSeries:
    """1/s for a scalar series with nonzero constant term, truncated."""
    if s.dim_out != 1:
        raise ValueError("reciprocal_truncated needs a scalar series")
    zero_idx = (0,) * s.dim_in
    c0 = s.coeffs.get(zero_idx, np.zeros(1, dtype=complex))[0]
    if c0 == 0:
        raise ValueError("constant term must be nonzero")
    inv0 = 1.0 / c0
    out: Dict[MultiIndex, complex] = {zero_idx: inv0}
    rest = {k: v[0] for k, v in s.coeffs.items() if k != zero_idx and sum(k) <= order}
    for idx in indices_up_to_order(s.dim_in, order)[1:]:
        acc = 0.0 + 0j
        for ks, cs in rest.items():
            diff = tuple(a - b for a, b in zip(idx, ks))
            if any(x < 0 for x in diff):
                continue
            prev = out.get(diff)
            if prev is not None:
                acc += cs * prev
        if acc != 0:
            out[idx] = -inv0 * acc
    return MultiSeries(s.dim_in, 1, order,
                       {k: np.array([v]) for k, v in out.items() if v != 0})


def invert_map(f: MultiSeries, order: int) -> MultiSeries:
    """Compositional inverse of a map with invertible linear part and f(0)=0.

    Returns g with f(g(z)) = z up to the truncation order.
    """
    if f.dim_in != f.dim_out:
        raise ValueError("invert_map needs a square map")
    d = f.dim_in
    zero_idx = (0,) * d
    if zero_idx in f.coeffs:
        raise ValueError("map must fix the origin")
    lin = np.zeros((d, d), dtype=complex)
    for i in range(d):
        idx = tuple(1 if j == i else 0 for j in range(d))
        lin[:, i] = f.get(idx)
    if np.linalg.cond(lin) > 1e12:
        raise ValueError("linear part is not invertible")
    lin_inv = np.linalg.inv(lin)
    ident = MultiSeries.identity_map(d, order)
    tail = f.drop_below(2)
    g = ident.linear_transform(lin_inv)
    for k in range(2, order + 1):
        correction = compose_truncated(tail, g, k)
        g = (ident.truncated(k) - correction).linear_transform(lin_inv)
    return g.truncated(order)


# ---- text serialization ---------------------------------------------------


def format_float(x: float) -> str:
    return f"{x:.17g}"


def coeff_lines(s: MultiSeries) -> List[str]:
    """One line per index: k1 .. kd followed by re im pairs per component."""
    lines = []
    for idx, v in s.terms():
        parts = [str(i) for i in idx]
        for c in v:
            parts.append(format_float(float(c.real)))
            parts.append(format_float(float(c.imag)))
        lines.append(" ".join(parts))
    return lines


def content_lines(text: str) -> List[str]:
    """Stripped lines of a text format without blank and '#' comment lines."""
    return [ln.strip() for ln in text.splitlines()
            if ln.strip() and not ln.strip().startswith("#")]


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


def parse_coeff_lines(lines: Iterable[str], dim_in: int, dim_out: int,
                      order: int) -> MultiSeries:
    """Coefficients from content lines (see content_lines)."""
    coeffs: Dict[MultiIndex, np.ndarray] = {}
    for ln in lines:
        toks = ln.split()
        if len(toks) != dim_in + 2 * dim_out:
            raise ValueError(f"bad coefficient line (expected {dim_in} indices "
                             f"and {dim_out} re/im pairs): {ln!r}")
        idx = tuple(int(t) for t in toks[:dim_in])
        vals = [float(t) for t in toks[dim_in:]]
        coeffs[idx] = np.array([complex(vals[2 * j], vals[2 * j + 1])
                                for j in range(dim_out)])
    return MultiSeries(dim_in, dim_out, order, coeffs)


def series_to_text(s: MultiSeries) -> str:
    head = f"series {s.dim_in} {s.dim_out} {s.order}"
    return "\n".join([head] + coeff_lines(s)) + "\n"


@text_reader("series")
def series_from_text(lines: List[str]) -> MultiSeries:
    if not lines:
        raise ValidationError("empty series text")
    head = lines[0].split()
    if head[0] != "series" or len(head) != 4:
        raise ValidationError(f"bad series header: {lines[0]!r}")
    dim_in, dim_out, order = (int(t) for t in head[1:])
    return parse_coeff_lines(lines[1:], dim_in, dim_out, order)
