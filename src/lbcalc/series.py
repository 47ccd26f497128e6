"""Truncated multivariate power series on a packed dense layout.

A series in d variables truncated at total degree D is stored as a complex
vector of length (D+1)**d.  A multi-index (a_1, .., a_d) with a_1+..+a_d <= D
lives at packed position sum(a_i * (D+1)**i).  Because only totals up to D are
ever kept, packed positions add without carries under multiplication, so a
truncated product is one gather-multiply-scatter over a precomputed index
table.  Slots whose multi-index exceeds the total degree stay exactly zero.

Vector-valued series (coefficients in C^m) are stored as (m, size) arrays and
reuse the scalar tables row by row.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product as _cartesian

import numpy as np

from .errors import ValidationError


@lru_cache(maxsize=None)
def space(dim: int, degree: int) -> "SeriesSpace":
    return SeriesSpace(dim, degree)


class SeriesSpace:
    """Index tables for series in `dim` variables, total degree <= `degree`."""

    def __init__(self, dim: int, degree: int):
        if not isinstance(dim, int) or dim < 1:
            raise ValidationError(f"series need at least one variable, got {dim!r}")
        if not isinstance(degree, int) or degree < 1:
            raise ValidationError(f"truncation degree must be >= 1, got {degree!r}")
        self.dim = dim
        self.degree = degree
        self.base = degree + 1
        self.size = self.base ** dim

        weights = np.array([self.base ** i for i in range(dim)], dtype=np.int64)
        self._weights = weights

        alphas = []
        for combo in _cartesian(range(self.base), repeat=dim):
            if sum(combo) <= degree:
                alphas.append(tuple(reversed(combo)))
        alphas.sort(key=lambda a: (sum(a), a))
        self.alphas = tuple(alphas)
        packed = np.array([int(np.dot(a, weights)) for a in alphas], dtype=np.int64)
        self.packed = packed

        totals = np.full(self.size, -1, dtype=np.int64)
        for a, p in zip(alphas, packed):
            totals[p] = sum(a)
        self.totals = totals
        self.unused = np.flatnonzero(totals < 0)
        self.nonconstant = np.flatnonzero(totals >= 1)

        self.by_degree = {
            k: packed[[sum(a) == k for a in alphas]] for k in range(degree + 1)
        }
        # slots of degrees 1..D, one row each, padded past the row's width
        rows = [self.by_degree[k] for k in range(1, degree + 1)]
        widths = np.array([len(r) for r in rows])
        self._degree_pad = np.arange(widths.max()) >= widths[:, None]
        self._degree_table = np.zeros(self._degree_pad.shape, dtype=np.intp)
        self._degree_table[~self._degree_pad] = np.concatenate(rows)
        self.unit_packed = tuple(int(weights[i]) for i in range(dim))

        # product table: every ordered pair of valid indices whose totals fit
        lhs, rhs, out = [], [], []
        for a, pa in zip(alphas, packed):
            room = degree - sum(a)
            for b, pb in zip(alphas, packed):
                if sum(b) <= room:
                    lhs.append(pa)
                    rhs.append(pb)
                    out.append(pa + pb)
        self._mul_lhs = np.array(lhs, dtype=np.int64)
        self._mul_rhs = np.array(rhs, dtype=np.int64)
        self._mul_out = np.array(out, dtype=np.int64)

        self._diff_tables: dict[int, tuple] = {}

    # -- packing ---------------------------------------------------------

    def pack(self, alpha) -> int:
        alpha = tuple(int(a) for a in alpha)
        if len(alpha) != self.dim or any(a < 0 for a in alpha):
            raise ValidationError(f"bad multi-index {alpha!r} for {self.dim} variables")
        if sum(alpha) > self.degree:
            raise ValidationError(
                f"multi-index {alpha!r} exceeds total degree {self.degree}"
            )
        return int(np.dot(alpha, self._weights))

    def alpha_of(self, packed: int) -> tuple:
        out = []
        rem = int(packed)
        for _ in range(self.dim):
            out.append(rem % self.base)
            rem //= self.base
        return tuple(out)

    def degree_sums(self, norms: np.ndarray) -> np.ndarray:
        """Per-degree sums norms[..., by_degree[k]].sum() for k = 1..D.

        `norms` is (..., size); the result is (..., D).  numpy adds fewer than
        eight values left to right, so when every degree has fewer than eight
        slots one padded gather, its padding set to +0.0, gives the same bits
        as the per-degree sums.  Longer degrees, where numpy sums pairwise,
        are summed one degree at a time.
        """
        if self._degree_table.shape[1] < 8:
            gathered = norms[..., self._degree_table]
            gathered[..., self._degree_pad] = 0.0
            return gathered.sum(axis=-1)
        sums = [
            [row[self.by_degree[k]].sum() for k in range(1, self.degree + 1)]
            for row in norms.reshape(-1, self.size)
        ]
        return np.array(sums).reshape(norms.shape[:-1] + (self.degree,))

    # -- construction ----------------------------------------------------

    def zeros(self, ncomp: int | None = None) -> np.ndarray:
        if ncomp is None:
            return np.zeros(self.size, dtype=np.complex128)
        return np.zeros((ncomp, self.size), dtype=np.complex128)

    def from_terms(self, terms: dict, ncomp: int) -> np.ndarray:
        """Build a vector series from {multi-index: coefficient vector}."""
        out = self.zeros(ncomp)
        for alpha, coeff in terms.items():
            vec = np.asarray(coeff, dtype=np.complex128).reshape(-1)
            if vec.shape != (ncomp,):
                raise ValidationError(
                    f"coefficient at {tuple(alpha)!r} has {vec.shape[0]} components, expected {ncomp}"
                )
            out[:, self.pack(alpha)] += vec
        return out

    def to_terms(self, cols: np.ndarray) -> dict:
        """Sparse view {multi-index: coefficient vector}, zero columns dropped."""
        cols = np.atleast_2d(cols)
        out = {}
        for a, p in zip(self.alphas, self.packed):
            col = cols[:, p]
            if np.any(col != 0):
                out[a] = col.copy()
        return out

    # -- arithmetic ------------------------------------------------------

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Truncated product of two scalar series.

        Each output slot is 0.0 plus its products, added in table order, for
        the real and the imaginary part alike.
        """
        prods = a[self._mul_lhs] * b[self._mul_rhs]
        out = np.empty(self.size, dtype=np.complex128)
        out.real = np.bincount(self._mul_out, weights=prods.real, minlength=self.size)
        out.imag = np.bincount(self._mul_out, weights=prods.imag, minlength=self.size)
        return out

    def diff_table(self, j: int):
        """Gather lists (src, dst, factor) for the partial derivative d/dx_j."""
        tab = self._diff_tables.get(j)
        if tab is None:
            src, dst, fac = [], [], []
            for a, p in zip(self.alphas, self.packed):
                if a[j] > 0:
                    src.append(p)
                    dst.append(p - self.unit_packed[j])
                    fac.append(a[j])
            tab = (
                np.array(src, dtype=np.int64),
                np.array(dst, dtype=np.int64),
                np.array(fac, dtype=np.float64),
            )
            self._diff_tables[j] = tab
        return tab

    def differentiate(self, cols: np.ndarray, j: int) -> np.ndarray:
        """Partial derivative of a (m, size) vector series along variable j."""
        src, dst, fac = self.diff_table(j)
        out = np.zeros_like(cols)
        out[..., dst] = cols[..., src] * fac
        return out

    def substitute(self, cols: np.ndarray, components) -> np.ndarray:
        """Evaluate a vector series on a tuple of scalar argument series.

        `cols` has shape (m, size); `components` holds one scalar series per
        variable.  Monomial powers of the arguments are built once, bottom-up,
        and shared across all m output rows.  Truncation at the space degree
        is inherent in `mul`, so arguments with zero constant term produce the
        exact truncated composition.
        """
        cols = np.atleast_2d(cols)
        m = cols.shape[0]
        out = np.zeros((m, self.size), dtype=np.complex128)
        out[:, 0] = cols[:, 0]

        memo: dict[int, np.ndarray] = {}
        for i, comp in enumerate(components):
            memo[self.unit_packed[i]] = np.asarray(comp, dtype=np.complex128)

        def monomial(p: int) -> np.ndarray:
            got = memo.get(p)
            if got is not None:
                return got
            alpha = self.alpha_of(p)
            i = next(k for k, a in enumerate(alpha) if a > 0)
            val = self.mul(monomial(p - self.unit_packed[i]), memo[self.unit_packed[i]])
            memo[p] = val
            return val

        support = [
            p for p, a in zip(self.packed, self.alphas)
            if sum(a) >= 1 and np.any(cols[:, p] != 0)
        ]
        for p in support:
            out += cols[:, p, None] * monomial(int(p))[None, :]
        return out

    def evaluate(self, cols: np.ndarray, point) -> np.ndarray:
        """Value of a vector series at a concrete argument vector."""
        point = np.asarray(point, dtype=np.complex128).reshape(-1)
        if point.shape != (self.dim,):
            raise ValidationError(
                f"expected a point with {self.dim} components, got {point.shape[0]}"
            )
        vals = np.zeros(self.size, dtype=np.complex128)
        vals[0] = 1.0
        for a, p in zip(self.alphas[1:], self.packed[1:]):
            i = next(k for k, ai in enumerate(a) if ai > 0)
            vals[p] = vals[p - self.unit_packed[i]] * point[i]
        cols = np.atleast_2d(cols)
        return cols[:, self.packed] @ vals[self.packed]
