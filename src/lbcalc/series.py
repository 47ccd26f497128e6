"""Truncated multivariate power series on a packed dense layout.

A series in d variables truncated at total degree D is stored as a complex
vector of length (D+1)**d.  A multi-index (a_1, .., a_d) with a_1+..+a_d <= D
lives at packed position sum(a_i * (D+1)**i).  Because only totals up to D are
ever kept, packed positions add without carries under multiplication, so a
truncated product is one gather-multiply-scatter over a precomputed index
table.  Slots whose multi-index exceeds the total degree stay exactly zero.

The C(D+d, d) live slots, in the order of `alphas` (by total degree, then by
multi-index), also number the columns of a compact layout.  In compact
columns each degree is one contiguous block, and every slot of degree >= 1
is its parent slot times one variable, the first variable that the slot
holds.  `substitute` and `evaluate` build monomials along these parent
chains.  The product table is also kept split by output degree, restricted
to pairs whose two factors both have degree >= 1: with zero constant terms,
degree k of a product reads only lower degrees of its factors, which is
what lets `germs.invert` form every monomial one degree at a time.

`substitute` and `mul_rows` multiply by a sparse right factor over only
the pairs of the table where it is nonzero, with the bits of `mul` (see
`_pairs_onto`); the restricted tables are built per call.
`evaluate_compact` reads coefficients in compact columns, so a caller that
evaluates one series at many points gathers those columns once.

Vector-valued series (coefficients in C^m) are stored as (m, size) arrays and
reuse the scalar tables row by row.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import ValidationError

# No index table of a space may hold more entries than this: neither the
# product table, with C(D+2d, 2d) pairs, nor the packed layout, with
# (D+1)**d slots.  The battery and the benchmark build no space larger than
# d = 3, D = 8: 3,003 pairs and 729 slots.
MAX_TABLE_ENTRIES = 1_000_000


def _runs(firsts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The ranges firsts[i], .., firsts[i] + lengths[i] - 1, concatenated."""
    return np.arange(lengths.sum()) + np.repeat(firsts - (np.cumsum(lengths) - lengths), lengths)


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
        pairs = math.comb(degree + 2 * dim, 2 * dim)
        if max(pairs, (degree + 1) ** dim) > MAX_TABLE_ENTRIES:
            raise ValidationError(
                f"series space of dimension {dim} and degree {degree} is too large: "
                f"{pairs} product pairs and {(degree + 1) ** dim} packed slots, "
                f"where at most {MAX_TABLE_ENTRIES} entries per table are allowed"
            )
        self.dim = dim
        self.degree = degree
        self.base = degree + 1
        self.size = self.base ** dim

        weights = self.base ** np.arange(dim, dtype=np.int64)
        self._weights = weights

        # every multi-index of total <= degree, in (total, multi-index) order:
        # np.indices lists them lexicographically, so grouping by total is enough
        grid = np.indices((self.base,) * dim).reshape(dim, -1).T
        sums = grid.sum(axis=1)
        grid = np.concatenate([grid[sums == k] for k in range(degree + 1)])
        degrees = grid.sum(axis=1)
        self.alphas = tuple(map(tuple, grid.tolist()))
        packed = grid @ weights
        self.packed = packed
        live = len(packed)
        self.live = live
        # compact column where each degree begins; degree k is starts[k]:starts[k+1]
        starts = np.searchsorted(degrees, np.arange(degree + 2))
        self.starts = starts

        totals = np.full(self.size, -1, dtype=np.int64)
        totals[packed] = degrees
        self.totals = totals
        self.unused = np.flatnonzero(totals < 0)
        self.nonconstant = np.flatnonzero(totals >= 1)
        compact = np.full(self.size, -1, dtype=np.intp)
        compact[packed] = np.arange(live)
        self.compact = compact

        self.by_degree = {k: packed[starts[k]:starts[k + 1]] for k in range(degree + 1)}
        widths = np.diff(starts)  # slots per degree
        # slots of degrees 1..D, one row each, padded past the row's width
        self._degree_pad = np.arange(widths[1:].max()) >= widths[1:, None]
        self._degree_table = np.zeros(self._degree_pad.shape, dtype=np.intp)
        self._degree_table[~self._degree_pad] = packed[1:]
        self.unit_packed = tuple(int(w) for w in weights)
        self.unit_compact = compact[weights]

        # each slot of degree >= 1 is parents[c] times x_variables[c], where
        # the variable is the first one the slot holds; the constant has -1
        variables = np.where(grid > 0, np.arange(dim), dim).min(axis=1)
        variables[0] = -1
        parents = compact[packed - weights[variables]]
        parents[0] = -1
        self.parents = parents
        self.variables = variables
        # (slot, parent, variable) per compact column, as Python ints
        self._chain = list(zip(range(live), parents.tolist(), variables.tolist()))

        # product table: every ordered pair of valid indices whose totals fit.
        # Since alphas are sorted by total, the right factors that fit beside
        # a left factor of total t are the first starts[degree - t + 1].
        fits = starts[degree - degrees + 1]
        self._mul_lhs = packed[np.repeat(np.arange(live), fits)]
        self._mul_rhs = packed[_runs(np.zeros_like(fits), fits)]
        self._mul_out = self._mul_lhs + self._mul_rhs
        self._mul_pairs = (self._mul_lhs, self._mul_rhs, self._mul_out)

        # the same pairs restricted to factors of degree >= 1 and split by
        # output degree k, in table order: each left factor of total t in
        # 1..k-1 meets the block of right factors of total k - t.  Entries
        # are (left, right, output - starts[k]) in compact columns.
        products = []
        for k in range(degree + 1):
            lefts = np.arange(starts[1], starts[k])
            rest = k - degrees[lefts]
            left = np.repeat(lefts, widths[rest])
            right = _runs(starts[rest], widths[rest])
            products.append((left, right, compact[packed[left] + packed[right]] - starts[k]))
        self.products_by_degree = tuple(products)

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

    def _product(self, a: np.ndarray, b: np.ndarray, pairs) -> np.ndarray:
        """Sum of a[lhs] * b[rhs] into the slots `out`, for pairs = (lhs, rhs, out).

        Each output slot is 0.0 plus its products, added in table order, for
        the real and the imaginary part alike.
        """
        lhs, rhs, out = pairs
        prods = a[lhs] * b[rhs]
        res = np.empty(self.size, dtype=np.complex128)
        res.real = np.bincount(out, weights=prods.real, minlength=self.size)
        res.imag = np.bincount(out, weights=prods.imag, minlength=self.size)
        return res

    def _pairs_onto(self, b: np.ndarray):
        """The product table restricted to the pairs where b[rhs] is nonzero.

        With a finite left factor, every pair left out adds a product that is
        +0.0 or -0.0 in each part, and a sum that starts at +0.0 keeps its
        bits under such an addition, so `_product` over these pairs equals
        `mul` bit for bit.  A left factor with an infinity or a NaN breaks
        this (inf * 0 is NaN), so callers pass finite left factors only.
        """
        keep = b[self._mul_rhs] != 0
        return self._mul_lhs[keep], self._mul_rhs[keep], self._mul_out[keep]

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Truncated product of two scalar series, over the full product table."""
        return self._product(a, b, self._mul_pairs)

    def mul_rows(self, rows: np.ndarray, b: np.ndarray) -> np.ndarray:
        """The truncated products mul(row, b) of each row of `rows`, stacked.

        One table restricted to the support of b serves every row when all
        rows are finite; otherwise the full table does.
        """
        pairs = self._pairs_onto(b) if np.isfinite(rows).all() else self._mul_pairs
        return np.array([self._product(row, b, pairs) for row in rows])

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

    def support(self, cols: np.ndarray) -> np.ndarray:
        """Compact columns of degree >= 1 where some row of `cols` is nonzero, in order."""
        return np.flatnonzero(np.any(cols[:, self.packed[1:]] != 0, axis=0)) + 1

    def substitute(self, cols: np.ndarray, components) -> np.ndarray:
        """Evaluate a vector series on a tuple of scalar argument series.

        `cols` has shape (m, size); `components` holds one scalar series per
        variable.  Each monomial that the support of `cols` needs is built
        once, as the product of its parent monomial and one component (see
        the module docstring), and shared across all m output rows; the
        terms are added in compact-column order.  Each product runs over the
        pairs where its component is nonzero (`_pairs_onto`), one table per
        component, whenever no monomial can overflow: with N(a) the sum of
        |Re| + |Im| over the coefficients, N(ab) <= N(a) N(b), so every
        monomial has N below max(1, N(u_i))^D, and below 2^1000 each stays
        finite.  Otherwise every product runs over the full table, as `mul`.
        Truncation at the space degree is inherent in the product table, so
        arguments with zero constant term produce the exact truncated
        composition.
        """
        cols = np.atleast_2d(cols)
        m = cols.shape[0]
        out = np.zeros((m, self.size), dtype=np.complex128)
        out[:, 0] = cols[:, 0]

        comps = np.array(components, dtype=np.complex128).reshape(-1, self.size)
        if np.abs(comps.view(np.float64)).sum(axis=1).max() <= 2.0 ** (1000 / self.degree):
            tables = [self._pairs_onto(comp) for comp in comps]
        else:
            tables = [self._mul_pairs] * len(comps)
        units = self.unit_compact.tolist()
        memo = {units[i]: comp for i, comp in enumerate(comps)}
        chain = self._chain
        for c in self.support(cols).tolist():
            pending = []  # c and those of its ancestors not built yet
            q = c
            while q not in memo:
                pending.append(q)
                q = chain[q][1]
            for q in reversed(pending):
                _, parent, var = chain[q]
                memo[q] = self._product(memo[parent], comps[var], tables[var])
            out += cols[:, self.packed[c], None] * memo[c][None, :]
        return out

    def evaluate(self, cols: np.ndarray, point) -> np.ndarray:
        """Value of a vector series at a concrete argument vector."""
        return self.evaluate_compact(np.atleast_2d(cols)[:, self.packed], point)

    def evaluate_compact(self, compact: np.ndarray, point) -> np.ndarray:
        """Value at a point of a series given in compact columns, (m, live).

        The monomial values are built along the parent chains, one scalar
        product per live slot, in compact-column order.
        """
        point = np.asarray(point, dtype=np.complex128).reshape(-1)
        if point.shape != (self.dim,):
            raise ValidationError(
                f"expected a point with {self.dim} components, got {point.shape[0]}"
            )
        x = point.tolist()
        vals = [1.0 + 0.0j] * self.live
        for c, q, i in self._chain[1:]:
            vals[c] = vals[q] * x[i]
        return compact @ np.array(vals)
