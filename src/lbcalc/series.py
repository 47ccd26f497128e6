"""Truncated multivariate power series on a packed dense layout.

A series in d variables truncated at total degree D is stored as a complex
vector of length (D+1)**d.  A multi-index (a_1, .., a_d) with a_1+..+a_d <= D
lives at packed position sum(a_i * (D+1)**i).  Because only totals up to D are
ever kept, packed positions add without carries under multiplication, so a
truncated product is one gather-multiply-scatter over a precomputed index
table.  Slots whose multi-index exceeds the total degree stay exactly zero.
Output slot o is bins 2o and 2o + 1 of the float64 view, so one bincount
adds the real and imaginary parts of all products.

The C(D+d, d) live slots, in the order of `alphas` (by total degree, then by
multi-index), also number the columns of a compact layout.  In compact
columns each degree is one contiguous block, and every slot of degree >= 1
is its parent slot times one variable, the first variable that the slot
holds.  `substitute` and `evaluator` build monomials along these parent
chains.  The product table is also cut by output degree, restricted
to pairs whose two factors both have degree >= 1: with zero constant terms,
degree k of a product reads only lower degrees of its factors, which is
what lets `chart_inverse` form every monomial one degree at a time.

`substitute` and `mul_rows` multiply by a sparse right factor over only
the pairs of the table where it is nonzero, with the bits of `mul` in
every slot where `mul` is finite (see `_pairs_onto`); the restricted
tables are built per call.  `evaluator` is the one evaluation routine: it
gathers the compact columns once for a series evaluated at many points.

Vector-valued series (coefficients in C^m) are stored as (m, size) arrays and
reuse the scalar tables row by row.  A vector series g in d variables with
d components is also the chart id + g of a map near the origin; `chart`,
`chart_compose`, `chart_derivative` and `chart_inverse` are the algebra of
these charts that `lbcalc.germs` runs at each anchor.  The layout and its
index tables are this module's own: other modules read only `size`, the
`vanishing` slots that a germ checks and the `nonconstant` slots that a
random germ draws from.
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


# 16 keeps all 15 spaces of the battery (d = 1..3, D = 4..8), the benchmark's 3 among them
@lru_cache(maxsize=16)
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
        base = degree + 1
        self.size = base ** dim

        weights = base ** np.arange(dim, dtype=np.int64)
        self.unit_packed = weights  # packed slot of each variable x_i

        # every multi-index of total <= degree, in (total, multi-index) order:
        # np.indices lists them lexicographically, so grouping by total is enough
        grid = np.indices((base,) * dim).reshape(dim, -1).T
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
        self.vanishing = np.flatnonzero(totals <= 0)  # the constant slot and the unused ones
        self.nonconstant = np.flatnonzero(totals >= 1)
        compact = np.full(self.size, -1, dtype=np.intp)  # compact column of each packed slot
        compact[packed] = np.arange(live)

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
        left = np.repeat(np.arange(live), fits)
        right = _runs(np.zeros_like(fits), fits)
        # bins 2o and 2o + 1 of the float64 view take the parts of output slot o
        bins = 2 * (packed[left] + packed[right])[:, None] + np.arange(2)
        self._mul_pairs = (packed[left], packed[right], bins.ravel())

        # the same pairs restricted to factors of degree >= 1 and split by
        # output degree k, in table order, as (left, right, output - starts[k])
        # in compact columns
        inner = (degrees[left] >= 1) & (degrees[right] >= 1)
        left, right = left[inner], right[inner]
        out = compact[packed[left] + packed[right]]
        products = []
        for k in range(degree + 1):
            at = degrees[out] == k
            products.append((left[at], right[at], out[at] - starts[k]))
        self.products_by_degree = tuple(products)

        # d/dx_j moves each slot that holds x_j to the slot with one x_j
        # less, times its power of x_j: (source, target, factor) per j
        self._derivatives = []
        for j in range(dim):
            holds = grid[:, j] > 0
            self._derivatives.append((packed[holds], packed[holds] - weights[j], grid[holds, j] * 1.0))

    # -- packing ---------------------------------------------------------

    def pack(self, alpha) -> int:
        alpha = tuple(int(a) for a in alpha)
        if len(alpha) != self.dim or any(a < 0 for a in alpha):
            raise ValidationError(f"bad multi-index {alpha!r} for {self.dim} variables")
        if sum(alpha) > self.degree:
            raise ValidationError(
                f"multi-index {alpha!r} exceeds total degree {self.degree}"
            )
        return int(np.dot(alpha, self.unit_packed))

    def degree_sums(self, norms: np.ndarray) -> np.ndarray:
        """Per-degree sums norms[..., packed[starts[k]:starts[k + 1]]].sum() for k = 1..D.

        `norms` is (..., size) and nonnegative; the result is (..., D) and may
        be a view of `norms`.  In one variable slot k is degree k and holds
        one value, which is its own sum.  In more variables each degree is
        summed on its own, as one slice of compact columns: numpy adds a
        slice in an order that neither `np.add.reduceat` nor a sum along the
        last axis of a 2-D gather reproduces bit for bit.
        """
        if self.dim == 1:
            return norms[..., 1:]
        s = self.starts.tolist()
        sums = []
        for row in norms.reshape(-1, self.size):
            row = row[self.packed]  # compact columns: degree k is s[k]:s[k + 1]
            sums.append([row[s[k]:s[k + 1]].sum() for k in range(1, self.degree + 1)])
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
        """Sum of a[lhs] * b[rhs] into their output slots, for pairs = (lhs, rhs, bins).

        Each part of each output slot, one bin of the float64 view, is 0.0
        plus its products, added in table order by one bincount.
        """
        lhs, rhs, bins = pairs
        prods = (a[lhs] * b[rhs]).astype(np.complex128, copy=False)  # real factors too
        return np.bincount(bins, prods.view(np.float64), 2 * self.size).view(np.complex128)

    def _pairs_onto(self, b: np.ndarray):
        """The product table restricted to the pairs where b[rhs] is nonzero.

        A pair left out has a right factor of exactly zero, so its exact
        product is zero.  With a finite left factor that pair adds +0.0 or
        -0.0 in each part, and a sum that starts at +0.0 keeps its bits under
        such an addition, so `_product` over these pairs equals `mul` bit for
        bit.  With an infinite left factor the full table adds the NaN of
        inf * 0, which the exact product does not hold.  So `_product` over
        these pairs has the bits of `mul` in every slot where `mul` is
        finite, and callers need not check their left factors.
        """
        lhs, rhs, bins = self._mul_pairs
        keep = np.flatnonzero(b[rhs])
        return lhs.take(keep), rhs.take(keep), bins.reshape(-1, 2).take(keep, 0).ravel()

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Truncated product of two scalar series, over the full product table."""
        return self._product(a, b, self._mul_pairs)

    def mul_rows(self, rows: np.ndarray, b: np.ndarray) -> np.ndarray:
        """The truncated products mul(row, b) of each row of `rows`, stacked.

        One table restricted to the support of b (`_pairs_onto`) serves every row.
        """
        pairs = self._pairs_onto(b)
        return np.array([self._product(row, b, pairs) for row in rows])

    def differentiate(self, cols: np.ndarray, j: int) -> np.ndarray:
        """Partial derivative of a (m, size) vector series along variable j."""
        src, dst, fac = self._derivatives[j]
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
        component, so every slot where the same products over the full table
        give a finite value has their bits; where a monomial overflows, the
        full table would add NaNs of inf * 0 that these products leave out.
        Truncation at the space degree is inherent in the product table, so
        arguments with zero constant term produce the exact truncated
        composition.
        """
        cols = np.atleast_2d(cols)
        m = cols.shape[0]
        out = np.zeros((m, self.size), dtype=np.complex128)
        out[:, 0] = cols[:, 0]

        comps = np.array(components, dtype=np.complex128).reshape(-1, self.size)
        tables = [self._pairs_onto(comp) for comp in comps]
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

    def evaluator(self, cols: np.ndarray, center):
        """The map x -> value of the series `cols` at x - center.

        The compact columns of `cols` are gathered and the center is taken
        out as Python complexes once, when the map is made.  Each call
        converts x, the only conversion of a contour node, builds the
        monomials of x - center along the parent chains, one scalar product
        per live slot in compact-column order, and returns their dot product
        with the gathered columns.
        """
        compact = cols[:, self.packed]
        center = np.broadcast_to(np.asarray(center, dtype=np.complex128), (self.dim,)).tolist()
        chain = self._chain[1:]

        def at(point):
            point = np.asarray(point, dtype=np.complex128).reshape(-1)
            if point.shape != (self.dim,):
                raise ValidationError(f"expected a point with {self.dim} components, got {point.shape[0]}")
            x = [p - c for p, c in zip(point.tolist(), center)]
            vals = [1.0 + 0.0j] * self.live
            for c, q, i in chain:
                vals[c] = vals[q] * x[i]
            return compact.dot(vals)

        return at

    # -- charts ----------------------------------------------------------

    def chart(self, cols: np.ndarray) -> np.ndarray:
        """The scalar series of the chart id + cols, one row per variable."""
        comps = np.array(cols, dtype=np.complex128)
        comps[np.arange(self.dim), self.unit_packed] += 1.0
        return comps

    def chart_compose(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """a o (id + b) + b, the chart of (id + a) o (id + b), truncated."""
        return self.substitute(a, self.chart(b)) + b

    def chart_derivative(self, a, b, da, db) -> np.ndarray:
        """Derivative of chart_compose at (a, b) in the direction (da, db).

        The three terms are da o (id + b), the Jacobian of a evaluated along
        id + b applied to db, and db itself.
        """
        d = self.dim
        # da over the Jacobian of a, whose row d + j * d + i is the partial of
        # component i along x_j, substituted at once: a row adds +-0.0 for the
        # other rows' columns, which changes no sum begun at +0.0, and the
        # constant slot, which may start at -0.0, is +0.0 in the result anyway
        rows = np.concatenate([da] + [self.differentiate(a, j) for j in range(d)])
        sub = self.substitute(rows, self.chart(b))
        term1, jac_sub = sub[:d], sub[d:]
        term2 = np.zeros_like(term1)
        for j in range(d):  # term2[i] adds its products in j order, as a loop over i, j
            term2 += self.mul_rows(jac_sub[j * d:(j + 1) * d], db[j])
        return term1 + term2 + db

    def chart_inverse(self, cols: np.ndarray) -> np.ndarray:
        """h with h + cols o (id + h) = 0 through the degree.

        id + h is then the inverse of the chart id + cols.  One pass over the
        degrees k = 1..D, with m = I + L and L the linear part of `cols`.
        The rows of `mono` hold, in compact columns, the monomials of
        u = id + h that the pass reads: the support of `cols`, every monomial
        on their parent chains, and the d units, whose rows are u itself.
        With zero constant terms, every product that lands at degree k reads
        only degrees below k of its two factors, and those are final, so
        degree k of every monomial of degree >= 2 is one batched product and
        bincount over the pairs of `products_by_degree[k]`.  The pairs left
        out of that table each add a product with a zero factor, so every
        value equals the one that `substitute(cols, id + h)` computes.  Then
        t_k = sum over the support of c_a u^a, added in support order, and
        m h_k = -t_k gives degree k of h.
        """
        d = cols.shape[0]
        m = np.eye(d, dtype=np.complex128) + cols[:, self.unit_packed]
        support = self.support(cols)
        need = np.zeros(self.live, dtype=bool)
        need[support] = True
        need[self.unit_compact] = True
        for j in range(self.degree, 1, -1):  # parents of degree j - 1, top down
            block = slice(self.starts[j], self.starts[j + 1])
            need[self.parents[block][need[block]]] = True
        ids = np.flatnonzero(need)
        row = np.zeros(self.live, dtype=np.intp)
        row[ids] = np.arange(ids.size)
        units = row[self.unit_compact]
        first = np.searchsorted(ids, self.starts[2])  # rows of degree >= 2 follow
        left = row[self.parents[ids[first:]]]
        right = units[self.variables[ids[first:]]]
        coef = cols[:, self.packed[support], None]
        mono = np.zeros((ids.size, self.live), dtype=np.complex128)
        mono[units, self.unit_compact] = 1.0
        h = self.zeros(d)
        for k in range(1, self.degree + 1):
            lo, hi = self.starts[k], self.starts[k + 1]
            width = hi - lo
            rows = np.searchsorted(ids, hi) - first  # monomials of degree 2..k
            if k >= 2 and rows > 0:
                lhs, rhs, out = self.products_by_degree[k]
                # parent times component, the operand order of `mul`: numpy's
                # vectorised complex product can round a*b and b*a differently
                prods = mono.take(left[:rows], 0).take(lhs, 1) * mono.take(right[:rows], 0).take(rhs, 1)
                bins = (np.arange(rows)[:, None] * width + out).ravel()
                block = mono[first:first + rows, lo:hi]
                block.real = np.bincount(bins, prods.real.ravel(), rows * width).reshape(rows, width)
                block.imag = np.bincount(bins, prods.imag.ravel(), rows * width).reshape(rows, width)
            terms = np.zeros((d, support.size + 1, width), dtype=np.complex128)
            np.multiply(coef, mono[row[support], lo:hi], out=terms[:, 1:])
            t = np.add.accumulate(terms, axis=1)[:, -1]  # 0.0 + c_1 u^a_1 + c_2 u^a_2 + ...
            idx = self.packed[lo:hi]
            h[:, idx] -= np.linalg.solve(m, t)
            mono[units, lo:hi] = h[:, idx]
            if k == 1:
                mono[units, self.unit_compact] += 1.0
        return h
