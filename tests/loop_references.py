"""Loop references for the table-driven series code, the one-pass inversion,
the contour quadrature and the BCH plan walks.

These are the algorithms that `lbcalc.series` and `lbcalc.germs.invert` used
before their index tables existed: the double-loop table build, the truncated
product with one bincount per part, the memoised `monomial` substitution, the
per-slot evaluation and the degree-by-degree inversion, which runs one full
substitution per degree.  Every product in them runs over the full
double-loop table, as do those of the derivative of composition, which
substitutes da and the Jacobian separately and takes one product per pair of
components in its Jacobian term.
The contour coefficient is added up node by node.  The last two walk the BCH
plan node by node, as `dirichlet.bch_series` and `matrices.bch` did before
`words.apply_plan` walked it one degree at a time.  The last three are the
small-object kernels of the certificate hammer as they were before their
per-call overhead was cut: the majorant loop over per-degree numpy sums,
the canonical form of a Dirichlet series with its scatter by inverse
permutation, and the complex normal draw taken in two calls.  The tests
require the new code to agree with them bit for bit.
"""

import math

from functools import lru_cache
from itertools import product

import numpy as np

from lbcalc.dirichlet import DirichletSeries, _bracket_terms, zero_series
from lbcalc.matrices import commutator
from lbcalc.series import space
from lbcalc.words import evaluation_plan


def reference_tables(dim, degree):
    """(alphas, packed slots, product-table lhs, rhs, out) by the double loop."""
    base = degree + 1
    weights = [base**i for i in range(dim)]
    alphas = sorted(
        (tuple(reversed(combo)) for combo in product(range(base), repeat=dim) if sum(combo) <= degree),
        key=lambda a: (sum(a), a),
    )
    packed = [sum(ai * w for ai, w in zip(a, weights)) for a in alphas]
    lhs, rhs, out = [], [], []
    for a, pa in zip(alphas, packed):
        room = degree - sum(a)
        for b, pb in zip(alphas, packed):
            if sum(b) <= room:
                lhs.append(pa)
                rhs.append(pb)
                out.append(pa + pb)
    return alphas, packed, lhs, rhs, out


@lru_cache(maxsize=None)
def _reference_pairs(dim, degree):
    _, _, lhs, rhs, out = reference_tables(dim, degree)
    return np.array(lhs), np.array(rhs), np.array(out)


def reference_product(sp, a, b):
    """Truncated product of two scalar series, one bincount per part.

    Each output slot is 0.0 plus its products, added in table order, the
    real parts in one bincount and the imaginary parts in another.
    """
    lhs, rhs, out = _reference_pairs(sp.dim, sp.degree)
    prods = a[lhs] * b[rhs]
    res = np.empty(sp.size, dtype=np.complex128)
    res.real = np.bincount(out, weights=prods.real, minlength=sp.size)
    res.imag = np.bincount(out, weights=prods.imag, minlength=sp.size)
    return res


def reference_substitute(sp, cols, components):
    """cols o components with one memoised product per monomial, built on demand."""
    cols = np.atleast_2d(cols)
    out = np.zeros((cols.shape[0], sp.size), dtype=np.complex128)
    out[:, 0] = cols[:, 0]
    memo = {sp.unit_packed[i]: np.asarray(c, dtype=np.complex128) for i, c in enumerate(components)}
    alpha_at = dict(zip(sp.packed.tolist(), sp.alphas))

    def monomial(p):
        got = memo.get(p)
        if got is not None:
            return got
        alpha = alpha_at[p]
        i = next(k for k, a in enumerate(alpha) if a > 0)
        val = reference_product(sp, monomial(p - sp.unit_packed[i]), memo[sp.unit_packed[i]])
        memo[p] = val
        return val

    support = [p for p, a in zip(sp.packed, sp.alphas) if sum(a) >= 1 and np.any(cols[:, p] != 0)]
    for p in support:
        out += cols[:, p, None] * monomial(int(p))[None, :]
    return out


def reference_evaluate(sp, cols, point):
    """Value at a point, one numpy scalar product per slot."""
    point = np.asarray(point, dtype=np.complex128).reshape(-1)
    vals = np.zeros(sp.size, dtype=np.complex128)
    vals[0] = 1.0
    for a, p in zip(sp.alphas[1:], sp.packed[1:]):
        i = next(k for k, ai in enumerate(a) if ai > 0)
        vals[p] = vals[p - sp.unit_packed[i]] * point[i]
    return np.atleast_2d(cols)[:, sp.packed] @ vals[sp.packed]


def chart_components(sp, cols):
    """The scalar series of id + cols."""
    comps = []
    for i in range(cols.shape[0]):
        c = cols[i].copy()
        c[sp.unit_packed[i]] += 1.0
        comps.append(c)
    return comps


def reference_inverse_blocks(g):
    """The chart inverse of every anchor block, solved degree by degree."""
    sp = space(g.dim, g.degree)
    d = g.dim
    blocks = []
    for cols in g.coeffs:
        lin = np.empty((d, d), dtype=np.complex128)
        for j in range(d):
            lin[:, j] = cols[:, sp.unit_packed[j]]
        m = np.eye(d, dtype=np.complex128) + lin
        h = sp.zeros(d)
        for k in range(1, g.degree + 1):
            t = reference_substitute(sp, cols, chart_components(sp, h)) + h
            idx = sp.packed[sp.starts[k]:sp.starts[k + 1]]
            h[:, idx] -= np.linalg.solve(m, t[:, idx])
        blocks.append(h)
    return blocks


def reference_compose_derivative_blocks(g1, g2, dg1, dg2):
    """The blocks of compose_derivative, with the Jacobian term as d*d full products."""
    sp = space(g1.dim, g1.degree)
    d = g1.dim
    blocks = []
    for cols1, cols2, dc1, dc2 in zip(g1.coeffs, g2.coeffs, dg1.coeffs, dg2.coeffs):
        u = chart_components(sp, cols2)
        term1 = reference_substitute(sp, dc1, u)
        jac = np.concatenate([sp.differentiate(cols1, j) for j in range(d)], axis=0)
        jac_sub = reference_substitute(sp, jac, u)
        term2 = np.zeros_like(term1)
        for i in range(d):
            for j in range(d):
                term2[i] += reference_product(sp, jac_sub[j * d + i], dc2[j])
        blocks.append(term1 + term2 + dc2)
    return blocks


def reference_cauchy_coefficient(sample, v, s, k, quadrature):
    """The trapezoid sum of cauchy_directional_coefficient, one node at a time."""
    v = np.asarray(v, dtype=np.complex128).reshape(-1)
    angles = 2.0 * math.pi * np.arange(quadrature) / quadrature
    nodes = s * np.exp(1j * angles)
    weights = np.exp(-1j * k * angles)
    acc = np.zeros(sample.dim, dtype=np.complex128)
    for z, w in zip(nodes, weights):
        acc += sample(sample.center + z * v) * w
    return acc / (quadrature * s**k)


def same_bits(a, b) -> bool:
    """Equal shape, dtype and bytes: stricter than np.array_equal, which lets -0.0 == 0.0."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def reference_bch_series(g1, g2, order):
    """bch_series' own walk of the plan, on bare (freqs, mats) pairs."""
    d = g1.dim
    leaves = ((g1.freqs, g1.mats), (g2.freqs, g2.mats))
    values, acc_f, acc_m = [], [], []
    for parent, letter, weight in evaluation_plan(order):
        lf, lm = leaves[letter]
        v = (lf, lm) if parent is None else _bracket_terms(*values[parent], lf, lm, d)
        values.append(v)
        if weight and v[0].size:
            acc_f.append(v[0])
            acc_m.append(weight * v[1])
    if not acc_f:
        return zero_series(d)
    return DirichletSeries(np.concatenate(acc_f), np.concatenate(acc_m), dim=d)


def reference_bch_matrix(x, y, order):
    """The plan walked node by node: one commutator per node, the weighted
    nodes added in plan order."""
    leaves = (x, y)
    values, acc = [], None
    for parent, letter, weight in evaluation_plan(order):
        v = leaves[letter] if parent is None else commutator(values[parent], leaves[letter])
        values.append(v)
        if weight:
            term = weight * v
            acc = term if acc is None else acc + term
    return acc


def reference_majorants(sp, blocks, rho):
    """(sup, d, h): the majorants of the blocks at radius rho and the per-degree
    sums h_k maxed over anchors, summed degree by degree with numpy's sum."""
    sup = dval = 0.0
    h_max = np.zeros(sp.degree + 1)
    for cols in blocks:
        coeff_norm = np.abs(cols).max(axis=0)
        s = d = 0.0
        rho_pow = 1.0
        for k in range(1, sp.degree + 1):
            if k > 1:
                rho_pow *= rho
            h = float(coeff_norm[sp.packed[sp.starts[k]:sp.starts[k + 1]]].sum())
            h_max[k] = max(h_max[k], h)
            if h:
                t = h * rho_pow
                s += t * rho
                d += k * t
        sup = max(sup, s)
        dval = max(dval, d)
    return sup, dval, h_max


def reference_canonical(freqs, mats, dim):
    """Sort, merge duplicates by np.add.at over the inverse permutation, drop zero rows."""
    n = freqs.size
    if n == 0:
        return np.zeros(0, dtype=np.int64), np.zeros((0, dim, dim), dtype=np.complex128)
    if n == 1 or np.all(freqs[1:] > freqs[:-1]):
        uniq = freqs.copy()
        merged = mats + 0.0
    else:
        order = freqs.argsort(kind="stable")
        ordered = freqs[order]
        first = np.empty(n, dtype=bool)
        first[0] = True
        np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
        uniq = ordered[first]
        inverse = np.empty(n, dtype=np.intp)
        inverse[order] = first.cumsum() - 1
        merged = np.zeros((uniq.size, dim, dim), dtype=np.complex128)
        np.add.at(merged, inverse, mats)
    if np.all(merged != 0):
        return uniq, merged
    keep = merged.any(axis=(1, 2))
    return uniq[keep], merged[keep]


def reference_complex_normal(rng, shape):
    """Real parts in one call, imaginary parts in the next."""
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
