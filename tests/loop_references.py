"""Loop references for the table-driven series code, the one-pass inversion
and the Dirichlet BCH walk.

These are the algorithms that `lbcalc.series` and `lbcalc.germs.invert` used
before their index tables existed: the double-loop table build, the memoised
`monomial` substitution, the per-slot evaluation and the degree-by-degree
inversion, which runs one full substitution per degree.  The last is the plan
walk that `dirichlet.bch_series` kept before it ran through
`words.apply_plan`.  The tests require the new code to agree with them bit
for bit.
"""

from itertools import product

import numpy as np

from lbcalc.dirichlet import DirichletSeries, _bracket_terms, zero_series
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


def reference_substitute(sp, cols, components):
    """cols o components with one memoised product per monomial, built on demand."""
    cols = np.atleast_2d(cols)
    out = np.zeros((cols.shape[0], sp.size), dtype=np.complex128)
    out[:, 0] = cols[:, 0]
    memo = {sp.unit_packed[i]: np.asarray(c, dtype=np.complex128) for i, c in enumerate(components)}

    def monomial(p):
        got = memo.get(p)
        if got is not None:
            return got
        alpha = sp.alpha_of(p)
        i = next(k for k, a in enumerate(alpha) if a > 0)
        val = sp.mul(monomial(p - sp.unit_packed[i]), memo[sp.unit_packed[i]])
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
            idx = sp.by_degree[k]
            h[:, idx] -= np.linalg.solve(m, t[:, idx])
        blocks.append(h)
    return blocks


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
